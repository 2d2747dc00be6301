"""Tests for blocked Floyd-Warshall — the staged-DAG extension.

This exercises the :meth:`DPProblem.build_partition` extension point: the
schedulable DAG has 3-index staged vertices rather than blocked matrix
cells, pivot/row/col blocks run monolithically while phase-3 blocks
thread-parallelize over an edge-free inner DAG.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EasyHPS, RunConfig
from repro.algorithms import FloydWarshall
from repro.algorithms.floyd_warshall import (
    FloydWarshallPattern,
    FWPartition,
    fw_block_type,
    reconstruct_path,
)
from repro.dag.library import IndependentGridPattern
from repro.dag.parser import DAGParser


def run_blocked(problem, proc, thread):
    part = problem.build_partition(proc)
    state = problem.make_state()
    for bid in part.abstract.topological_order():
        inputs = problem.extract_inputs(state, part, bid)
        ev = problem.evaluator(part, bid, inputs)
        outputs = ev.run_serial(part.sub_partition(bid, thread))
        problem.apply_result(state, part, bid, outputs)
    return problem.finalize(state), state


def assert_dist_equal(dist, ref):
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(dist), finite)
    assert np.allclose(dist[finite], ref[finite])


class TestFWPattern:
    def test_validates(self):
        FloydWarshallPattern(4).validate()

    def test_vertex_count(self):
        assert FloydWarshallPattern(5).n_vertices() == 125

    def test_block_types(self):
        assert fw_block_type((2, 2, 2)) == "pivot"
        assert fw_block_type((2, 2, 0)) == "row"
        assert fw_block_type((2, 0, 2)) == "col"
        assert fw_block_type((2, 0, 1)) == "phase3"

    def test_round_zero_pivot_is_sole_source(self):
        p = FloydWarshallPattern(3)
        assert list(p.sources()) == [(0, 0, 0)]

    def test_phase3_depends_on_row_and_col(self):
        p = FloydWarshallPattern(3)
        preds = set(p.predecessors((1, 0, 2)))
        # (1, 0, 2) overwrites round-0 row strip R(0, 2): besides its
        # self/row/col inputs it carries WAR edges from that strip's
        # round-0 phase-3 readers.
        assert preds == {(0, 0, 2), (1, 1, 2), (1, 0, 1), (0, 1, 2), (0, 2, 2)}

    def test_row_depends_on_pivot(self):
        p = FloydWarshallPattern(3)
        # (1, 1, 0) overwrites round-0 column strip R(1, 0): WAR edges
        # from its round-0 phase-3 readers ride along with self + pivot.
        assert set(p.predecessors((1, 1, 0))) == {
            (0, 1, 0), (1, 1, 1), (0, 1, 1), (0, 1, 2),
        }

    def test_war_edges_mirror(self):
        """Every WAR predecessor edge appears as a successor edge too."""
        p = FloydWarshallPattern(4)
        for v in p.vertices():
            for u in p.predecessors(v):
                assert v in p.successors(u), (u, v)
            for w in p.successors(v):
                assert v in p.predecessors(w), (v, w)

    def test_parser_drains_completely(self):
        p = FloydWarshallPattern(4)
        order = DAGParser(p).run_all()
        assert len(order) == 64


class TestFWPartition:
    def test_geometry(self):
        part = FWPartition(20, 8)
        assert part.abstract.b == 3
        assert part.block_ranges((1, 2, 0)) == (range(16, 20), range(0, 8))
        assert part.cell_count((0, 2, 2)) == 16
        assert not part.is_diagonal_block((0, 0, 0))

    def test_phase3_inner_is_parallel(self):
        part = FWPartition(16, 8)
        sub = part.sub_partition((0, 1, 1), 4)
        assert isinstance(sub.abstract, IndependentGridPattern)
        assert sub.n_blocks == 4
        assert all(sub.abstract.predecessors(v) == () for v in sub.abstract.vertices())

    def test_pivot_inner_is_monolithic(self):
        part = FWPartition(16, 8)
        for bid in ((0, 0, 0), (0, 0, 1), (0, 1, 0)):
            assert part.sub_partition(bid, 4).n_blocks == 1


class TestFWCorrectness:
    @pytest.mark.parametrize("n,proc,thread", [(17, 5, 2), (24, 8, 4), (9, 9, 3), (12, 4, 4)])
    def test_blocked_equals_reference(self, n, proc, thread):
        fw = FloydWarshall.random(n, density=0.3, seed=n)
        res, _ = run_blocked(fw, proc, thread)
        assert_dist_equal(res.dist, fw.reference())

    def test_dense_graph(self):
        fw = FloydWarshall.random(15, density=1.0, seed=1)
        res, _ = run_blocked(fw, 5, 2)
        assert_dist_equal(res.dist, fw.reference())
        assert res.n_reachable_pairs == 15 * 15

    def test_disconnected_graph(self):
        W = np.full((6, 6), np.inf)
        np.fill_diagonal(W, 0.0)
        W[0, 1] = 2.0
        fw = FloydWarshall(W)
        res, _ = run_blocked(fw, 3, 1)
        assert res.dist[0, 1] == 2.0
        assert not np.isfinite(res.dist[1, 0])
        assert res.n_reachable_pairs == 7

    def test_triangle_inequality_everywhere(self):
        fw = FloydWarshall.random(12, density=0.5, seed=2)
        res, _ = run_blocked(fw, 4, 2)
        D = res.dist
        for k in range(12):
            assert np.all(D <= D[:, k : k + 1] + D[k : k + 1, :] + 1e-9)

    def test_path_reconstruction(self):
        fw = FloydWarshall.random(15, density=0.4, seed=1)
        res, _ = run_blocked(fw, 5, 2)
        finite = np.argwhere(np.isfinite(res.dist) & (res.dist > 0))
        u, v = finite[len(finite) // 2]
        path = reconstruct_path(fw.weights, res.dist, int(u), int(v))
        assert path[0] == u and path[-1] == v
        cost = sum(fw.weights[a, b] for a, b in zip(path, path[1:]))
        assert np.isclose(cost, res.dist[u, v])

    def test_unreachable_path_rejected(self):
        W = np.full((3, 3), np.inf)
        np.fill_diagonal(W, 0.0)
        fw = FloydWarshall(W)
        res, _ = run_blocked(fw, 3, 1)
        with pytest.raises(ValueError, match="unreachable"):
            reconstruct_path(fw.weights, res.dist, 0, 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            FloydWarshall(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="diagonal"):
            FloydWarshall(np.ones((2, 2)))
        with pytest.raises(ValueError, match="negative"):
            FloydWarshall(np.array([[0.0, -1.0], [1.0, 0.0]]))

    @given(n=st.integers(2, 20), proc=st.integers(1, 8), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_property_blocked_equals_reference(self, n, proc, seed):
        fw = FloydWarshall.random(n, density=0.35, seed=seed)
        res, _ = run_blocked(fw, proc, max(1, proc // 2))
        assert_dist_equal(res.dist, fw.reference())


class TestFWThroughRuntime:
    def test_threads_backend(self):
        fw = FloydWarshall.random(20, density=0.3, seed=2)
        run = EasyHPS(RunConfig(nodes=3, threads_per_node=2, backend="threads",
                                process_partition=5, thread_partition=3)).run(fw)
        assert_dist_equal(run.value.dist, fw.reference())
        assert run.report.n_tasks == 4 ** 3

    @pytest.mark.slow
    def test_processes_backend(self):
        fw = FloydWarshall.random(16, density=0.4, seed=3)
        run = EasyHPS(RunConfig(nodes=3, threads_per_node=2, backend="processes",
                                process_partition=8, thread_partition=4)).run(fw)
        assert_dist_equal(run.value.dist, fw.reference())

    def test_simulated_backend(self):
        fw = FloydWarshall.random(256, density=0.2, seed=3)
        cfg = RunConfig.experiment(3, 11, process_partition=64, thread_partition=16)
        rep = EasyHPS(cfg).run(fw).report
        assert rep.n_tasks == 64
        assert rep.makespan > 0

    def test_simulated_scales_with_cores(self):
        fw = FloydWarshall.random(512, density=0.1, seed=4)
        times = []
        for cores in (7, 17, 27):
            cfg = RunConfig.experiment(3, cores, process_partition=64, thread_partition=8)
            times.append(EasyHPS(cfg).run(fw).report.makespan)
        # Phase-3 blocks dominate and thread-parallelize, so more cores help.
        assert times[-1] < times[0]

    def test_fault_recovery(self):
        from repro.cluster.faults import FaultPlan, FaultRule, Faults

        fw = FloydWarshall.random(16, density=0.4, seed=5)
        plan = FaultPlan([FaultRule("crash", (0, 0, 0), 0)])
        run = EasyHPS(RunConfig(nodes=3, threads_per_node=1, backend="threads",
                                process_partition=8, thread_partition=4,
                                task_timeout=0.4, faults=Faults(task=plan))).run(fw)
        assert_dist_equal(run.value.dist, fw.reference())
        assert run.report.faults_recovered >= 1
