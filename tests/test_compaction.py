"""Tests for boundary-retention (compact-memory) mode.

This is the implementation of the paper's stated future-work item (space
consumption). Invariants: boundary-mode scores equal dense-mode scores on
every backend; the boundary store's peak memory is far below the dense
matrix and bounded by the live wavefront; garbage collection never frees
data a (possibly re-dispatched) consumer still needs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance, LongestCommonSubsequence, NeedlemanWunsch
from repro.algorithms.compaction import BoundaryStore
from repro.cluster.faults import FaultPlan, FaultRule, Faults
from repro.dag.partition import partition_pattern
from repro.utils.errors import ConfigError


def run_blocked(problem, proc, thread):
    part = partition_pattern(problem.pattern(), proc)
    state = problem.make_state()
    for bid in part.abstract.topological_order():
        inputs = problem.extract_inputs(state, part, bid)
        ev = problem.evaluator(part, bid, inputs)
        outputs = ev.run_serial(part.sub_partition(bid, thread))
        problem.apply_result(state, part, bid, outputs)
    return problem.finalize(state), state


class TestBoundaryCorrectness:
    @pytest.mark.parametrize("cls,attr", [
        (EditDistance, "distance"),
        (LongestCommonSubsequence, "length"),
        (NeedlemanWunsch, "score"),
    ])
    def test_boundary_score_equals_dense(self, cls, attr):
        full = cls.random(45, 61, seed=8)
        compact = cls(full.a, full.b, retain="boundary")
        dense_res, _ = run_blocked(full, 12, 4)
        compact_res, _ = run_blocked(compact, 12, 4)
        assert np.isclose(compact_res.score, float(getattr(dense_res, attr)))

    def test_boundary_through_threads_backend(self):
        problem = EditDistance.random(60, 60, seed=9)
        compact = EditDistance(problem.a, problem.b, retain="boundary")
        run = EasyHPS(RunConfig(nodes=3, threads_per_node=2, backend="threads",
                                process_partition=16, thread_partition=4)).run(compact)
        assert run.value.score == problem.reference()

    def test_boundary_survives_fault_redispatch(self):
        """The GC frees at completion, not dispatch — a timed-out block's
        re-dispatch must still find its inputs alive."""
        problem = EditDistance.random(50, 50, seed=4)
        compact = EditDistance(problem.a, problem.b, retain="boundary")
        plan = FaultPlan([FaultRule("crash", (1, 1), 0), FaultRule("crash", (2, 0), 0)])
        run = EasyHPS(RunConfig(nodes=3, threads_per_node=1, backend="threads",
                                process_partition=16, thread_partition=8,
                                task_timeout=0.4, faults=Faults(task=plan))).run(compact)
        assert run.value.score == problem.reference()
        assert run.report.faults_recovered >= 2

    def test_invalid_retain_rejected(self):
        with pytest.raises(ValueError, match="retain"):
            EditDistance("AC", "GT", retain="sparse")


class TestMemoryAccounting:
    def test_peak_far_below_dense(self):
        problem = EditDistance.random(400, 400, seed=1)
        compact = EditDistance(problem.a, problem.b, retain="boundary")
        res, _ = run_blocked(compact, 40, 10)
        assert res.dense_bytes == 8 * 401 * 401
        assert res.peak_bytes < res.dense_bytes / 5
        assert res.reduction > 5

    def test_store_drains_to_last_blocks(self):
        """After the run only the final frontier (blocks whose consumers
        never existed) remains in the store."""
        problem = LongestCommonSubsequence.random(120, 120, seed=2)
        compact = LongestCommonSubsequence(problem.a, problem.b, retain="boundary")
        _, state = run_blocked(compact, 20, 5)
        store: BoundaryStore = state["boundary"]
        # Live blocks are exactly those on the last row/col of the grid.
        assert all(bid[0] == 5 or bid[1] == 5 for bid in store.rows)

    def test_current_bytes_tracks_live_set(self):
        problem = EditDistance.random(90, 90, seed=3)
        compact = EditDistance(problem.a, problem.b, retain="boundary")
        _, state = run_blocked(compact, 30, 10)
        store: BoundaryStore = state["boundary"]
        expected = sum(8 * (len(r) + len(store.cols[b]) + 1) for b, r in store.rows.items())
        assert store.current_bytes == expected
        assert store.peak_bytes >= store.current_bytes

    @given(m=st.integers(4, 50), n=st.integers(4, 50), proc=st.integers(2, 12))
    @settings(max_examples=25, deadline=None)
    def test_property_boundary_equals_dense(self, m, n, proc):
        full = EditDistance.random(m, n, seed=m * 100 + n)
        compact = EditDistance(full.a, full.b, retain="boundary")
        res, _ = run_blocked(compact, proc, max(1, proc // 2))
        assert res.score == full.reference()


class TestBoundaryStoreIsAStoreTheRuntimeKnows:
    """``retain="boundary"`` state is not a dict of arrays; the runtime
    must not treat it as one (both used to end in a traceback)."""

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_journaled_boundary_run_resumes_past_a_checkpoint(self, backend, tmp_path):
        from repro.durable import recover, resume_run
        from repro.utils.errors import MasterCrash

        full = EditDistance.random(64, 64, seed=11)
        compact = EditDistance(full.a, full.b, retain="boundary")
        path = str(tmp_path / "j")
        config = RunConfig(
            backend=backend, nodes=3, journal_path=path, journal_fsync=False,
            checkpoint_interval=4, faults=Faults(kill_after=20),
        )
        with pytest.raises(MasterCrash):
            EasyHPS(config).run(compact)
        rec = recover(path)  # IndexError here: the checkpoint held a 0-d object array
        assert isinstance(rec.state["boundary"], BoundaryStore)
        assert 0 < rec.n_committed < rec.n_tasks
        _, run = resume_run(path)
        assert run.value.score == full.reference()

    @pytest.mark.parametrize("backend", ["threads", "simulated"])
    def test_audit_is_refused_before_the_run_starts(self, backend):
        # An audit (and the taint recompute a conviction starts) re-reads
        # inputs the store has freed: KeyError((0, 0)) from the scheduling
        # thread, before this was a ConfigError.
        full = EditDistance.random(64, 64, seed=11)
        compact = EditDistance(full.a, full.b, retain="boundary")
        config = RunConfig(backend=backend, nodes=3, integrity="audit", audit_fraction=1.0)
        with pytest.raises(ConfigError, match="integrity='audit'.*retain='boundary'"):
            EasyHPS(config).run(compact)
        # The other integrity modes never re-read a committed block's inputs.
        vote = RunConfig(backend="threads", nodes=3, integrity="vote")
        assert EasyHPS(vote).run(compact).value.score == full.reference()


class TestBoundaryStoreUnit:
    def test_put_and_free_cycle(self):
        store = BoundaryStore()
        part = partition_pattern(EditDistance.random(8, 8, seed=0).pattern(), 4)
        block = np.arange(16.0).reshape(4, 4)
        store.put((0, 0), block)
        assert store.current_bytes == 8 * 9
        assert store.corners[(0, 0)] == 15.0
        # Complete every consumer of (0,0): it gets freed.
        for bid in ((0, 1), (1, 0), (1, 1)):
            store.put(bid, block)
            store.mark_complete(part, bid)
        assert (0, 0) not in store.rows
        assert store.peak_bytes == 8 * 9 * 4

    def test_incomplete_consumers_keep_source_alive(self):
        store = BoundaryStore()
        part = partition_pattern(EditDistance.random(8, 8, seed=0).pattern(), 4)
        block = np.ones((4, 4))
        store.put((0, 0), block)
        store.put((0, 1), block)
        store.mark_complete(part, (0, 1))  # (1,0) and (1,1) still missing
        assert (0, 0) in store.rows
