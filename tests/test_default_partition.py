"""The default thread-level partition follows the computing threads.

One rule — along each axis a block is cut into as many regions as its
node has computing threads, ``thread = max(1, proc // c)`` — resolved in
``RunConfig.partitions_for`` from the *resolved* process size. The run
digest, the committed state and the value do not see the thread grain
(kernels are bit-identical region by region), which is what lets the
default move without re-recording anything; the cost-per-cell curve the
rule rests on is held to its direction here.
"""

import ast
import statistics
from pathlib import Path

import pytest

import repro
from repro import EasyHPS, RunConfig
from repro.algorithms import ALGORITHMS, make_problem
from repro.analysis.calibration import ns_per_cell
from repro.cluster.machine import NodeSpec
from repro.cluster.topology import ClusterSpec
from repro.dag.library import WavefrontPattern
from repro.dag.model import DAGDataDrivenModel

SRC = Path(repro.__file__).parent
ALGO_NAMES = sorted(ALGORITHMS)
SIZE = 64


def _uneven_cluster(widest):
    return ClusterSpec(compute_nodes=(NodeSpec(threads=1), NodeSpec(threads=widest)))


def _configs(c, **sizes):
    """One config per backend whose blocks are shared among ``c`` computing
    threads (the simulated one says so through its cluster only)."""
    return {
        "threads": RunConfig(backend="threads", nodes=3, threads_per_node=c, **sizes),
        "processes": RunConfig(backend="processes", nodes=3, threads_per_node=c, **sizes),
        "simulated": RunConfig(
            backend="simulated", nodes=3, threads_per_node=1, cluster=_uneven_cluster(c), **sizes
        ),
    }


class TestRuleTable:
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_one_region_per_computing_thread_per_axis(self, algo, c):
        problem = make_problem(algo, SIZE, 0)
        for backend, config in _configs(c).items():
            proc, thread = config.partitions_for(problem)
            assert thread == tuple(max(1, edge // c) for edge in proc), (backend, proc, thread)
        # One thread drains a serial run, whatever threads_per_node says.
        proc, thread = RunConfig(backend="serial", threads_per_node=c).partitions_for(problem)
        assert thread == proc

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("process_partition", [40, (40, 24), (3, 17), 1])
    @pytest.mark.parametrize("algo", ["edit-distance", "viterbi", "floyd-warshall"])
    def test_thread_size_derives_from_the_resolved_process_size(self, algo, process_partition, c):
        """``RunConfig(process_partition=40)`` used to resolve to
        ``((40, 40), (62, 62))`` on edit distance n=2000: a thread size
        the paper's model (and ``DAGDataDrivenModel``) rejects."""
        problem = make_problem(algo, 2000 if algo == "edit-distance" else SIZE, 0)
        for config in _configs(c, process_partition=process_partition).values():
            proc, thread = config.partitions_for(problem)
            assert proc == (
                process_partition
                if isinstance(process_partition, tuple)
                else (process_partition, process_partition)
            )
            assert thread == tuple(max(1, edge // c) for edge in proc)
            assert all(1 <= t <= p for t, p in zip(thread, proc))
            DAGDataDrivenModel(WavefrontPattern(64, 64), proc, thread)  # must not raise

    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_explicit_thread_partition_is_returned_untouched(self, algo):
        problem = make_problem(algo, SIZE, 0)
        for thread_partition, expect in ((3, (3, 3)), ((5, 2), (5, 2))):
            configs = _configs(3, thread_partition=thread_partition)
            configs["serial"] = RunConfig(backend="serial", thread_partition=thread_partition)
            for config in configs.values():
                assert config.partitions_for(problem)[1] == expect


class TestGranularityInvariance:
    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_digest_state_and_value_do_not_see_the_thread_grain(self, algo):
        """Old default (a quarter block; half for Floyd-Warshall), the
        two-thread default, the new serial default and an explicit whole
        block: what ``bench/expected.json`` records cannot move."""
        problem = make_problem(algo, SIZE, 6)  # (seed 6: a CYK sentence of 39 tokens)
        proc, whole = RunConfig(backend="serial").partitions_for(problem)
        assert whole == proc and min(proc) >= 4
        old_cut = 2 if algo == "floyd-warshall" else 4
        grains = [None, whole] + [tuple(max(1, e // k) for e in proc) for k in (old_cut, 2)]
        runs = [
            EasyHPS(RunConfig(backend="serial", thread_partition=grain)).run(problem)
            for grain in grains
        ]
        base = runs[0]
        assert base.report.run_digest is not None
        assert base.report.n_subtasks == base.report.n_tasks
        for run in runs[1:]:
            assert run.report.run_digest == base.report.run_digest
            assert repr(run.value) == repr(base.value)
            assert set(run.state) == set(base.state)
            for key, array in base.state.items():
                assert run.state[key].tobytes() == array.tobytes(), key
        assert runs[2].report.n_subtasks > base.report.n_subtasks


class TestSubtaskCount:
    @pytest.mark.parametrize("c", [1, 2])
    def test_threads_and_processes_report_the_same_regions(self, c):
        """The processes backend used to report 0: slave counters never
        crossed the pipe. The count rides on ``TaskResult`` now."""
        problem = make_problem("edit-distance", 48, 3)
        reports = {
            backend: EasyHPS(
                RunConfig(backend=backend, nodes=3, threads_per_node=c, poll_interval=0.005)
            ).run(problem).report
            for backend in ("threads", "processes")
        }
        threads, processes = reports["threads"], reports["processes"]
        assert threads.n_subtasks == processes.n_subtasks == threads.n_tasks * c * c
        # Reporting only: the count is outside the wire's byte model.
        assert threads.bytes_to_master == processes.bytes_to_master


class TestStructure:
    """Beside ``test_run_assembly.TestStructure``: the rule is written once."""

    def test_overrides_decide_the_process_level_only(self):
        """An override of ``default_partition_sizes`` names its own
        process-level default (``self.<extent> // blocks``) and hands it to
        the base class; it divides nothing else."""
        overrides = []
        for path in sorted((SRC / "algorithms").glob("*.py")):
            if path.name == "problem.py":
                continue
            tree = ast.parse(path.read_text(), filename=path.name)
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn.name == "default_partition_sizes":
                    overrides.append(path.name)
                    divisions = [
                        n for n in ast.walk(fn)
                        if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.FloorDiv, ast.Div))
                    ]
                    assert [ast.unparse(d.left).split(".")[0] for d in divisions] == ["self"], (
                        path.name, [ast.unparse(d) for d in divisions]
                    )
                    assert "super().default_partition_sizes(" in ast.unparse(fn), path.name
        assert overrides == ["floyd_warshall.py", "knapsack.py", "viterbi.py"]

    def test_only_partitions_for_asks_a_problem_for_its_defaults(self):
        callers = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "default_partition_sizes"
                        and not ast.unparse(node.func).startswith("super()")
                    ):
                        callers.append((path.relative_to(SRC).as_posix(), fn.name))
        assert callers == [("runtime/config.py", "partitions_for")]


class TestCostCurve:
    @pytest.mark.parametrize("algo", ["edit-distance", "swgg"])
    def test_a_whole_block_is_no_dearer_per_cell_than_a_quarter(self, algo):
        """Loose, direction only: the rule never splits finer than the
        threads need *because* cost per cell falls as regions grow (ED
        ~3x, SWGG ~2x between these two points). A kernel that inverts
        the curve must fail here, not silently make the default wrong."""
        problem = make_problem(algo, 400, 0)
        proc, whole = RunConfig(threads_per_node=1).partitions_for(problem)
        _, quarter = RunConfig(threads_per_node=4).partitions_for(problem)
        assert whole == proc and quarter == tuple(e // 4 for e in proc)
        cost = {
            grain: statistics.median(ns_per_cell(problem, proc, grain) for _ in range(5))
            for grain in (whole, quarter)
        }
        assert cost[whole] <= cost[quarter], cost
