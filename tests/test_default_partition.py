"""The default thread-level partition follows the computing threads — as
far as a region can pay for its own pool handoff.

One rule — along each axis a block is cut into as many regions as its
node has computing threads, but never into regions under
``MIN_REGION_EDGE``: ``thread = edge // max(1, min(c, edge //
MIN_REGION_EDGE))`` — resolved in ``RunConfig.partitions_for`` from the
*resolved* process size. A block that stays one region is computed by the
slave thread that received it: no pool is built where there is nothing to
share. The run digest, the committed state and the value do not see the
thread grain (kernels are bit-identical region by region), which is what
lets the default move without re-recording anything; the cost-per-cell
curve the rule rests on is held to its direction here.
"""

import ast
import threading
from pathlib import Path

import pytest

import repro
from repro import EasyHPS, RunConfig
from repro.algorithms import ALGORITHMS, make_problem
from repro.algorithms.problem import MIN_REGION_EDGE
from repro.analysis.calibration import ns_per_cell
from repro.cluster.faults import FaultPlan, FaultRule, Faults
from repro.cluster.machine import NodeSpec
from repro.cluster.topology import ClusterSpec
from repro.dag.library import WavefrontPattern
from repro.dag.model import DAGDataDrivenModel

SRC = Path(repro.__file__).parent
ALGO_NAMES = sorted(ALGORITHMS)
SIZE = 64
#: Blocks of 8 (never cut), 50 (under two floors: never cut), 128 (cut for
#: every ``c`` up to 4) — Floyd-Warshall's are twice as wide.
TABLE_SIZES = (SIZE, 400, 1024)


def _cuts(edge, c):
    return max(1, min(c, edge // MIN_REGION_EDGE))


def _rule(proc, c):
    return tuple(edge // _cuts(edge, c) for edge in proc)


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


def _assert_follows_the_rule(proc, thread, c, where):
    assert thread == _rule(proc, c), (where, proc, thread)
    for edge, t in zip(proc, thread):
        assert 1 <= t <= edge, where
        assert t >= min(edge, MIN_REGION_EDGE), where
        # Even cuts: exactly ``cuts`` full regions, at most a sliver left.
        assert edge // t == _cuts(edge, c) and edge % t < _cuts(edge, c), where
        if edge // c >= MIN_REGION_EDGE:
            assert t == edge // c, where  # PR 22's size wherever it could pay


class TestRuleTable:
    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_one_region_per_computing_thread_per_axis(self, algo, c):
        cut_somewhere = False
        for size in TABLE_SIZES:
            problem = make_problem(algo, size, 0)
            for backend, config in _configs(c).items():
                proc, thread = config.partitions_for(problem)
                _assert_follows_the_rule(proc, thread, c, (backend, size))
                cut_somewhere |= thread != proc
            # One thread drains a serial run, whatever threads_per_node says.
            proc, thread = RunConfig(backend="serial", threads_per_node=c).partitions_for(problem)
            assert thread == proc
        # (CYK's blocks are single cells at every size.)
        assert cut_somewhere == (c > 1 and algo != "cyk")

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("process_partition", [40, (40, 24), (3, 17), 1])
    @pytest.mark.parametrize("algo", ["edit-distance", "viterbi", "floyd-warshall"])
    def test_thread_size_derives_from_the_resolved_process_size(self, algo, process_partition, c):
        """``RunConfig(process_partition=40)`` used to resolve to
        ``((40, 40), (62, 62))`` on edit distance n=2000: a thread size
        the paper's model (and ``DAGDataDrivenModel``) rejects."""
        problem = make_problem(algo, 2000 if algo == "edit-distance" else SIZE, 0)
        for backend, config in _configs(c, process_partition=process_partition).items():
            proc, thread = config.partitions_for(problem)
            assert proc == (
                process_partition
                if isinstance(process_partition, tuple)
                else (process_partition, process_partition)
            )
            _assert_follows_the_rule(proc, thread, c, backend)
            DAGDataDrivenModel(WavefrontPattern(64, 64), proc, thread)  # must not raise
        if algo == "edit-distance":
            # Unnamed, n=2000 resolves to blocks of 250: every c up to 4 pays.
            proc, thread = _configs(c)["threads"].partitions_for(problem)
            assert (proc, thread) == ((250, 250), (250 // c, 250 // c))

    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_explicit_thread_partition_is_returned_untouched(self, algo):
        problem = make_problem(algo, SIZE, 0)
        for thread_partition, expect in ((3, (3, 3)), ((5, 2), (5, 2))):
            configs = _configs(3, thread_partition=thread_partition)
            configs["serial"] = RunConfig(backend="serial", thread_partition=thread_partition)
            for config in configs.values():
                assert config.partitions_for(problem)[1] == expect


def _assert_same_run(run, base):
    assert run.report.run_digest == base.report.run_digest
    assert repr(run.value) == repr(base.value)
    assert set(run.state) == set(base.state)
    for key, array in base.state.items():
        assert run.state[key].tobytes() == array.tobytes(), key


class TestGranularityInvariance:
    @pytest.mark.parametrize("algo", ALGO_NAMES)
    def test_digest_state_and_value_do_not_see_the_thread_grain(self, algo):
        """Old default (a quarter block; half for Floyd-Warshall), PR 22's
        two-thread default (half), the serial default, an explicit whole
        block, and today's two-thread default on the real pool-less path:
        what ``bench/expected.json`` records cannot move."""
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
            _assert_same_run(run, base)
        assert runs[2].report.n_subtasks > base.report.n_subtasks
        # The c = 2 default: blocks this small are not worth sharing.
        two = RunConfig(backend="threads", nodes=3, threads_per_node=2, poll_interval=0.005)
        assert two.partitions_for(problem) == (proc, whole)
        shared = EasyHPS(two).run(problem)
        _assert_same_run(shared, base)
        assert shared.report.n_subtasks == base.report.n_subtasks

    def test_a_block_big_enough_to_share_is_cut_and_still_invisible(self):
        problem = make_problem("edit-distance", 512, 6)
        two = RunConfig(backend="threads", nodes=3, threads_per_node=2, poll_interval=0.005)
        assert two.partitions_for(problem) == ((64, 64), (32, 32))
        base = EasyHPS(RunConfig(backend="serial")).run(problem)
        shared = EasyHPS(two).run(problem)
        _assert_same_run(shared, base)
        assert shared.report.n_subtasks == 4 * base.report.n_subtasks


class TestSubtaskCount:
    @pytest.mark.parametrize("c", [1, 2])
    def test_threads_and_processes_report_the_same_regions(self, c):
        """The processes backend used to report 0: slave counters never
        crossed the pipe. The count rides on ``TaskResult`` now — regions
        actually run: blocks of 6 stay whole, blocks of 64 are cut ``c x c``."""
        for n in (48, 512):
            problem = make_problem("edit-distance", n, 3)
            reports = {
                backend: EasyHPS(
                    RunConfig(backend=backend, nodes=3, threads_per_node=c, poll_interval=0.005)
                ).run(problem).report
                for backend in ("threads", "processes")
            }
            threads, processes = reports["threads"], reports["processes"]
            cuts = _cuts(n // 8, c)
            assert cuts == (c if n == 512 else 1)
            assert threads.n_subtasks == processes.n_subtasks == threads.n_tasks * cuts * cuts
            # Reporting only: the count is outside the wire's byte model.
            assert threads.bytes_to_master == processes.bytes_to_master


@pytest.fixture
def computing_threads(monkeypatch):
    """Names of the ``slave*-ct*`` threads started while the test runs."""
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        if "-ct" in thread.name:
            started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


class TestNoPoolWithoutParallelism:
    """``SlavePart._compute`` builds Fig 11's pool only for a block with
    several regions and several threads to share them, or when Fig 12's
    fault path is asked for."""

    def _config(self, **overrides):
        return RunConfig(
            backend="threads", nodes=3, threads_per_node=2, poll_interval=0.005, **overrides
        )

    def test_a_one_region_block_is_computed_by_the_thread_that_received_it(
        self, computing_threads
    ):
        problem = make_problem("edit-distance", 16, 0)  # serve-closed's job: 64 blocks of 2 x 2
        oracle = EasyHPS(RunConfig(backend="serial")).run(problem)
        run = EasyHPS(self._config()).run(problem)
        assert computing_threads == []
        assert run.report.run_digest == oracle.report.run_digest
        assert run.report.n_subtasks == run.report.n_tasks == 64
        assert run.value.distance == problem.reference()

    def test_a_block_of_several_regions_still_goes_through_the_pool(self, computing_threads):
        problem = make_problem("edit-distance", 16, 0)
        oracle = EasyHPS(RunConfig(backend="serial")).run(problem)
        run = EasyHPS(self._config(thread_partition=1)).run(problem)
        assert len(computing_threads) == 2 * run.report.n_tasks
        assert run.report.n_subtasks == 4 * run.report.n_tasks
        assert run.report.run_digest == oracle.report.run_digest

    def test_a_thread_fault_plan_still_takes_the_pool_path_on_a_one_region_block(
        self, computing_threads
    ):
        problem = make_problem("edit-distance", 16, 0)
        plan = FaultPlan([FaultRule("crash", (0, 0), 0)])  # the one region of every block
        run = EasyHPS(
            self._config(process_partition=8, faults=Faults(thread=plan), subtask_timeout=0.2)
        ).run(problem)
        assert run.report.n_subtasks == run.report.n_tasks == 4  # one region a block
        assert run.report.thread_restarts > 0
        assert any("-ct-restart" in name for name in computing_threads)
        assert run.value.distance == problem.reference()


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

    def test_the_pool_has_one_call_site_behind_the_sharing_test(self):
        """Only ``SlavePart._compute`` enters ``_run_pool``, and only under
        a condition built from the block's region count, the computing
        threads and the thread-level fault plan."""
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
                        and node.func.attr == "_run_pool"
                    ):
                        callers.append((path.relative_to(SRC).as_posix(), fn))
        assert [(p, fn.name) for p, fn in callers] == [("runtime/slave.py", "_compute")]
        compute = callers[0][1]
        (guard,) = [
            node for node in ast.walk(compute)
            if isinstance(node, ast.If) and "_run_pool(" in ast.unparse(node.body)
        ]
        assert ast.unparse(guard.test) == "shared or self.config.faults.thread"
        (shared,) = [
            ast.unparse(node.value) for node in ast.walk(compute)
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "shared"
        ]
        assert shared == "inner.n_blocks > 1 and self.config.threads_per_node > 1"


class TestCostCurve:
    @pytest.mark.parametrize("algo", ["edit-distance", "swgg"])
    def test_a_whole_block_is_no_dearer_per_cell_than_a_quarter(self, algo):
        """Loose, direction only: the rule never splits finer than the
        threads need *because* cost per cell falls as regions grow. Blocks
        of 128, the smallest the rule still quarters (n=400 resolves to
        blocks of 50, which it leaves whole). A kernel that inverts the
        curve must fail here, not silently make the default wrong."""
        problem = make_problem(algo, 400, 0)
        sized = dict(process_partition=4 * MIN_REGION_EDGE)
        proc, whole = RunConfig(threads_per_node=1, **sized).partitions_for(problem)
        _, quarter = RunConfig(threads_per_node=4, **sized).partitions_for(problem)
        assert whole == proc and quarter == tuple(e // 4 for e in proc)
        # Interleaved, best of 5: a burst of load lands on both grains, and
        # the floor of each is what the curve is about.
        runs = [
            {grain: ns_per_cell(problem, proc, grain) for grain in (whole, quarter)}
            for _ in range(5)
        ]
        cost = {grain: min(run[grain] for run in runs) for grain in (whole, quarter)}
        assert cost[whole] <= cost[quarter], runs
