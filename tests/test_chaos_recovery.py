"""Integration tests for the hardened recovery under injected chaos.

Every scenario asserts the campaign invariant at small scale: the run
either produces the serial-reference answer or aborts with a clean
FaultToleranceExhausted — and the recovery that happened is visible in
the run report and satisfies the fault/recovery trace invariants.
"""

import threading
import time

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.check.trace_check import check_trace
from repro.cluster.faults import (
    FaultPlan,
    FaultRule,
    Faults,
    MessageFaultPlan,
    MessageFaultRule,
    WorkerFaultPlan,
    WorkerFaultRule,
)
from repro.runtime.master import MasterPart, MasterStats
from repro.utils.errors import FaultToleranceExhausted, WorkerLeakWarning
from tests.test_dispatch_core import run_row


class DropOnce(MessageFaultRule):
    """Drops only the first matching message (test helper).

    Rule ``index`` counts *all* messages per endpoint and direction, so
    "the first TaskResult" has no fixed index; this matches by type and
    then disarms itself.
    """

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "_fired", False)

    def matches(self, direction, message_type, task_id, index):
        if not self._fired and super().matches(direction, message_type, task_id, index):
            object.__setattr__(self, "_fired", True)
            return True
        return False


@pytest.fixture
def problem():
    return EditDistance.random(50, 50, seed=4)


#: Every run below cuts 16-cell process-level blocks.
PROCESS_PARTITION = 16


def cfg(**kw):
    base = dict(
        nodes=3,
        threads_per_node=1,
        backend="threads",
        process_partition=PROCESS_PARTITION,
        thread_partition=8,
        task_timeout=0.4,
        poll_interval=0.005,
        observe=True,
    )
    base.update(kw)
    return RunConfig(**base)


def assert_invariants(run, problem):
    """What the chaos campaign holds a surviving run to: its stream
    replayed into the dispatch core at the process-level pattern."""
    pattern = problem.build_partition(PROCESS_PARTITION).abstract
    report = check_trace(run.report.events, pattern)
    assert report.ok, report.summary()


class TestWorkerDeath:
    def test_one_dead_slave_is_survivable(self, problem):
        plan = WorkerFaultPlan([WorkerFaultRule("die", worker_id=0, after_tasks=1)])
        run = EasyHPS(cfg(faults=Faults(worker=plan))).run(problem)
        assert run.value.distance == problem.reference()
        # The dead worker's in-flight dispatch timed out and moved on.
        assert run.report.tasks_per_worker.get(0, 0) <= 1
        assert_invariants(run, problem)

    def test_all_slaves_dead_aborts_cleanly(self, problem):
        # Every worker dies before serving anything: the stall watchdog
        # must turn "nobody will ever answer" into a clean abort, never a
        # hang (the outcome the chaos campaign forbids).
        plan = WorkerFaultPlan([WorkerFaultRule("die", after_tasks=0)])
        config = cfg(nodes=2, faults=Faults(worker=plan), stall_timeout=0.6)
        t0 = time.monotonic()
        with pytest.raises(FaultToleranceExhausted):
            EasyHPS(config).run(problem)
        assert time.monotonic() - t0 < 30.0

    def test_death_in_simulated_backend(self, problem):
        plan = WorkerFaultPlan([WorkerFaultRule("die", worker_id=1, after_tasks=1)])
        config = RunConfig(
            nodes=3, threads_per_node=2, backend="simulated",
            process_partition=PROCESS_PARTITION, thread_partition=4,
            task_timeout=5.0, faults=Faults(worker=plan), observe=True,
        )
        run = EasyHPS(config).run(problem)
        # The simulator schedules without computing values; correctness
        # here is "the schedule completed and the trace invariants hold".
        assert run.value is None
        kinds = {ev.kind for ev in run.report.events}
        assert "worker-death" in kinds
        # The dead node served at most its one pre-death task.
        assert run.report.tasks_per_worker.get(1, 0) <= 1
        assert_invariants(run, problem)


class TestMessageLoss:
    def test_dropped_assign_redistributed(self, problem):
        plan = MessageFaultPlan(
            [MessageFaultRule("drop", direction="send", message_type="BatchAssign", index=0)]
        )
        run = EasyHPS(cfg(faults=Faults(message=plan))).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 1
        assert run.report.faults_injected >= 1
        assert_invariants(run, problem)

    def test_dropped_result_redistributed(self, problem):
        plan = MessageFaultPlan([DropOnce("drop", direction="recv", message_type="BatchResult")])
        run = EasyHPS(cfg(faults=Faults(message=plan))).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 1
        assert_invariants(run, problem)

    def test_duplicated_result_is_idempotent(self, problem):
        plan = MessageFaultPlan(
            [MessageFaultRule("duplicate", direction="recv", message_type="BatchResult",
                              index=None, task_id=(0, 0))]
        )
        run = EasyHPS(cfg(faults=Faults(message=plan))).run(problem)
        assert run.value.distance == problem.reference()
        assert_invariants(run, problem)

    def test_total_assign_loss_aborts_not_hangs(self, problem):
        # Every assignment envelope is lost: the retry budget must exhaust cleanly.
        plan = MessageFaultPlan(
            [MessageFaultRule("drop", direction="send", message_type="BatchAssign")]
        )
        config = cfg(nodes=2, faults=Faults(message=plan), task_timeout=0.2, max_retries=2)
        with pytest.raises(FaultToleranceExhausted):
            EasyHPS(config).run(problem)


class TestBackoff:
    def test_retries_back_off_and_still_recover(self, problem):
        plan = FaultPlan([FaultRule("crash", (0, 0), 0), FaultRule("crash", (0, 0), 1)])
        run = EasyHPS(
            cfg(faults=Faults(task=plan), retry_backoff=0.05, retry_backoff_max=0.2)
        ).run(problem)
        assert run.value.distance == problem.reference()
        assert run.report.faults_recovered >= 2
        kinds = {ev.kind for ev in run.report.events}
        assert "backoff" in kinds
        assert_invariants(run, problem)


class TestBlacklist:
    """The failure-attribution/blacklist policy, decided by the dispatch
    core: each case is the row of tests/test_dispatch_core.py that checks
    it. (Driven directly because threshold crossings in a live run depend
    on scheduling timing; the chaos campaign exercises the integrated
    path.)
    """

    def test_below_threshold_keeps_worker(self):
        run_row("blacklist-below-threshold")

    def test_silent_worker_blacklisted_and_evicted_at_threshold(self):
        run_row("blacklist-evicts-exempt")

    def test_recently_heard_worker_is_vetoed(self):
        run_row("blacklist-last-heard-veto")

    def test_degradation_floor_keeps_last_worker(self):
        run_row("blacklist-degradation-floor")

    def test_disabled_when_threshold_none(self):
        run_row("blacklist-disabled")


class TestWorkerLeakSurfacing:
    def _stub(self):
        class StubSched:
            observing = False

        stub = type("Stub", (), {})()
        stub.stats = MasterStats()
        stub.sched = StubSched()
        return stub

    def test_live_thread_warns_and_counts(self):
        stub = self._stub()
        t = threading.Thread(target=time.sleep, args=(0.5,), daemon=True)
        t.start()
        with pytest.warns(WorkerLeakWarning):
            MasterPart._surface_leaks(stub, [t])
        assert stub.stats.worker_leaks == 1
        t.join()

    def test_joined_thread_is_silent(self):
        stub = self._stub()
        t = threading.Thread(target=lambda: None)
        t.start()
        t.join()
        MasterPart._surface_leaks(stub, [t])
        assert stub.stats.worker_leaks == 0


class TestCrossBackendInvariants:
    """The same seeded fault mix holds the invariant on every backend."""

    @pytest.mark.parametrize("backend", ["serial", "simulated", "threads"])
    def test_seeded_mix_holds_invariant(self, backend, problem):
        config = RunConfig(
            nodes=2, threads_per_node=2, backend=backend,
            process_partition=PROCESS_PARTITION, thread_partition=4,
            task_timeout=5.0 if backend in ("serial", "simulated") else 0.5,
            subtask_timeout=5.0 if backend in ("serial", "simulated") else 2.0,
            poll_interval=0.005,
            faults=Faults(
                task=FaultPlan.random(0.1, seed=3),
                message=(
                    MessageFaultPlan.random(0.05, seed=3)
                    if backend != "serial" else MessageFaultPlan()
                ),
            ),
            blacklist_threshold=4, retry_backoff=0.01, observe=True,
        )
        try:
            run = EasyHPS(config).run(problem)
        except FaultToleranceExhausted:
            return  # a clean abort satisfies the invariant
        if run.value is not None:  # the simulator schedules without values
            assert run.value.distance == problem.reference()
        assert_invariants(run, problem)

    @pytest.mark.slow
    def test_seeded_mix_holds_invariant_processes(self, problem):
        config = RunConfig(
            nodes=2, threads_per_node=2, backend="processes",
            process_partition=PROCESS_PARTITION, thread_partition=4,
            task_timeout=0.75, subtask_timeout=2.0, poll_interval=0.01,
            faults=Faults(
                task=FaultPlan.random(0.1, seed=3),
                message=MessageFaultPlan.random(0.05, seed=3),
            ),
            blacklist_threshold=4, retry_backoff=0.01, observe=True,
        )
        try:
            run = EasyHPS(config).run(problem)
        except FaultToleranceExhausted:
            return
        assert run.value.distance == problem.reference()
        assert_invariants(run, problem)
