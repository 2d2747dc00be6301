"""The shells around the dispatch core decide alike because they share it.

Two parts: (1) one regression per simulated-backend drift the shared core
removed — each asserts the behaviour the threaded master always had, and
fails on the pre-core simulator; (2) a cross-shell differential — the same
seeded message + worker fault plan, run through ``threads`` and
``simulated``, yields the same census of protocol decisions.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import replace

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.backends.simulated import _SimulatedRun
from repro.cluster.faults import (
    FaultPlan,
    FaultRule,
    Faults,
    MessageFaultPlan,
    MessageFaultRule,
    WorkerFaultPlan,
    WorkerFaultRule,
)
from repro.runtime.assembly import RunAssembly
from repro.utils.errors import FaultToleranceExhausted
from tests.test_chaos_recovery import DropOnce as Once  # any fault kind, first match only


@pytest.fixture
def problem():
    return EditDistance.random(48, 48, seed=7)  # a 3x3 block wavefront


def sim(problem, **kw):
    base = dict(nodes=4, backend="simulated", process_partition=16, observe=True)
    base.update(kw)
    return EasyHPS(RunConfig(**base)).run(problem).report


def kinds(report):
    return Counter(ev.kind for ev in report.events)


# -- (1) simulated-backend drift fixes -------------------------------------------------

#: Node 1 lies from its seventh block on; every commit is audited,
#: ``AUDIT_LAG`` commits late, with a threshold of one. On an 8 x 8 grid
#: the conviction of its first lie lands while its next batched wave is
#: in flight, and the quarantine evicts that wave — a budget-free
#: eviction whose result later arrives stale.
QUARANTINE_MID_WAVE = dict(
    batch_wave=True,
    process_partition=6,
    integrity="audit",
    audit_fraction=1.0,
    quarantine_threshold=1,
    faults=Faults(worker=WorkerFaultPlan([WorkerFaultRule("liar", worker_id=1, after_tasks=6)])),
    task_timeout=5.0,
)


class TestSimulatorDriftFixes:
    def test_quarantine_eviction_counts_as_recovered_fault(self, problem):
        report = sim(problem, **QUARANTINE_MID_WAVE)
        assert report.quarantined_workers == (1,)
        evicted = [ev for ev in report.events if ev.kind == "stale-drop"]
        assert len(evicted) == 1  # node 1's in-flight wave
        assert report.faults_recovered == 1

    def test_budget_free_eviction_does_not_charge_the_retry_budget(self, problem):
        # The evicted element is dispatched a second time and crashes
        # once. With ``max_retries=0`` one *charged* dispatch is allowed:
        # the eviction is exempt (``attempts - exempt`` on the master),
        # so the crash is survivable.
        evicted = next(
            ev.task_id
            for ev in sim(problem, **QUARANTINE_MID_WAVE).events
            if ev.kind == "stale-drop"
        )
        crash = FaultPlan([FaultRule("crash", evicted, 1)])
        report = sim(
            problem,
            **{
                **QUARANTINE_MID_WAVE,
                "max_retries": 0,
                "faults": replace(QUARANTINE_MID_WAVE["faults"], task=crash),
            },
        )
        assert report.faults_recovered == 2  # the eviction, then the crash

    def test_node_still_announcing_idle_is_not_blacklisted(self, problem):
        # Every node's first result is lost; the nodes themselves serve
        # on, so the timeouts are message loss, not worker death.
        plan = MessageFaultPlan(
            [MessageFaultRule("drop", direction="recv", message_type="BatchResult", index=0)]
        )
        report = sim(
            problem, faults=Faults(message=plan), blacklist_threshold=1, task_timeout=0.5
        )
        assert report.faults_recovered >= 1
        assert report.blacklisted_workers == ()

    def test_quarantining_every_node_is_an_attributed_abort(self, problem):
        liars = WorkerFaultPlan([WorkerFaultRule("liar", worker_id=None, after_tasks=0)])
        with pytest.raises(FaultToleranceExhausted, match="every worker quarantined"):
            sim(
                problem, integrity="audit", audit_fraction=1.0,
                quarantine_threshold=1, faults=Faults(worker=liars),
            )

    def test_dead_nodes_dispatch_redistributes_at_lease_expiry(self, problem):
        # Node 1 is handed the wave (1, 0), (0, 1); the first element
        # crashes, the second commits, and the node dies before it asks
        # again — with (1, 0) still registered to it. With heartbeats on,
        # that dispatch goes back on offer one lease (0.05 * 3
        # sim-seconds) later, not at the 60 s hard timeout.
        report = sim(
            problem,
            batch_wave=True,
            faults=Faults(
                task=FaultPlan([FaultRule("crash", (1, 0), 0)]),
                worker=WorkerFaultPlan([WorkerFaultRule("die", worker_id=1, after_tasks=1)]),
            ),
            heartbeat_interval=0.05,
            lease_factor=3.0,
            task_timeout=60.0,
        )
        assert kinds(report)["lease-expired"] == 1
        assert report.faults_recovered == 1
        assert report.makespan < 1.0

    def test_live_nodes_heartbeats_keep_leases_alive(self, problem):
        # A lease far shorter than one compute, on healthy nodes: the
        # beacons renew it and nothing is redistributed.
        quiet = sim(problem)
        report = sim(problem, heartbeat_interval=1e-4, lease_factor=2.0)
        assert kinds(report)["lease-expired"] == 0 and report.faults_recovered == 0
        assert report.makespan == quiet.makespan and report.messages == quiet.messages


# -- (2) cross-shell differential --------------------------------------------------------


DECISIONS = (
    "redistribute", "blacklist", "quarantine", "stale-drop", "vote-cast", "vote-divergence",
)
T, LAST = (0, 1), (2, 2)


def result_of(task):
    return dict(direction="recv", message_type="BatchResult", task_id=task)


#: name -> (RunConfig overrides built fresh per run, census keys compared).
PLANS = {
    # T's first result is held past its deadline and lands — stale — while
    # the run is still waiting out the lost first result of the last
    # block; worker 0 is a straggler throughout. Two timeouts, one stale
    # drop, nobody retired.
    "late+lost-result+straggler": (
        lambda: dict(
            faults=Faults(
                message=MessageFaultPlan(
                    [Once("delay", delay=0.9, **result_of(T)), Once("drop", **result_of(LAST))]
                ),
                worker=WorkerFaultPlan([WorkerFaultRule("slow", worker_id=0, factor=3.0)]),
            ),
        ),
        (*DECISIONS, "abort"),
    ),
    # Every result of T is lost: the retry budget runs out. The workers
    # keep announcing idle, so a blacklist threshold of one never fires.
    "lost-results-exhaust-budget": (
        lambda: dict(
            faults=Faults(message=MessageFaultPlan([MessageFaultRule("drop", **result_of(T))])),
            max_retries=1,
            blacklist_threshold=1,
        ),
        (*DECISIONS, "abort"),
    ),
    # Every worker lies. Both shells audit AUDIT_LAG commits late, but
    # which dispatches are live when a quarantine lands — so how much it
    # evicts and how many evicted results come back stale — depends on
    # thread timing on the master (it varies between reruns of the
    # threads run alone); who is retired and how the run ends does not.
    "all-liars": (
        lambda: dict(
            integrity="audit", audit_fraction=1.0, quarantine_threshold=1,
            faults=Faults(worker=WorkerFaultPlan(
                [WorkerFaultRule("liar", worker_id=None, after_tasks=0)]
            )),
        ),
        ("blacklist", "quarantine", "abort"),
    ),
    # Worker 1 lies under majority voting and is never quarantined: each
    # block is re-offered once for the other worker's ballot (a replica
    # dispatch), the split tally goes to the master's arbiter, and the
    # run completes. (With quarantine, how many tallies split before it
    # lands would be thread timing.)
    "liar-vote": (
        lambda: dict(
            integrity="vote",
            quarantine_threshold=100,
            faults=Faults(worker=WorkerFaultPlan(
                [WorkerFaultRule("liar", worker_id=1, after_tasks=0)]
            )),
        ),
        (*DECISIONS, "abort"),
    ),
    # T's result is delivered twice: the second copy lands behind the
    # first, finds the epoch settled and is dropped as stale.
    "duplicated-result": (
        lambda: dict(
            faults=Faults(message=MessageFaultPlan([Once("duplicate", **result_of(T))]))
        ),
        (*DECISIONS, "abort"),
    ),
}


def census(events, error):
    out = dict.fromkeys(DECISIONS, 0)
    out.update(Counter(ev.kind for ev in events if ev.kind in DECISIONS))
    out["abort"] = None if error is None else (type(error).__name__, str(error))
    return out


def run_threads_keeping_events(problem, config):
    """``run_threads`` with the recorder kept in hand, so an aborted
    run's event stream is still there to count."""
    asm = RunAssembly(config, problem)
    stop = threading.Event()
    channels, slaves = asm.inprocess_slaves(stop)
    master = asm.master(channels)
    threads = [threading.Thread(target=s.run, daemon=True) for s in slaves]
    for t in threads:
        t.start()
    error = None
    try:
        master.run()
    except FaultToleranceExhausted as exc:
        error = exc
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    return census(asm.recorder.events(), error)


def run_simulated_keeping_events(problem, config):
    run = _SimulatedRun(problem, config)
    error = None
    try:
        run.execute()
    except FaultToleranceExhausted as exc:
        error = exc
    return census(run.obs.events(), error)


@pytest.mark.parametrize("name", PLANS)
def test_threads_and_simulated_take_the_same_decisions(problem, name):
    overrides, compared = PLANS[name]
    base = dict(
        nodes=3, threads_per_node=1, process_partition=16, thread_partition=8,
        task_timeout=0.6, poll_interval=0.005, observe=True,
    )
    real = run_threads_keeping_events(
        problem, RunConfig(backend="threads", **base, **overrides())
    )
    model = run_simulated_keeping_events(
        problem, RunConfig(backend="simulated", **base, **overrides())
    )
    assert {k: real[k] for k in compared} == {k: model[k] for k in compared}
    assert any(real[k] for k in compared), "the plan injected nothing"
