"""Tests for the transfer/compute overlap (prefetch) extension."""

import pytest

from repro import RunConfig
from repro.algorithms import SmithWatermanGG
from repro.backends.simulated import run_simulated
from repro.cluster.faults import FaultPlan, FaultRule


@pytest.fixture(scope="module")
def problem():
    return SmithWatermanGG.random(3000, seed=1)


def run(problem, **kw):
    base = dict(process_partition=200, thread_partition=10)
    base.update(kw)
    cfg = RunConfig.experiment(4, 16, **base)
    return run_simulated(problem, cfg)[1]


class TestPrefetch:
    def test_never_slower(self, problem):
        plain = run(problem)
        pf = run(problem, prefetch=True)
        assert pf.makespan <= plain.makespan + 1e-9

    def test_helps_when_transfers_matter(self, problem):
        plain = run(problem)
        pf = run(problem, prefetch=True)
        # SWGG ships big prefixes; one-deep overlap must hide some of it.
        assert pf.makespan < plain.makespan * 0.99

    def test_all_tasks_still_execute_once(self, problem):
        rep = run(problem, prefetch=True)
        assert rep.n_tasks == 15 * 15
        assert sum(rep.tasks_per_worker.values()) == rep.n_tasks
        assert rep.faults_recovered == 0

    def test_deterministic(self, problem):
        a = run(problem, prefetch=True).makespan
        b = run(problem, prefetch=True).makespan
        assert a == b

    def test_trace_still_consistent(self, problem):
        rep = run(problem, prefetch=True, observe=True)
        assert len(rep.trace) == rep.n_tasks
        by_node = {}
        for e in rep.trace:
            by_node.setdefault(e.node, []).append((e.compute_start, e.compute_end))
        # Computes on one node stay serialized even with prefetch;
        # only the transfers overlap.
        for intervals in by_node.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-12

    def test_survives_faults(self, problem):
        plan = FaultPlan([FaultRule("crash", (0, 0), 0), FaultRule("hang", (1, 1), 0)])
        rep = run(problem, prefetch=True, fault_plan=plan, task_timeout=2.0)
        assert rep.faults_recovered >= 2
        assert rep.n_tasks == 15 * 15

    def test_prefetched_task_cancelled_by_timeout_is_not_lost(self, problem):
        """A task that times out while sitting prefetched on a stuck node
        must still complete elsewhere (via redistribution)."""
        # Hang the node long enough that its prefetched follow-up also
        # times out and gets redistributed.
        plan = FaultPlan([FaultRule("hang", (0, 0), 0)])
        rep = run(problem, prefetch=True, fault_plan=plan, task_timeout=0.5)
        assert rep.n_tasks == 15 * 15
        assert rep.faults_recovered >= 1
