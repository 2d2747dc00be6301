"""The landing step: results in, the shell's hooks called in order.

A fake shell logs every hook call, so each test reads the sequence the
step drove — no threads, no clock. The last test holds the two real
shells (threaded master, simulator) to the same audit lag.
"""

from __future__ import annotations

import pytest

from repro import EasyHPS, RunConfig
from repro.algorithms import EditDistance
from repro.dag.library import WavefrontPattern
from repro.integrity import IntegrityPolicy
from repro.obs.schedule import ScheduleTracer
from repro.runtime.dispatch import AUDIT_LAG, Abort, DispatchCore
from repro.runtime.landing import Accepted, Landing
from repro.runtime.offering import Offering
from repro.schedulers.policy import DynamicPolicy


class FakeShell:
    """Hooks that log what the step asked for. A result's payload is its
    digest: ``"bad"`` for a lie, ``"good"`` otherwise; a recompute is
    always good."""

    def __init__(self, pattern, integrity):
        self.core = DispatchCore(
            2, task_timeout=10.0, max_retries=1, retry_backoff=0.0,
            retry_backoff_max=0.0, blacklist_threshold=None, lease_duration=None,
            integrity=integrity, pattern=pattern,
        )
        self.log = []
        self.landing = Landing(
            self.core, DynamicPolicy(2), decide=lambda event, *args: event(*args),
            perform=self.perform, merge=self.merge, verdict=self.verdict,
            journal=self.journal,
        )
        #: Only asked who may take a re-offer.
        self.offering = Offering(
            self.core, DynamicPolicy(2), RunConfig(), ScheduleTracer(),
            pop=lambda worker, first: None, push=self.log.append,
        )

    def perform(self, actions):
        return not any(isinstance(a, Abort) for a in actions)

    def merge(self, res, released):
        self.log.append(("merge", res.task))

    def verdict(self, res, recompute):
        if recompute:
            self.log.append(("recompute", res.task))
            return None, "good"
        return res.payload, res.payload

    def journal(self, commits, revoked):
        self.log.append(("journal", tuple(r.task for r in commits), tuple(revoked)))

    def accept(self, task, worker=0, payload="good"):
        """Dispatch ``task`` and accept its result, as a shell does."""
        epoch = self.core.dispatch(task, worker, 0.0).epoch
        assert self.core.result(task, epoch, worker) == []
        return Accepted(task, epoch, worker, payload)


AUDIT_ALL = IntegrityPolicy("audit", audit_fraction=1.0, quarantine_threshold=2)
#: Commits between an audited commit and its audit, in audit order, on a
#: 16-block level: AUDIT_LAG each, until the commit that drains the level
#: forces the last AUDIT_LAG audits.
LAGS_16 = [AUDIT_LAG] * (16 - AUDIT_LAG) + list(range(AUDIT_LAG - 1, -1, -1))


def test_the_group_is_journaled_before_any_merge():
    shell = FakeShell(WavefrontPattern(3, 3), IntegrityPolicy("digest"))
    assert shell.landing.land([shell.accept((0, 0))])
    group = [shell.accept((0, 1)), shell.accept((1, 0), worker=1)]
    assert shell.landing.land(group)
    assert shell.log == [
        ("journal", ((0, 0),), ()), ("merge", (0, 0)),
        ("journal", ((0, 1), (1, 0)), ()), ("merge", (0, 1)), ("merge", (1, 0)),
    ]


def test_late_duplicates_are_dropped_before_the_journal():
    shell = FakeShell(WavefrontPattern(2, 2), IntegrityPolicy("digest"))
    first = shell.accept((0, 0))
    assert shell.landing.land([first])
    assert shell.landing.land([first])  # landed again: nothing happens
    assert shell.log == [("journal", ((0, 0),), ()), ("merge", (0, 0))]


@pytest.mark.parametrize("size", [1, 2, 4])
def test_the_audit_lag_does_not_depend_on_how_results_are_grouped(size):
    """A simulator lands an envelope, a master lands what finished
    together: either way each audit runs AUDIT_LAG commits after the
    commit it audits, and the commit that drains the level forces the
    rest."""
    shell = FakeShell(WavefrontPattern(4, 4), AUDIT_ALL)
    while shell.core.n_remaining:
        group = shell.core.frontier()[:size]
        assert shell.landing.land([shell.accept(t) for t in group])
    merged, lags = [], []
    for kind, task, *_ in shell.log:
        if kind == "merge":
            merged.append(task)
        elif kind == "recompute":
            lags.append(len(merged) - 1 - merged.index(task))
    assert lags == LAGS_16


def test_a_member_evicted_by_an_earlier_conviction_is_journaled_as_revoked():
    """(0, 0) lied. Committing (0, 2) makes its audit due; the conviction
    revokes everything built on (0, 0) — including the inputs of (2, 0),
    which was journaled with (0, 2) but has not merged: it is journaled
    as revoked and never merges."""
    shell = FakeShell(WavefrontPattern(3, 3), AUDIT_ALL)
    assert shell.landing.land([shell.accept((0, 0), payload="bad")])
    for task in [(0, 1), (1, 0), (1, 1)]:
        assert shell.landing.land([shell.accept(task)])
    assert not any(kind == "recompute" for kind, *_ in shell.log)
    shell.log.clear()
    assert shell.landing.land([shell.accept((0, 2)), shell.accept((2, 0), worker=1)])
    assert shell.log[:3] == [
        ("journal", ((0, 2), (2, 0)), ()), ("merge", (0, 2)), ("recompute", (0, 0)),
    ]
    closure = shell.log[3]
    assert closure[0] == "journal" and closure[1] == ()
    assert set(closure[2]) == {(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)}
    assert shell.log[4:] == [("journal", (), ((2, 0),))]
    assert (2, 0) not in shell.core.committed
    assert shell.core.stats.audits_convicted == 1


def test_a_vote_reoffer_skips_a_worker_that_already_voted():
    shell = FakeShell(WavefrontPattern(2, 2), IntegrityPolicy("vote", vote_k=2))
    assert shell.landing.land([shell.accept((0, 0), worker=0)])  # re-offered
    assert shell.log == []
    ready = [(0, 0)]
    assert shell.offering.select_index(0, ready) is None  # worker 0 voted
    assert shell.offering.select_index(1, ready) == 0
    assert shell.landing.land([shell.accept((0, 0), worker=1)])
    assert shell.log == [("journal", ((0, 0),), ()), ("merge", (0, 0))]
    assert shell.core.stats.votes_cast == 2


def test_a_block_convicted_twice_is_recomputed_by_another_worker():
    """Worker 1 lies on (0, 0) twice; each lie is convicted AUDIT_LAG
    commits later. After the first conviction it may recompute the block
    (the fault may have been transient), after the second it may not
    while worker 0 can (it is not quarantined yet)."""
    shell = FakeShell(
        WavefrontPattern(3, 3),
        IntegrityPolicy("audit", audit_fraction=1.0, quarantine_threshold=3),
    )

    def lie_then_convict():
        assert shell.landing.land([shell.accept((0, 0), worker=1, payload="bad")])
        for task in [(0, 1), (1, 0), (1, 1), (0, 2)]:
            assert shell.landing.land([shell.accept(task)])
        assert (0, 0) not in shell.core.committed

    lie_then_convict()
    assert shell.offering.select_index(1, [(0, 0)]) == 0
    lie_then_convict()
    assert shell.offering.select_index(1, [(0, 0)]) is None
    assert shell.offering.select_index(0, [(0, 0)]) == 0
    assert shell.core.stats.audits_convicted == 2
    assert not shell.core.is_retired(1)


def _audit_lags(events):
    commits, lags = [], []
    for ev in sorted(events, key=lambda e: e.seq):
        if ev.scope == "task" and ev.kind == "commit":
            commits.append(ev.task_id)
        elif ev.scope == "task" and ev.kind in ("audit-pass", "audit-convict"):
            lags.append(len(commits) - 1 - commits.index(ev.task_id))
    return lags


@pytest.mark.parametrize("backend", ["threads", "simulated"])
def test_both_shells_audit_with_the_same_lag(backend):
    problem = EditDistance.random(48, 48, seed=3)
    run = EasyHPS(RunConfig(
        backend=backend, nodes=3, threads_per_node=1, process_partition=12,
        thread_partition=12, integrity="audit", audit_fraction=1.0,
        task_timeout=30.0, observe=True,
    )).run(problem)
    assert _audit_lags(run.report.events) == LAGS_16
