"""The dispatch core, one decision per row: events in, actions out.

No threads, no sleeps, no channels — ``now`` is an argument. Each row is
``(name, core kwargs, steps)``; a step is ``(event-or-query, args,
expected)`` and ``expected`` is compared to what the call returned (see
:func:`_matches`). The unit tests that used to drive ``RegisterTable`` /
``OvertimeQueue`` / ``LeaseTable`` and the master's blacklist policy keep
their ids in their old files and run the row named after them
(:func:`run_row`).
"""

from __future__ import annotations

import pytest

from repro.dag.library import WavefrontPattern
from repro.integrity import IntegrityPolicy, fold_commit, run_digest_hex
from repro.runtime.dispatch import (
    AUDIT_LAG,
    Abort,
    Arbitrate,
    Decide,
    DispatchCore,
    Invalidate,
    Record,
    Requeue,
    Retire,
    Stale,
)
from repro.utils.errors import FaultToleranceExhausted, SchedulerError

A, B, C, D = (0, 0), (0, 1), (1, 0), (1, 1)


class ABORT:
    """Expected: an attributed abort whose message contains ``fragment``."""

    def __init__(self, fragment: str) -> None:
        self.fragment = fragment


class RAISES:
    def __init__(self, exc: type) -> None:
        self.exc = exc


def EPOCH(worker: int, epoch: int, deadline: float, lease: float = float("inf")):
    """Expected: a Registration with these fields."""
    return lambda reg: (reg.worker_id, reg.epoch, reg.deadline, reg.lease_expires) == (
        worker, epoch, deadline, lease,
    )


def _matches(got, expected) -> bool:
    if isinstance(expected, ABORT):
        return (
            isinstance(got, Abort)
            and isinstance(got.exc, FaultToleranceExhausted)
            and expected.fragment in str(got.exc)
        )
    if isinstance(expected, list):
        return (
            isinstance(got, list)
            and len(got) == len(expected)
            and all(_matches(g, e) for g, e in zip(got, expected))
        )
    if callable(expected) and not isinstance(expected, tuple):
        return bool(expected(got))
    return got == expected


BUDGET = dict(task_timeout=10.0, max_retries=1)
WAVE = WavefrontPattern(3, 3)
#: Holds the far row ``(9, i)`` the audit-lag row commits ahead of its inputs.
LAG = WavefrontPattern(10, AUDIT_LAG)
AUDIT = IntegrityPolicy("audit", audit_fraction=1.0, quarantine_threshold=2)
VOTE = IntegrityPolicy("vote", vote_k=2, quarantine_threshold=1)

ROWS = [
    # -- the register table (Fig 9 step h) ----------------------------------------
    ("register-finish-cycle", BUDGET, [
        ("dispatch", (A, 2, 0.0), EPOCH(2, 0, 10.0)),
        ("is_live", (A,), True),
        ("is_live", (A, 0), True),
        ("result", (A, 0, 2), []),
        ("is_live", (A,), False),
    ]),
    ("epochs-count-dispatches", BUDGET, [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 10.0)),
        ("deadline", (A, 0, 10.0), [Requeue(A)]),
        ("dispatch", (A, 1, 11.0), EPOCH(1, 1, 21.0)),
        ("attempts", (A,), 2),
    ]),
    ("stale-epoch", BUDGET, [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 10.0)),
        ("deadline", (A, 0, 10.0), [Requeue(A)]),
        ("dispatch", (A, 1, 10.0), EPOCH(1, 1, 20.0)),
        ("result", (A, 0, 0), [Stale(A, 0, 0)]),  # the timed-out worker's late result
        ("is_live", (A, 1), True),
        ("result", (A, 1, 1), []),
        ("result", (A, 1, 1), [Stale(A, 1, 1)]),  # a duplicated copy
        ("stats", "stale_results", 2),
    ]),
    ("double-register", BUDGET, [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 10.0)),
        ("dispatch", (A, 1, 0.0), RAISES(SchedulerError)),
    ]),
    ("unknown-result", BUDGET, [
        ("result", ((9, 9), 0, 0), [Stale((9, 9), 0, 0)]),
        ("attempts", ((9, 9),), 0),
    ]),
    # -- the overtime watch (Fig 10) ----------------------------------------------
    ("deadline-respects-time", BUDGET, [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 10.0)),
        ("dispatch", (B, 1, -5.0), EPOCH(1, 0, 5.0)),
        ("tick", (4.0,), []),
        ("deadline", (B, 0, 4.0), []),  # a check that fired early decides nothing
        ("tick", (7.0,), [Requeue(B)]),
        ("n_live", None, 1),
        ("live", (A,), EPOCH(0, 0, 10.0)),
    ]),
    ("tick-fires-every-overdue", BUDGET, [
        ("dispatch", ((3, 0), 0, -7.0), EPOCH(0, 0, 3.0)),
        ("dispatch", ((1, 0), 1, -9.0), EPOCH(1, 0, 1.0)),
        ("dispatch", ((2, 0), 2, -8.0), EPOCH(2, 0, 2.0)),
        ("tick", (5.0,), lambda out: sorted(out) == [
            Requeue((1, 0)), Requeue((2, 0)), Requeue((3, 0))]),
        ("n_live", None, 0),
    ]),
    ("tick-empty", BUDGET, [
        ("tick", (100.0,), []),
        ("deadline", (A, 0, 100.0), []),
        ("n_live", None, 0),
    ]),
    # -- retry budget, backoff ----------------------------------------------------
    ("budget-charged", BUDGET, [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 10.0)),
        ("deadline", (A, 0, 10.0), [Requeue(A)]),
        ("dispatch", (A, 0, 10.0), EPOCH(0, 1, 20.0)),
        ("deadline", (A, 1, 20.0), [Requeue(A)]),
        ("dispatch", (A, 0, 20.0), EPOCH(0, 2, 30.0)),
        # max_retries + 1 = 2 budgeted dispatches; this is the third.
        ("deadline", (A, 2, 30.0), [ABORT("sub-task (0, 0) failed 3 budgeted dispatches")]),
        ("stats", "faults_recovered", 2),
    ]),
    ("budget-exempt-eviction", BUDGET, [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 10.0)),
        ("deadline", (A, 0, 10.0), [Requeue(A)]),
        ("dispatch", (A, 1, 10.0), EPOCH(1, 1, 20.0)),
        # The worker leaves holding it: budget-free, the task did nothing wrong.
        ("worker_left", (1,), [Retire(1, "worker-leave"), Requeue(A)]),
        ("dispatch", (A, 0, 12.0), EPOCH(0, 2, 22.0)),
        ("deadline", (A, 2, 22.0), [Requeue(A)]),  # 3 dispatches, 2 charged
        ("dispatch", (A, 0, 22.0), EPOCH(0, 3, 32.0)),
        ("deadline", (A, 3, 32.0), [ABORT("failed 3 budgeted dispatches")]),
    ]),
    ("backoff-doubles-to-cap", dict(task_timeout=1.0, max_retries=9,
                                    retry_backoff=0.5, retry_backoff_max=1.2), [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 1.0)),
        ("deadline", (A, 0, 1.0), [Requeue(A, 0.5)]),
        ("dispatch", (A, 0, 2.0), EPOCH(0, 1, 3.0)),
        ("deadline", (A, 1, 3.0), [Requeue(A, 1.0)]),
        ("dispatch", (A, 0, 4.0), EPOCH(0, 2, 5.0)),
        ("deadline", (A, 2, 5.0), [Requeue(A, 1.2)]),
    ]),
    ("digest-reject-charged-no-backoff", dict(task_timeout=1.0, max_retries=0,
                                               retry_backoff=0.5), [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 1.0)),
        ("digest_reject", (A, 0, 0), [Requeue(A)]),
        ("digest_reject", (A, 0, 0), []),  # the duplicate of a rejected payload
        ("dispatch", (A, 0, 0.1), EPOCH(0, 1, 1.1)),
        ("digest_reject", (A, 1, 0), [ABORT("rejected for digest mismatch on 2 budgeted")]),
        ("stats", "digest_rejects", 3),
    ]),
    # -- worker standing: blacklist ---------------------------------------------------
    ("blacklist-below-threshold", dict(task_timeout=0.3, max_retries=9,
                                       blacklist_threshold=3), [
        ("dispatch", (A, 0, 99.0), EPOCH(0, 0, 99.3)),
        ("deadline", (A, 0, 100.0), [Requeue(A)]),
        ("dispatch", (A, 0, 100.0), EPOCH(0, 1, 100.3)),
        ("deadline", (A, 1, 101.0), [Requeue(A)]),
        ("stats", "blacklisted_workers", []),
    ]),
    ("blacklist-evicts-exempt", dict(task_timeout=0.3, max_retries=9,
                                     blacklist_threshold=2), [
        ("dispatch", (A, 0, 99.0), EPOCH(0, 0, 99.3)),
        ("dispatch", (B, 0, 99.0), EPOCH(0, 0, 99.3)),
        ("dispatch", (C, 0, 99.5), EPOCH(0, 0, 99.8)),
        ("deadline", (A, 0, 99.4), [Requeue(A)]),
        # Second failure: worker 0 retires and the dispatch it still holds
        # is cancelled budget-free and re-offered.
        ("deadline", (B, 0, 99.4), [Retire(0, "blacklist"), Requeue(C), Requeue(B)]),
        ("stats", "blacklisted_workers", [0]),
        ("is_live", (C,), False),
        ("is_retired", (0,), True),
        ("dispatch", (C, 0, 100.0), None),  # no-commit-after-blacklist
        ("stats", "faults_recovered", 3),
        ("result", (C, 0, 0), [Stale(C, 0, 0)]),  # its late reply hits a stale epoch
    ]),
    ("blacklist-last-heard-veto", dict(task_timeout=0.3, max_retries=9,
                                       blacklist_threshold=2), [
        ("heard_from", (0, 99.9), None),
        ("dispatch", (A, 0, 99.0), EPOCH(0, 0, 99.3)),
        ("deadline", (A, 0, 100.0), [Requeue(A)]),
        ("dispatch", (A, 0, 99.0), EPOCH(0, 1, 99.3)),
        # Heard 0.1 s ago: alive, its timeouts are message loss.
        ("deadline", (A, 1, 100.0), [Requeue(A)]),
        ("stats", "blacklisted_workers", []),
        ("dispatch", (A, 0, 100.0), EPOCH(0, 2, 100.3)),
        # Silent past the window: the next failure retires it.
        ("deadline", (A, 2, 101.0), [Retire(0, "blacklist"), Requeue(A)]),
    ]),
    ("blacklist-degradation-floor", dict(task_timeout=1.0, max_retries=9,
                                         blacklist_threshold=1, n_workers=2), [
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 1.0)),
        ("deadline", (A, 0, 1.0), [Retire(0, "blacklist"), Requeue(A)]),
        ("dispatch", (A, 1, 1.0), EPOCH(1, 1, 2.0)),
        ("deadline", (A, 1, 2.0), [Requeue(A)]),  # worker 1 survives, come what may
        ("dispatch", (A, 1, 2.0), EPOCH(1, 2, 3.0)),
        ("deadline", (A, 2, 3.0), [Requeue(A)]),
        ("stats", "blacklisted_workers", [0]),
    ]),
    ("blacklist-disabled", dict(task_timeout=1.0, max_retries=99), [
        *[
            step
            for i in range(10)
            for step in (
                ("dispatch", (A, 0, float(i)), EPOCH(0, i, i + 1.0)),
                ("deadline", (A, i, i + 1.0), [Requeue(A)]),
            )
        ],
        ("stats", "blacklisted_workers", []),
        ("is_retired", (0,), False),
    ]),
    # -- worker standing: leases ------------------------------------------------------
    ("lease-grant-and-expire", dict(task_timeout=60.0, max_retries=9, lease_duration=2.0), [
        ("dispatch", (A, 1, 10.0), EPOCH(1, 0, 70.0, 12.0)),
        ("tick", (11.0,), []),
        ("lease_expired", (A, 0, 11.0), []),
        ("tick", (12.5,), [Requeue(A)]),
        ("n_live", None, 0),
        ("stats", "lease_expirations", 1),
    ]),
    ("lease-renewed-by-any-message", dict(task_timeout=60.0, max_retries=9,
                                          lease_duration=1.0), [
        ("dispatch", (A, 1, 0.0), EPOCH(1, 0, 60.0, 1.0)),
        ("dispatch", (B, 1, 0.0), EPOCH(1, 0, 60.0, 1.0)),
        ("dispatch", ((0, 2), 2, 0.0), EPOCH(2, 0, 60.0, 1.0)),
        ("heard_from", (1, 0.9), None),  # renews every lease worker 1 holds
        ("tick", (1.5,), [Requeue((0, 2))]),  # only worker 2's lease lapsed
        ("tick", (2.0,), [Requeue(A), Requeue(B)]),
    ]),
    ("lease-settles-with-its-epoch", dict(task_timeout=60.0, max_retries=9,
                                          lease_duration=1.0), [
        ("dispatch", (A, 1, 0.0), EPOCH(1, 0, 60.0, 1.0)),
        ("lease_expired", (A, 7, 5.0), []),  # stale epoch: not this dispatch's lease
        ("is_live", (A, 0), True),
        ("result", (A, 0, 1), []),
        ("lease_expired", (A, 0, 5.0), []),  # settled: nothing left to expire
    ]),
    ("lease-unknown-task", dict(task_timeout=60.0, max_retries=9, lease_duration=1.0), [
        ("lease_expired", ((9, 9), 0, 5.0), []),
        ("heard_from", (3, 5.0), None),
    ]),
    ("lease-regrant-replaces", dict(task_timeout=60.0, max_retries=9, lease_duration=1.0), [
        ("dispatch", (A, 1, 0.0), EPOCH(1, 0, 60.0, 1.0)),
        ("lease_expired", (A, 0, 1.0), [Requeue(A)]),
        ("dispatch", (A, 2, 5.0), EPOCH(2, 1, 65.0, 6.0)),
        ("lease_expired", (A, 0, 10.0), []),  # the old grant is gone
        ("lease_expired", (A, 1, 10.0), [Requeue(A)]),
    ]),
    ("no-lease-without-heartbeats", BUDGET, [
        ("dispatch", (A, 1, 0.0), EPOCH(1, 0, 10.0)),
        ("lease_expired", (A, 0, 1e9), []),
    ]),
    # -- worker standing: quarantine ---------------------------------------------------
    ("quarantine-threshold-then-all", dict(task_timeout=10.0, max_retries=9,
                                           integrity=AUDIT, n_workers=2), [
        ("convict", (-1,), []),  # the shell's own recompute is never convicted
        ("convict", (0,), []),
        ("dispatch", (A, 0, 0.0), EPOCH(0, 0, 10.0)),
        ("convict", (0,), [Retire(0, "quarantine"), Requeue(A)]),
        ("convict", (0,), []),
        ("convict", (1,), []),
        # No degradation floor: a lying last worker is worse than an abort.
        ("convict", (1,), [Retire(1, "quarantine"), ABORT("every worker quarantined")]),
        ("stats", "quarantined_workers", [0, 1]),
        ("stats", "faults_recovered", 1),
    ]),
    # -- commit ledger: votes ------------------------------------------------------------
    ("vote-majority", dict(task_timeout=10.0, max_retries=0, integrity=VOTE), [
        ("vote", (A, 0, 2, "d1", [0, 1, 2]), [Requeue(A)]),  # one more voter, exempt
        ("vote", (A, 1, 0, "d1", [0, 1, 2]), [Decide(A, 1, 0, "d1")]),
        ("stats", "votes_cast", 2),
        ("stats", "vote_divergences", 0),
    ]),
    ("vote-escalation-convicts-loser", dict(task_timeout=10.0, max_retries=0,
                                            integrity=VOTE), [
        ("vote", (A, 0, 0, "good", [0, 1, 2]), [Requeue(A)]),
        ("vote", (A, 1, 1, "bad", [0, 1, 2]), [Requeue(A)]),  # 1:1, escalate to 3
        ("stats", "vote_divergences", 1),
        ("dispatch", (B, 1, 0.0), EPOCH(1, 0, 10.0)),
        ("vote", (A, 2, 2, "good", [0, 1, 2]),
         [Retire(1, "quarantine"), Requeue(B), Decide(A, 0, 0, "good")]),
    ]),
    ("vote-arbiter", dict(task_timeout=10.0, max_retries=0, integrity=VOTE), [
        # A static policy pins the task to one owner: no fresh voter ever.
        ("vote", (A, 0, 0, "x", [0]), [Arbitrate(A, 0)]),
        # 1:1 against the shell's own recompute: the arbiter is ground truth.
        ("vote", (A, 0, -1, "y", [0]), [Retire(0, "quarantine"), Decide(A, 0, -1, "y")]),
        ("vote", (B, 0, 1, "x", [1]), [Arbitrate(B, 0)]),
        ("vote", (B, 0, -1, "x", [1]), [Decide(B, 0, -1, "x")]),
        ("stats", "quarantined_workers", [0]),
    ]),
    ("vote-arbiter-breaks-three-way-split", dict(task_timeout=10.0, max_retries=0,
                                                 integrity=IntegrityPolicy("vote", vote_k=2,
                                                                           quarantine_threshold=9)), [
        ("vote", (A, 0, 0, "x", [0, 1]), [Requeue(A)]),
        ("vote", (A, 1, 1, "y", [0, 1]), [Arbitrate(A, 1)]),
        ("vote", (A, 1, -1, "z", [0, 1]), [Decide(A, 1, -1, "z")]),  # every voter lied
    ]),
    ("vote-skips-retired-candidates", dict(task_timeout=10.0, max_retries=0, integrity=VOTE), [
        ("worker_left", (1,), [Retire(1, "worker-leave")]),
        ("vote", (A, 0, 0, "x", [0, 1]), [Arbitrate(A, 0)]),
    ]),
    # -- commit ledger: audits, taint ------------------------------------------------------
    ("audit-lag", dict(task_timeout=10.0, max_retries=0, integrity=AUDIT, pattern=LAG), [
        ("commit", (A, 0, 1), ([B, C], True)),
        ("next_audit", (False,), None),
        *[("commit", ((9, i), 0, 1), ([], True)) for i in range(AUDIT_LAG)],
        ("next_audit", (False,), (A, 0, 1)),
        ("next_audit", (False,), None),  # (9, 0) is only AUDIT_LAG - 1 commits old
        ("next_audit", (True,), ((9, 0), 0, 1)),  # forced at end of run
        ("audit", ((9, 0), 0, 1, True), []),
        ("stats", "audits_passed", 1),
        ("audits_pending", None, True),
    ]),
    ("twice-convicted-block-reoffered-to-others", dict(task_timeout=10.0, max_retries=0,
                                                       integrity=AUDIT, pattern=WAVE), [
        ("commit", (A, 0, 1), ([B, C], True)),
        ("reoffering", None, False),
        ("audit", (A, 0, 1, False), lambda out: isinstance(out[-1], Invalidate)),
        # Once may be transient: worker 1 may recompute the block.
        ("passed_over", (A,), set()),
        ("reoffering", None, True),
        ("commit", (A, 1, 1), ([B, C], True)),
        ("audit", (A, 1, 1, False), lambda out: isinstance(out[-1], Retire)),
        # Twice: the recompute is not for worker 1 while another can take it.
        ("passed_over", (A,), {1}),
        ("commit", (A, 2, 0), ([B, C], True)),
        ("passed_over", (A,), {1}),
    ]),
    ("audit-convict-taints-and-convicts", dict(task_timeout=10.0, max_retries=0,
                                               integrity=AUDIT, pattern=WAVE,
                                               fold_digests=True), [
        ("commit", (A, 0, 1, "da"), ([B, C], True)),
        ("commit", (B, 0, 1, "db"), ([(0, 2)], True)),
        ("commit", (C, 0, 0, "dc"), ([D, (2, 0)], True)),
        ("commit", (D, 0, 1, "dd"), ([], True)),
        ("dispatch", ((0, 2), 0, 0.0), EPOCH(0, 0, 10.0)),  # built on B
        ("dispatch", ((2, 0), 1, 0.0), EPOCH(1, 0, 10.0)),  # built on C only
        ("vote", ((0, 2), 0, 0, "v", [0, 1, 2]), lambda out: True),
        ("audit", (B, 0, 1, False),
         # Closure B -> D; (0, 2) dropped; B alone is computable again.
         [Invalidate((B, D), (((0, 2), 0),), (B,))]),
        ("committed", None, {A: 0, C: 0}),
        ("is_live", ((0, 2),), False),
        ("is_live", ((2, 0),), True),
        ("inputs_committed", (D,), False),  # a buffered result for it is purged
        # ... and if a shell had already taken it off offer, it stays undispatched.
        ("dispatch", ((1, 2), 0, 0.5), None),
        ("is_retired", (0,), False),
        ("attempts", ((1, 2),), 0),
        ("inputs_committed", ((2, 0),), True),
        ("run_digest", None,
         run_digest_hex(fold_commit(fold_commit(0, A, "da"), C, "dc"))),
        ("commit_digests", None, {A: "da", C: "dc"}),
        ("stats", "tainted_recomputes", 2),
        ("stats", "audits_convicted", 1),
        # The audits of the revoked commits are skipped.
        ("next_audit", (True,), (A, 0, 1)),
        ("next_audit", (True,), (C, 0, 0)),
        ("next_audit", (True,), None),
        # Once B recommits, (0, 2) goes out again: its cancel was
        # budget-free and its half-gathered vote forgotten.
        ("commit", (B, 1, 2, "db'"), ([(0, 2), D], True)),
        ("dispatch", ((0, 2), 0, 1.0), EPOCH(0, 1, 11.0)),
        ("deadline", ((0, 2), 1, 11.0), [Requeue((0, 2))]),
        ("vote", ((0, 2), 2, 0, "v", [0]), [Arbitrate((0, 2), 2)]),
    ]),
    # -- resume ------------------------------------------------------------------------
    ("resume-priming", dict(task_timeout=10.0, max_retries=1, fold_digests=True,
                            pattern=WAVE, attempts={A: 3, B: 1}, committed={A: 2},
                            run_digest=run_digest_hex(fold_commit(0, A, "da")),
                            commit_digests={A: "da"}), [
        ("attempts_snapshot", (), {A: 3, B: 1}),
        ("frontier", (), [B, C]),
        ("n_remaining", None, 8),
        ("commit", (A, 3, 1), RAISES(SchedulerError)),  # journaled: never twice
        # Epochs keep counting: any post-resume dispatch outpaces a result
        # a surviving slave still holds.
        ("dispatch", (A, 1, 0.0), EPOCH(1, 3, 10.0)),
        ("dispatch", (B, 0, 0.0), EPOCH(0, 1, 10.0)),
        ("attempts_snapshot", (), {A: 4, B: 2}),
        ("inputs_committed", (B,), True),
        ("inputs_committed", (D,), False),
        ("commit", (B, 1, 0, "db"), ([(0, 2)], False)),
        ("run_digest", None, run_digest_hex(fold_commit(fold_commit(0, A, "da"), B, "db"))),
    ]),
]


def _step(core: DispatchCore, event, args, expected) -> None:
    if event == "stats":
        got = getattr(core.stats, args)
    else:
        target = getattr(core, event)
        if args is None:
            got = target  # a property / attribute
        elif isinstance(expected, RAISES):
            with pytest.raises(expected.exc):
                target(*args)
            return
        else:
            got = target(*args)
    assert _matches(got, expected), f"{event}{args} -> {got!r}"


def bare_core(n_workers: int, **kwargs) -> DispatchCore:
    """A core with every knob a row does not name switched off — the core
    itself has no defaults (``RunConfig`` declares them)."""
    bare = dict(
        retry_backoff=0.0, retry_backoff_max=2.0, blacklist_threshold=None, lease_duration=None
    )
    return DispatchCore(n_workers, **{**bare, **kwargs})


def run_row(name: str) -> None:
    (row,) = [r for r in ROWS if r[0] == name]
    _, kwargs, steps = row
    kwargs = dict(kwargs)
    core = bare_core(kwargs.pop("n_workers", 3), **kwargs)
    for event, args, expected in steps:
        _step(core, event, args, expected)


@pytest.mark.parametrize("name", [r[0] for r in ROWS])
def test_row(name):
    run_row(name)


def test_row_names_unique():
    names = [r[0] for r in ROWS]
    assert len(names) == len(set(names))


def test_records_only_when_recording():
    """``recording`` adds the telemetry / happens-before events, in
    decision order, and changes nothing else."""
    kw = dict(task_timeout=1.0, max_retries=9, retry_backoff=0.25, blacklist_threshold=1)
    outs = []
    for recording in (False, True):
        core = bare_core(2, recording=recording, **kw)
        core.dispatch(A, 0, 0.0)
        core.dispatch(B, 0, 0.0)
        outs.append(core.deadline(A, 0, 1.0) + core.result(B, 0, 0))
    quiet, loud = outs
    assert quiet == [Retire(0, "blacklist"), Requeue(B), Requeue(A, 0.25), Stale(B, 0, 0)]
    assert [a for a in loud if not isinstance(a, Record)] == quiet
    assert [(a.kind, a.task, a.epoch, a.worker, a.data) for a in loud if isinstance(a, Record)] == [
        ("blacklist", None, -1, 0, {"failures": 1}),
        ("redistribute", B, 0, -1, {}),
        ("redistribute", A, 0, -1, {}),
        ("backoff", A, 0, -1, {"delay": 0.25}),
    ]


def test_fingerprint_is_clock_shift_invariant():
    """Two ledgers that differ only by when the run started decide
    identically, so they fingerprint identically; any event that can
    change a future decision changes the fingerprint."""

    def play(t0: float) -> DispatchCore:
        core = bare_core(
            2, task_timeout=5.0, max_retries=1, blacklist_threshold=2, lease_duration=1.0
        )
        core.heard_from(0, t0)
        core.dispatch(A, 0, t0)
        core.dispatch(B, 1, t0 + 0.5)
        core.deadline(A, 0, t0 + 5.0)
        return core

    a, b = play(0.0), play(1000.0)
    assert a.fingerprint(5.0) == b.fingerprint(1005.0)
    assert a.fingerprint(5.0) != a.fingerprint(5.5)  # B's deadline drew nearer
    before = b.fingerprint(1005.0)
    b.heard_from(1, 1005.0)  # renews B's lease
    assert b.fingerprint(1005.0) != before
