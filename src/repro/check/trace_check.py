"""Replay of a recorded run into the dispatch core it ran on.

The master/slave protocol promises (paper Figs 9-10): a sub-task is
*assigned* only after every data dependency's result was *committed* to
master state; each sub-task's result is committed exactly once; results
from cancelled (timed-out) dispatches are dropped, never committed. Every
one of those decisions is taken by
:class:`~repro.runtime.dispatch.DispatchCore`, so this module keeps no
ledger of its own: :func:`check_trace` feeds a run's recorded ledger
events, in ``seq`` order, into a fresh core and reports every point where
the stream and the core disagree.

Events are :class:`~repro.obs.recorder.ObsEvent` records (or any
stand-in carrying ``kind, task_id, epoch, worker, seq`` and optionally
``node`` / ``scope``); kinds outside :data:`LEDGER_KINDS` are ignored.
``seq`` is a per-recorder monotone counter assigned under the recorder's
lock; because every producer records *inside* the runtime's own critical
sections (the master under ``master.core``), the ``seq`` order is the
order the core took its decisions in — which is what makes replaying it
sound.

The same replay judges every recorded run: a ``verify`` run's own
recorder (:class:`~repro.obs.schedule.ScheduleTracer`), each explorer
interleaving, each surviving chaos-campaign run and ``repro check
--protocol``. Enable it end to end with ``RunConfig(verify=True)`` or
``REPRO_VERIFY=1``.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.check import diagnostics as D
from repro.check.diagnostics import CheckReport
from repro.dag.pattern import DAGPattern

if TYPE_CHECKING:
    # Type-only: importing repro.comm at runtime would cycle through
    # repro.obs right back into this module when ``repro.check`` is the
    # first package imported. For the same reason the replay imports
    # ``repro.runtime.dispatch`` lazily, inside :func:`check_trace`.
    from repro.comm.messages import TaskId

#: Worker retirements the core decides (``DispatchCore.retire``).
RETIRE_KINDS = ("blacklist", "quarantine", "worker-leave")
#: The record kinds that describe the dispatch ledger — one tuple, shared:
#: what a verifying run's trace recorder collects, what
#: :func:`check_trace` replays, and what the explorer's reach census
#: counts. ``backoff`` and ``resume`` are carried for the census only.
LEDGER_KINDS = (
    "assign", "result", "stale-drop", "commit", "redistribute",
    "digest-reject", "lease-expired", "backoff", *RETIRE_KINDS,
    "taint-invalidate", "worker-death", "resume",
)
#: Kinds a slave also announces on its own lane (``node >= 0``) when it
#: leaves, dies or refuses a corrupt assignment; the master has decided
#: nothing at that point, so the replay feeds only the master's records.
_ANNOUNCED = (*RETIRE_KINDS, "digest-reject", "worker-death")


def check_trace(
    events: Iterable[Any],
    pattern: DAGPattern,
    *,
    require_complete: bool = True,
    journaled: Optional[Dict[TaskId, int]] = None,
    verified: Optional[int] = None,
    scope: str = "task",
    title: str = "trace-check",
) -> CheckReport:
    """Replay a recorded run into a fresh ``DispatchCore`` and report
    where the two disagree.

    The core is configured neutrally — no timeout, budget, blacklist or
    lease of its own, so it decides only what the stream feeds it — with
    ``attempts`` primed from each task's first recorded epoch and
    ``committed`` from ``journaled``, the prefix a resumed run started
    from. This function is one more shell around it: ``accepted`` is its
    result buffer, ``owed`` the records the core decided that the stream
    has yet to show. Only events of ``scope`` are fed (events without one
    count as ``task``): a slave pool replays its own thread-level trace
    with ``scope="subtask"``.

    ``protocol-illegal-transition`` (all ``error`` severity) is any
    disagreement: the core refuses the dispatch (to a worker it retired,
    say) or hands out another epoch, calls a recorded ``result`` stale or
    a ``stale-drop`` live, finds a ``redistribute`` / ``lease-expired``
    of something not live or a ``taint-invalidate`` of something not
    committed, or — with ``require_complete`` — decided an
    eviction or a taint closure the run never recorded. The
    happens-before rules are queries on the same core:

    - ``early-assign``     — a task dispatched before its inputs were
      committed (the race that corrupts cells);
    - ``early-commit``     — a result committed before a predecessor's;
    - ``duplicate-commit`` — a second commit with no invalidation between
      (fault-tolerance race: two epochs both landed);
    - ``stale-commit``     — a commit from an epoch fault tolerance had
      already cancelled, e.g. one a blacklist or quarantine evicted
      (a result the core accepted *before* the retirement stays good);
    - ``protocol-commit-without-verify`` — a commit from an epoch a
      ``digest-reject`` refused;
    - ``lost-update``      — with ``require_complete``, a task of the
      pattern that was never committed (or never even assigned): also
      every fault never followed by a re-assign and every taint never
      recomputed. A run that aborted cleanly passes
      ``require_complete=False``;
    - ``commit-without-verify`` — with ``verified`` (the run's
      ``integrity.digests_verified`` counter), more distinct worker
      commits than receive-side digest checks. A worker commit is one of
      an epoch the replay accepted from a worker; a commit the master
      made of its own (never dispatched) is not wire traffic;
    - ``unknown-task``     — an event naming a vertex outside the pattern.
    """
    from repro.runtime.dispatch import DispatchCore, Invalidate, Record
    from repro.utils.errors import SchedulerError

    report = CheckReport(title=title)
    stream = sorted(
        (
            e for e in events
            if e.kind in LEDGER_KINDS and getattr(e, "scope", "task") == scope
        ),
        key=lambda e: e.seq,
    )
    core = DispatchCore(
        0,
        task_timeout=math.inf,
        max_retries=sys.maxsize,
        retry_backoff=0.0,
        retry_backoff_max=0.0,
        blacklist_threshold=None,
        lease_duration=None,
        pattern=pattern,
        recording=True,
        # Reversed, so each task's *first* recorded epoch is what stays.
        attempts={e.task_id: e.epoch for e in reversed(stream) if e.kind == "assign"},
        committed=journaled,
    )
    accepted: Set[Tuple[TaskId, int]] = set()
    #: Epochs a digest-reject refused (only to name a commit of one).
    rejected: Set[Tuple[TaskId, int]] = set()
    #: Nodes the simulator's shell took out of service (``worker-death``).
    dead: Set[int] = set()
    #: Distinct ``(task, epoch)`` commits of a worker-delivered result.
    worker_commits: Set[Tuple[TaskId, int]] = set()
    owed: List[Tuple[str, Any, int]] = []

    def flag(ev: Any, what: str, code: str = D.PROTOCOL_ILLEGAL_TRANSITION) -> None:
        report.add(code, f"{what}: {ev}", repr(ev.task_id))

    def perform(ev: Any, actions: List[Any]) -> None:
        """What every shell does with the core's answer, as far as the
        stream can show it: the records are owed (all but the echo of
        ``ev`` itself), and an invalidation purges buffered results."""
        for act in actions:
            if isinstance(act, Record) and (act.kind, act.task) != (ev.kind, ev.task_id):
                owed.append((act.kind, act.task, act.epoch))
            elif isinstance(act, Invalidate):
                accepted.intersection_update(
                    [k for k in accepted if core.inputs_committed(k[0])]
                )

    for ev in stream:
        report.checked += 1
        kind, task, epoch, worker = ev.kind, ev.task_id, ev.epoch, ev.worker
        if kind in _ANNOUNCED and getattr(ev, "node", -1) != -1:
            if kind == "worker-death" and task is None:
                dead.add(worker)
            continue
        if kind in RETIRE_KINDS:
            out: List[Any] = []
            core.retire(worker, kind, out)
            perform(ev, out)
            continue
        if task is None or kind in ("backoff", "resume"):
            continue
        if not pattern.contains(task):
            flag(ev, "event names a vertex outside the pattern", D.UNKNOWN_TASK)
            continue
        if (kind, task, epoch) in owed:
            owed.remove((kind, task, epoch))
        elif kind == "assign":
            early = not core.inputs_committed(task)
            if early:
                flag(ev, "assigned before its inputs committed", D.EARLY_ASSIGN)
            try:
                reg = None if worker in dead else core.dispatch(task, worker, 0.0)
            except SchedulerError as exc:
                flag(ev, f"dispatched while still registered ({exc})")
                continue
            if reg is None:
                if not early:
                    flag(ev, "assigned to a worker the core had retired")
            elif reg.epoch != epoch:
                flag(ev, f"the core hands out epoch {reg.epoch} here")
        elif kind in ("result", "stale-drop"):
            live = not core.result(task, epoch, worker)
            if live:
                accepted.add((task, epoch))
            if live != (kind == "result"):
                flag(ev, "the core calls this epoch " + ("live" if live else "stale"))
        elif kind == "commit":
            if task in core.committed:
                flag(ev, "second commit with no invalidation between", D.DUPLICATE_COMMIT)
                continue
            if core.is_live(task, epoch):
                # A shell that commits on arrival (simulator, slave pool,
                # verify-only master) records no separate ``result``.
                core.result(task, epoch, worker)
                accepted.add((task, epoch))
            if (task, epoch) in rejected:
                flag(
                    ev, "commit of an epoch whose digest check failed",
                    D.PROTOCOL_COMMIT_WITHOUT_VERIFY,
                )
            elif (task, epoch) not in accepted and epoch < core.attempts(task):
                flag(ev, "commit from an epoch fault tolerance cancelled", D.STALE_COMMIT)
            elif (task, epoch) not in accepted:
                flag(ev, "commit of an epoch that was never dispatched")
            else:
                worker_commits.add((task, epoch))
            if not core.inputs_committed(task):
                flag(ev, "committed before predecessors committed", D.EARLY_COMMIT)
            accepted.difference_update([k for k in accepted if k[0] == task])
            core.commit(task, epoch, worker)
        elif kind == "redistribute":
            # A vote re-offer names an accepted epoch, held as a ballot.
            if core.cancel(task, epoch) is None and (task, epoch) not in accepted:
                flag(ev, "redistribute of an epoch that is not live")
        elif kind == "lease-expired":
            if not core.is_live(task, epoch):
                flag(ev, "lease expiry of an epoch that is not live")
        elif kind == "digest-reject":
            rejected.add((task, epoch))
            perform(ev, core.digest_reject(task, epoch, worker))
        elif kind == "taint-invalidate":
            if core.committed.get(task) != epoch:
                flag(ev, "invalidation of an epoch that is not the committed one")
            else:
                perform(ev, core.taint(task))

    if require_complete:
        for kind, task, epoch in owed:
            what = f"the core decided {kind} of {task} epoch {epoch}; the run never recorded it"
            report.add(D.PROTOCOL_ILLEGAL_TRANSITION, what, repr(task))
        for vid in pattern.vertices():
            if vid not in core.committed:
                how = "assigned but its result never" if core.attempts(vid) else "never assigned,"
                report.add(D.LOST_UPDATE, f"task {vid!r} {how} committed", repr(vid))
    if verified is not None and len(worker_commits) > verified:
        report.add(
            D.COMMIT_WITHOUT_VERIFY,
            f"{len(worker_commits)} distinct worker commits but only {verified} "
            "results passed digest verification — some result was committed "
            "without a receive-side check",
        )
    return report
