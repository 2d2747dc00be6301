"""Dispatch core: the Fig 9-12 register / timeout / retry / taint protocol.

One single-owner, sans-I/O state machine holds every fault-tolerance
*decision* of the paper's mechanism — register table, overtime watch,
epoch-checked results, redistribute-or-abort — plus the hardening layered
on it (retry budgets, backoff, blacklist, leases, quarantine, audit lag,
votes, taint closure). Events go in with ``now`` passed alongside; plain
:class:`Action` values come out, and the *shell* that owns the threads,
channels, event queue, payloads and journal performs them. The vocabulary
and the five drivers (master, slave pool, simulator, explorer, and the
trace replay that checks them) are described once in
``docs/fault_tolerance.md`` §Dispatch core.

The module touches no thread, clock, channel, journal file or payload, so
it needs no lock of its own: each shell serializes its calls (the master
under ``make_lock("master.core")``, the slave pool under ``slave.core``,
the simulator and explorer by being single-threaded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.comm.messages import TaskId
from repro.dag.parser import _default_order_key
from repro.integrity import IntegrityPolicy, fold_commit, run_digest_hex
from repro.utils.errors import FaultToleranceExhausted, SchedulerError

# -- actions -------------------------------------------------------------------------


class Requeue(NamedTuple):
    """Offer ``task`` for dispatch again, ``delay`` seconds from now. Its
    previous dispatch is cancelled: whatever the shell parked for it
    (shm segments) is released before the task goes back on offer."""

    task: TaskId
    delay: float = 0.0


class Abort(NamedTuple):
    """End the run with ``exc`` (a clean, attributed abort)."""

    exc: BaseException


class Retire(NamedTuple):
    """``worker`` gets no further work: ``kind`` is ``blacklist``,
    ``quarantine`` or ``leave``."""

    worker: int
    kind: str


class Stale(NamedTuple):
    """The result carried a cancelled or unknown epoch: drop it."""

    task: TaskId
    epoch: int
    worker: int


class Record(NamedTuple):
    """Emit one telemetry / happens-before event describing a decision."""

    kind: str
    task: Optional[TaskId]
    epoch: int
    worker: int = -1
    data: Dict[str, object] = {}


class Invalidate(NamedTuple):
    """``order`` (topological) left the committed set: journal the
    invalidation, purge queued tasks and buffered results for which
    :meth:`DispatchCore.inputs_committed` no longer holds, and offer
    ``frontier`` — the revoked tasks computable again, in schedule order
    (the commits that recompute them release the rest). ``dropped`` are
    the live ``(task, epoch)`` dispatches cancelled with them *without*
    being re-offered (a later commit releases them again): release what
    the shell holds for each."""

    order: Tuple[TaskId, ...]
    dropped: Tuple[Tuple[TaskId, int], ...] = ()
    frontier: Tuple[TaskId, ...] = ()


class Arbitrate(NamedTuple):
    """No fresh worker can break a vote tie: the shell recomputes the
    block itself and casts the result as worker ``-1``."""

    task: TaskId
    epoch: int


class Decide(NamedTuple):
    """A vote quorum decided: commit ``worker``'s result for ``task``."""

    task: TaskId
    epoch: int
    worker: int
    digest: Optional[str]


Action = Any  # one of the NamedTuples above


@dataclass(slots=True)
class Registration:
    """One live dispatch (a row of the paper's register table, with its
    overtime deadline and liveness lease folded in)."""

    worker_id: int
    epoch: int
    deadline: float
    lease_expires: float


#: Commits an enqueued audit waits for before running, so a convicted
#: block usually has committed dependents and the taint closure is
#: exercised. Audits still drain fully before a run ends.
AUDIT_LAG = 4


@dataclass
class Counters:
    """What the core counts (``MasterStats`` extends it, so the master's
    stats read live)."""

    faults_recovered: int = 0
    stale_results: int = 0
    #: Workers retired for exceeding the failure threshold, in order.
    blacklisted_workers: List[int] = field(default_factory=list)
    #: Dispatches cancelled because their liveness lease expired.
    lease_expirations: int = 0
    #: Workers that left cleanly mid-run (WorkerLeave).
    workers_left: int = 0
    #: TaskResults whose payload failed receive-side digest verification.
    digest_rejects: int = 0
    #: Sampled audit recomputes that matched the committed outputs.
    audits_passed: int = 0
    #: Sampled audit recomputes that convicted a committed block.
    audits_convicted: int = 0
    #: Commits revoked for recompute by taint invalidation (closures
    #: included — one conviction may revoke many commits).
    tainted_recomputes: int = 0
    #: Votes recorded in ``integrity='vote'`` mode (arbiter included).
    votes_cast: int = 0
    #: Vote rounds that ended without a strict majority and escalated.
    vote_divergences: int = 0
    #: Workers retired for divergent results (SDC quarantine), in order.
    quarantined_workers: List[int] = field(default_factory=list)

    def publish_integrity(self, metrics: Any) -> None:
        """Fold the integrity counters into a metrics registry."""
        for name in (
            "digest_rejects", "audits_passed", "audits_convicted",
            "tainted_recomputes", "votes_cast", "vote_divergences",
        ):
            metrics.counter(f"integrity.{name}").inc(getattr(self, name))
        metrics.counter("integrity.quarantined_workers").inc(len(self.quarantined_workers))


class DispatchCore:
    """Dispatch ledger + worker standing + commit ledger of one DAG level.

    ``pattern`` is the level's DAG: the commit ledger and it are the one
    answer to "what is computable" (:meth:`frontier`, what a
    :meth:`commit` releases, an :class:`Invalidate`'s frontier) — the
    DAG parser of Section IV-E, in its schedule order. ``recording`` False
    suppresses :class:`Record` actions — the zero-cost path when neither
    the trace validator nor telemetry listens.

    The protocol knobs are explicit keywords without defaults: a run's
    values and their defaults are declared once, on
    :class:`~repro.runtime.config.RunConfig`, and arrive through
    :meth:`from_config` (``docs/configuration.md``).
    """

    def __init__(
        self,
        n_workers: int,
        *,
        task_timeout: float,
        max_retries: int,
        retry_backoff: float,
        retry_backoff_max: float,
        blacklist_threshold: Optional[int],
        lease_duration: Optional[float],
        integrity: Optional[IntegrityPolicy] = None,
        fold_digests: bool = False,
        pattern: Any = None,
        noun: str = "sub-task",
        recording: bool = False,
        stats: Any = None,
        attempts: Optional[Dict[TaskId, int]] = None,
        committed: Optional[Dict[TaskId, int]] = None,
        run_digest: Optional[str] = None,
        commit_digests: Optional[Dict[TaskId, Optional[str]]] = None,
    ) -> None:
        self.n_workers = n_workers
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.blacklist_threshold = blacklist_threshold
        #: Lease span (None = the paper's inference-only liveness); any
        #: message from the holding worker renews it.
        self.lease_duration = lease_duration
        self.integrity = integrity if integrity is not None else IntegrityPolicy("off")
        self.fold_digests = fold_digests
        self.pattern = pattern
        self.noun = noun
        self.recording = recording
        #: Counters, and the blacklisted / quarantined workers in order.
        self.stats = stats if stats is not None else Counters()

        # Dispatch ledger. Epochs keep counting across a resume
        # (``attempts`` primed from the journal) so any post-resume
        # dispatch outpaces a result a surviving slave still holds.
        self._live: Dict[TaskId, Registration] = {}
        self._attempts: Dict[TaskId, int] = dict(attempts) if attempts else {}
        #: Cancels that do NOT charge the retry budget (evictions, taint,
        #: vote escalation): the exhaustion check uses ``attempts - exempt``.
        self._exempt: Dict[TaskId, int] = {}

        # Worker standing.
        self._failures: Dict[int, int] = {}
        #: Last moment each worker was heard from (any message) — the
        #: blacklist's liveness oracle: a worker that keeps announcing
        #: itself is alive, and its timeouts are message loss.
        self._last_heard: Dict[int, float] = {}
        self.left: set = set()
        self._retired: set = set()
        self._divergence: Dict[int, int] = {}

        # Commit ledger.
        self.committed: Dict[TaskId, int] = dict(committed) if committed else {}
        self._run_digest_acc = int(run_digest, 16) if run_digest else 0
        self.commit_digests: Dict[TaskId, Optional[str]] = (
            dict(commit_digests) if commit_digests else {}
        )
        self._commit_count = 0
        #: Whether any commit was ever revoked (dispatches and landings
        #: re-check their inputs only then).
        self.revoked = False
        #: Deferred audits: ``(commit_count, task, epoch, worker)``.
        self._audit_pending: List[Tuple[int, TaskId, int, int]] = []
        #: task -> worker -> ``(digest, epoch)``; worker -1 = the arbiter.
        self._votes: Dict[TaskId, Dict[int, Tuple[Optional[str], int]]] = {}
        self._vote_need: Dict[TaskId, int] = {}
        #: task -> worker -> how often an audit convicted it for the task
        #: (:meth:`passed_over`).
        self._convicted: Dict[TaskId, Dict[int, int]] = {}

    @classmethod
    def from_config(
        cls,
        config: Any,
        n_workers: int,
        *,
        pattern: Any,
        recording: bool,
        fold_digests: bool = False,
        stats: Any = None,
        resume: Any = None,
    ) -> "DispatchCore":
        """The processor-level core a ``RunConfig`` describes — the one
        place its protocol knobs are mapped onto the core's keywords (the
        master shell and the simulator both build theirs here). ``resume``
        (a ``RecoveredRun``) primes the ledgers from the journal."""
        ledgers = {} if resume is None else dict(
            attempts=resume.attempts,
            committed=resume.committed,
            run_digest=resume.run_digest,
            commit_digests=resume.scan.commit_digests,
        )
        return cls(
            n_workers,
            task_timeout=config.task_timeout,
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
            retry_backoff_max=config.retry_backoff_max,
            blacklist_threshold=config.blacklist_threshold,
            lease_duration=config.lease_duration,
            integrity=config.integrity_policy,
            fold_digests=fold_digests,
            pattern=pattern,
            recording=recording,
            stats=stats,
            **ledgers,
        )

    # -- queries -----------------------------------------------------------------

    @property
    def n_live(self) -> int:
        return len(self._live)

    def live(self, task: TaskId) -> Optional[Registration]:
        return self._live.get(task)

    def is_live(self, task: TaskId, epoch: Optional[int] = None) -> bool:
        reg = self._live.get(task)
        return reg is not None and (epoch is None or reg.epoch == epoch)

    def live_items(self) -> Tuple[Tuple[TaskId, Registration], ...]:
        return tuple(self._live.items())

    def holds_live(self, worker: int) -> bool:
        """Admission control: does ``worker`` still own a live dispatch?"""
        return any(reg.worker_id == worker for reg in self._live.values())

    def is_retired(self, worker: int) -> bool:
        return worker in self._retired

    def attempts(self, task: TaskId) -> int:
        return self._attempts.get(task, 0)

    def attempts_snapshot(self) -> Dict[TaskId, int]:
        return dict(self._attempts)

    def inputs_committed(self, task: TaskId) -> bool:
        committed = self.committed
        return all(p in committed for p in self.pattern.predecessors(task))

    @property
    def n_remaining(self) -> int:
        """Tasks of the pattern not (or no longer) committed."""
        return self.pattern.n_vertices() - len(self.committed)

    def frontier(self) -> List[TaskId]:
        """Every computable task — uncommitted, inputs committed — in
        schedule order: the first offer of a run, resumed ones included."""
        committed = self.committed
        return sorted(
            (v for v in self.pattern.vertices()
             if v not in committed and self.inputs_committed(v)),
            key=_default_order_key,
        )

    @property
    def run_digest(self) -> Optional[str]:
        return run_digest_hex(self._run_digest_acc) if self.fold_digests else None

    @property
    def audits_pending(self) -> bool:
        return bool(self._audit_pending)

    @property
    def reoffering(self) -> bool:
        """Whether some task may be on offer for a fresh worker (a vote,
        or the recompute of a block a worker was convicted for)."""
        return bool(self._votes or self._convicted)

    def passed_over(self, task: TaskId) -> set:
        """The workers a re-offer of ``task`` is not for while another
        worker can take it: those that voted on it so far, and any an
        audit convicted for it more than once. (Once may be a transient
        fault, a bit flipped on the wire; twice, and the worker is a liar
        that would otherwise recompute its own lie for as long as it is
        the first idle worker.)"""
        out = set(self._votes.get(task, ()))
        out.update(w for w, n in self._convicted.get(task, {}).items() if n > 1)
        return out

    def fingerprint(self, now: float) -> Tuple[Any, ...]:
        """Canonical digest of everything here that can influence a
        future decision, times relative to ``now`` (two states differing
        only by a clock shift behave identically)."""

        def rel(t: float) -> float:
            return round(t - now, 9)

        inf = float("inf")
        return (
            tuple(
                sorted(
                    (
                        t, r.worker_id, r.epoch, rel(r.deadline),
                        rel(r.lease_expires) if r.lease_expires != inf else None,
                    )
                    for t, r in self._live.items()
                )
            ),
            tuple(sorted(self._attempts.items())),
            tuple(sorted(self._exempt.items())),
            tuple(sorted(self.committed.items())),
            tuple(self.stats.blacklisted_workers),
            tuple(self.stats.quarantined_workers),
            tuple(sorted(self.left)),
            tuple(sorted(self._failures.items())),
            # Last-heard only ever feeds the blacklist decision.
            tuple(sorted((w, rel(t)) for w, t in self._last_heard.items()))
            if self.blacklist_threshold is not None
            else (),
            tuple(sorted(self._divergence.items())),
            tuple((t, e, w, self._commit_count - s) for s, t, e, w in self._audit_pending),
            tuple(sorted((t, tuple(sorted(v.items()))) for t, v in self._votes.items())),
            tuple(sorted((t, tuple(sorted(c.items()))) for t, c in self._convicted.items())),
        )

    # -- dispatch ledger events ----------------------------------------------------

    def dispatch(self, task: TaskId, worker: int, now: float) -> Optional[Registration]:
        """Register one dispatch; its epoch counts the task's dispatches.
        None when it must not happen: ``worker`` is retired (the
        no-commit-after-blacklist invariant; the shell re-offers the
        task), or a taint revoked the task's inputs after the shell took
        it off offer (the shell forgets it; a later commit releases it)."""
        if worker in self._retired or (self.revoked and not self.inputs_committed(task)):
            return None
        if task in self._live:
            raise SchedulerError(f"task {task} already registered")
        epoch = self._attempts.get(task, 0)
        self._attempts[task] = epoch + 1
        reg = Registration(
            worker, epoch, now + self.task_timeout,
            float("inf") if self.lease_duration is None else now + self.lease_duration,
        )
        self._live[task] = reg
        return reg

    def cancel(self, task: TaskId, epoch: int) -> Optional[Registration]:
        """Take ``(task, epoch)`` off the dispatch ledger: its registration,
        or None when that epoch is not the live one. Every settling
        decision below goes through here; the trace replay
        (:func:`repro.check.trace_check.check_trace`) feeds a recorded
        ``redistribute`` through it."""
        reg = self._live.get(task)
        if reg is None or reg.epoch != epoch:
            return None
        del self._live[task]
        return reg

    def result(self, task: TaskId, epoch: int, worker: int) -> List[Action]:
        """Fig 9 step h: a result is accepted (``[]``) only while its
        epoch is the live registration; anything else is :class:`Stale`."""
        if self.cancel(task, epoch) is None:
            self.stats.stale_results += 1
            return [Stale(task, epoch, worker)]
        return []

    def _rec(self, out: List[Action], kind: str, task: Any, epoch: int,
             worker: int = -1, **data: object) -> None:
        if self.recording:
            out.append(Record(kind, task, epoch, worker, data))

    def _redistribute(
        self, task: TaskId, epoch: int, out: List[Action], why: str, backoff: bool
    ) -> None:
        """Re-offer one faulted dispatch on the charged budget, or abort."""
        charged = self._attempts.get(task, 0) - self._exempt.get(task, 0)
        if charged > self.max_retries + 1:
            out.append(
                Abort(
                    FaultToleranceExhausted(
                        f"{self.noun} {task} {why} {charged} budgeted dispatches"
                    )
                )
            )
            return
        self.stats.faults_recovered += 1
        self._rec(out, "redistribute", task, epoch)
        delay = 0.0
        if backoff and self.retry_backoff > 0:
            delay = min(
                self.retry_backoff * (2.0 ** max(0, charged - 1)),
                self.retry_backoff_max,
            )
            if delay > 0:
                self._rec(out, "backoff", task, epoch, delay=delay)
        out.append(Requeue(task, delay))

    def _cancel_exempt(self, task: TaskId, epoch: int, out: List[Action]) -> bool:
        """Budget-free cancel: the task did nothing wrong."""
        if self.cancel(task, epoch) is None:
            return False
        self._exempt[task] = self._exempt.get(task, 0) + 1
        self._rec(out, "redistribute", task, epoch)
        return True

    def _expire(self, task: TaskId, epoch: int, now: float, lease: bool) -> List[Action]:
        reg = self._live.get(task)
        if (
            reg is None
            or reg.epoch != epoch
            or (reg.lease_expires if lease else reg.deadline) > now
        ):
            return []  # completed in time, renewed, or already settled
        del self._live[task]
        out: List[Action] = []
        if lease:
            self.stats.lease_expirations += 1
            self._rec(out, "lease-expired", task, epoch, reg.worker_id)
        self._note_failure(reg.worker_id, now, out)
        self._redistribute(task, epoch, out, "failed", backoff=True)
        return out

    def deadline(self, task: TaskId, epoch: int, now: float) -> List[Action]:
        """Fig 10: the overtime check of one dispatch fired."""
        return self._expire(task, epoch, now, lease=False)

    def lease_expired(self, task: TaskId, epoch: int, now: float) -> List[Action]:
        """The dispatch's worker went quiet for a whole lease — a liveness
        fault, strictly earlier than the hard timeout (which stays as the
        backstop for a worker that heartbeats but never answers)."""
        return self._expire(task, epoch, now, lease=True)

    def tick(self, now: float) -> List[Action]:
        """Scan for expired leases, then overdue deadlines (the polling
        shells' fault-tolerance pass); stops at the first abort."""
        out: List[Action] = []
        for lease in (True, False):
            for task, reg in tuple(self._live.items()):
                out.extend(self._expire(task, reg.epoch, now, lease))
                if out and isinstance(out[-1], Abort):
                    return out
        return out

    def digest_reject(self, task: TaskId, epoch: int, worker: int) -> List[Action]:
        """The payload no longer matches the digest its sender stamped:
        never merge it. The retry is charged like a timeout, so a link
        corrupting the same task every time ends in a clean abort, not a
        livelock."""
        self.stats.digest_rejects += 1
        out: List[Action] = []
        self._rec(out, "digest-reject", task, epoch, worker, hop="result")
        if self.cancel(task, epoch) is not None:
            self._redistribute(
                task, epoch, out, "rejected for digest mismatch on", backoff=False
            )
        return out

    # -- worker standing events ----------------------------------------------------

    def heard_from(self, worker: int, now: float) -> None:
        """Any message proves liveness: stamp the oracle and renew every
        lease the worker holds (heartbeats are just the guaranteed-
        periodic case)."""
        self._last_heard[worker] = now
        if self.lease_duration is not None:
            for reg in self._live.values():
                if reg.worker_id == worker:
                    reg.lease_expires = now + self.lease_duration

    def attach_worker(self) -> int:
        """A worker joined mid-run; returns its id."""
        self.n_workers += 1
        return self.n_workers - 1

    def _evict(self, worker: int, out: List[Action]) -> None:
        """Cancel and re-offer every live dispatch a retiring worker
        holds; late replies hit a stale epoch."""
        for task, reg in tuple(self._live.items()):
            if reg.worker_id == worker and self._cancel_exempt(task, reg.epoch, out):
                self.stats.faults_recovered += 1
                out.append(Requeue(task))

    def retire(self, worker: int, kind: str, out: List[Action], **data: object) -> None:
        """``worker`` gets no further dispatch, and what it holds is
        evicted — the one step behind blacklist, quarantine and leave
        (and how the trace replay feeds a recorded retirement)."""
        self._retired.add(worker)
        out.append(Retire(worker, kind))
        self._rec(out, kind, None, -1, worker, **data)
        self._evict(worker, out)

    def _note_failure(self, worker: int, now: float, out: List[Action]) -> None:
        """Attribute a timeout to its worker; blacklist past the threshold
        unless it is the last one standing or was heard from recently."""
        if self.blacklist_threshold is None:
            return
        n = self._failures.get(worker, 0) + 1
        self._failures[worker] = n
        blacklisted = self.stats.blacklisted_workers
        if n < self.blacklist_threshold or worker in blacklisted or worker in self.left:
            return
        if self.n_workers - len(blacklisted) - len(self.left) <= 1:
            return  # degradation floor: keep the last worker, come what may
        heard = self._last_heard.get(worker)
        if heard is not None and now - heard < self.task_timeout:
            # Alive and reachable: its timeouts are dropped or late
            # messages, not worker death. Nothing is reset — persistent
            # silence still trips the threshold on a later failure.
            return
        blacklisted.append(worker)
        self.retire(worker, "blacklist", out, failures=n)

    def worker_left(self, worker: int) -> List[Action]:
        """A clean departure (WorkerLeave)."""
        out: List[Action] = []
        if worker not in self.left:
            self.left.add(worker)
            self.stats.workers_left += 1
            self.retire(worker, "worker-leave", out)
        return out

    def convict(self, worker: int) -> List[Action]:
        """Attribute one proven divergence; quarantine past the threshold.
        Liveness is ignored — a lying worker still heartbeats — and there
        is no degradation floor: a lying last worker is strictly worse
        than a clean abort."""
        out: List[Action] = []
        if worker < 0:
            return out  # the shell's own arbiter/audit recompute
        n = self._divergence.get(worker, 0) + 1
        self._divergence[worker] = n
        quarantined = self.stats.quarantined_workers
        if worker in quarantined or n < self.integrity.quarantine_threshold:
            return out
        quarantined.append(worker)
        self.retire(worker, "quarantine", out, divergences=n)
        if len(self._retired) >= self.n_workers:
            out.append(
                Abort(
                    FaultToleranceExhausted(
                        "every worker quarantined for divergent results "
                        f"(last: worker {worker} after {n} convictions)"
                    )
                )
            )
        return out

    # -- commit ledger events --------------------------------------------------------

    def commit(
        self, task: TaskId, epoch: int, worker: int, digest: Optional[str] = None
    ) -> Tuple[List[TaskId], bool]:
        """Fold one accepted result into the ledger. Returns the
        successors it made computable, in schedule order, and whether the
        commit was sampled for a (lagged) audit. A commit ahead of its
        inputs is taken as given (the trace replay reports it)."""
        committed = self.committed
        if task in committed:
            raise SchedulerError(f"{self.noun} {task!r} committed twice")
        committed[task] = epoch
        if self.fold_digests:
            self._run_digest_acc = fold_commit(self._run_digest_acc, task, digest)
            self.commit_digests[task] = digest
        self._commit_count += 1
        fresh = sorted(
            (s for s in self.pattern.successors(task)
             if s not in committed and self.inputs_committed(s)),
            key=_default_order_key,
        )
        sampled = self.integrity.audit_on and self.integrity.should_audit(task)
        if sampled:
            self._audit_pending.append((self._commit_count, task, epoch, worker))
        return fresh, sampled

    def next_audit(self, force: bool) -> Optional[Tuple[TaskId, int, int]]:
        """Pop the next audit old enough to run (any, when forced):
        ``(task, epoch, worker)``, or None."""
        while self._audit_pending:
            stamped, task, epoch, worker = self._audit_pending[0]
            if not force and self._commit_count - stamped < AUDIT_LAG:
                return None
            self._audit_pending.pop(0)
            if self.committed.get(task) == epoch:
                return task, epoch, worker
            # else: already revoked by an earlier conviction's closure
        return None

    def audit(self, task: TaskId, epoch: int, worker: int, ok: bool) -> List[Action]:
        """The verdict of one audit recompute."""
        out: List[Action] = []
        if ok:
            self.stats.audits_passed += 1
            self._rec(out, "audit-pass", task, epoch, worker)
            return out
        self.stats.audits_convicted += 1
        self._rec(out, "audit-convict", task, epoch, worker)
        if worker >= 0:
            counts = self._convicted.setdefault(task, {})
            counts[worker] = counts.get(worker, 0) + 1
        return out + self.taint(task) + self.convict(worker)

    def taint(self, root: TaskId) -> List[Action]:
        """Revoke a convicted commit and its committed dependent closure;
        live dispatches built on revoked inputs are cancelled budget-free
        and half-gathered votes on them forgotten."""
        if root not in self.committed:
            raise SchedulerError(f"cannot taint {self.noun} {root!r}: not committed")
        pattern = self.pattern
        tainted = {root}
        frontier = [root]
        while frontier:
            vid = frontier.pop()
            for succ in pattern.successors(vid):
                if succ not in tainted and succ in self.committed:
                    tainted.add(succ)
                    frontier.append(succ)
        order = tuple(v for v in pattern.topological_order() if v in tainted)
        self.revoked = True
        out: List[Action] = []
        for vid in order:
            epoch = self.committed.pop(vid)
            self.stats.tainted_recomputes += 1
            if self.fold_digests:
                # XOR the revoked commit back out of the run digest.
                self._run_digest_acc = fold_commit(
                    self._run_digest_acc, vid, self.commit_digests.pop(vid, None)
                )
            self._rec(
                out, "taint-invalidate", vid, epoch, root=repr(root), n_tainted=len(order)
            )
        dropped = tuple(
            (task, reg.epoch)
            for task, reg in tuple(self._live.items())
            if not self.inputs_committed(task) and self._cancel_exempt(task, reg.epoch, out)
        )
        for task in [t for t in self._votes if not self.inputs_committed(t)]:
            del self._votes[task]
            self._vote_need.pop(task, None)
        frontier = sorted(
            (v for v in order if self.inputs_committed(v)), key=_default_order_key
        )
        out.append(Invalidate(order, dropped, tuple(frontier)))
        return out

    def vote(
        self,
        task: TaskId,
        epoch: int,
        worker: int,
        digest: Optional[str],
        candidates: Iterable[int],
    ) -> List[Action]:
        """Record one result as a vote and tally. ``candidates`` are the
        workers the scheduling policy would let take ``task``; ends in
        :class:`Decide` (quorum), :class:`Requeue` (one more voter) or
        :class:`Arbitrate` (no fresh voter left)."""
        votes = self._votes.setdefault(task, {})
        votes[worker] = (digest, epoch)
        self.stats.votes_cast += 1
        out: List[Action] = []
        self._rec(out, "vote-cast", task, epoch, worker, n_votes=len(votes))
        if len(votes) >= self._vote_need.get(task, self.integrity.vote_k):
            counts: Dict[Any, int] = {}
            for d, _ in votes.values():
                counts[d] = counts.get(d, 0) + 1
            winner, top = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
            if top * 2 <= len(votes) and -1 in votes:
                # Even the arbiter recompute found no majority (every
                # voter lied differently); the arbiter is ground truth by
                # construction — decide by it.
                winner, top = votes[-1][0], len(votes)
            if top * 2 > len(votes):
                del self._votes[task]
                self._vote_need.pop(task, None)
                for wid, (d, _) in votes.items():
                    if d != winner:
                        out.extend(self.convict(wid))
                wid = min(w for w, (d, _) in votes.items() if d == winner)
                out.append(Decide(task, votes[wid][1], wid, winner))
                return out
            self.stats.vote_divergences += 1
            self._rec(out, "vote-divergence", task, -1, n_votes=len(votes))
            self._vote_need[task] = len(votes) + 1
        last_epoch = max(e for _, e in votes.values())
        if any(k not in self._retired and k not in votes for k in candidates):
            # One more vote from a worker that has not voted yet.
            self._exempt[task] = self._exempt.get(task, 0) + 1
            self._rec(out, "redistribute", task, last_epoch)
            out.append(Requeue(task))
        else:
            out.append(Arbitrate(task, last_epoch))
        return out
