"""Master part: the threaded shell around the dispatch core (Figs 9, 10).

Thread layout follows the paper:

- one *worker thread per slave node* services that slave's channel —
  answering idle signals with computable sub-tasks (or the end signal)
  and collecting results onto the finished sub-task stack;
- the *master scheduling thread* (the caller of :meth:`MasterPart.run`)
  drains the finished stack, updates the master DAG pattern, and pushes
  newly computable sub-tasks onto the computable stack;
- the *fault-tolerance thread* ticks the dispatch core for overdue
  deadlines and expired leases, releases backoff-held re-dispatches,
  and runs the stall watchdog.

Every register / budget / backoff / blacklist / quarantine / lease /
vote / taint *decision* is taken by
:class:`~repro.runtime.dispatch.DispatchCore` under the single
``master.core`` lock and performed here (``_apply``); what an idle slave
is handed — pop, register, record, up to a wave — is the
:class:`~repro.runtime.offering.Offering` step, and what happens to a
drained group of results — vote, journal, commit, audit, invalidate — is
the :class:`~repro.runtime.landing.Landing` step; the simulator runs both
too. This module keeps the threads, the channels, the two stacks, payload
extraction, digest hashing, and the hooks of both steps: the blocking
pop, the state merge, the audit/arbiter recompute and the journal
writes. The event → action vocabulary and the hardening it carries
(retry budgets, backoff, blacklist, leases, digest / audit / vote /
quarantine, taint recompute) are described in
``docs/fault_tolerance.md`` §Dispatch core.
Every knob is read from the run's ``RunConfig`` where it is used
(``docs/configuration.md``); the constructor takes objects, not values.

Shell-only mechanism: the **stall watchdog** — nothing live, nothing
held for retry and no progress for ``stall_timeout`` seconds (every
worker lost, every message dropped) aborts with a clean
:class:`FaultToleranceExhausted` rather than hanging.
"""

from __future__ import annotations

import heapq
import threading
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.check.lock_lint import make_lock
from repro.comm.messages import (
    BatchAssign,
    BatchResult,
    EndSignal,
    Heartbeat,
    IdleSignal,
    TaskAssign,
    TaskId,
    TaskResult,
    WorkerLeave,
)
from repro.comm.serialization import content_digest, message_nbytes
from repro.comm.shm import BlockStore
from repro.comm.transport import Channel, ChannelClosed, ChannelTimeout
from repro.dag.partition import Partition
from repro.durable.journal import CommitJournal, snapshot_state
from repro.durable.recovery import RecoveredRun
from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import EventRecorder
from repro.obs.schedule import ScheduleTracer
from repro.runtime import dispatch as core_mod
from repro.runtime.config import RunConfig
from repro.runtime.dispatch import DispatchCore
from repro.runtime.landing import Accepted, Landing
from repro.runtime.offering import Offering
from repro.runtime.worker_pool import ComputableStack, FinishedStack
from repro.schedulers.policy import SchedulingPolicy
from repro.utils.errors import (
    FaultToleranceExhausted,
    SchedulerError,
    WorkerLeakWarning,
)


@dataclass
class MasterStats(core_mod.Counters):
    """Counters gathered while the master ran (the protocol's own are
    inherited from the dispatch core's)."""

    tasks_per_worker: Dict[int, int] = field(default_factory=dict)
    messages: int = 0
    #: Thread-level regions behind the accepted results (slave-reported).
    subtasks: int = 0
    bytes_to_slaves: int = 0
    bytes_to_master: int = 0
    #: Service/fault-tolerance threads that outlived their join timeout.
    worker_leaks: int = 0
    #: Compacted journal checkpoints written during the run.
    checkpoints: int = 0
    #: Sub-tasks skipped on resume because the journal already held them.
    resumed_commits: int = 0
    #: Workers that joined mid-run (elastic membership).
    workers_joined: int = 0
    #: Rolling run digest (hex) after the last commit; None when
    #: integrity is off.
    run_digest: Optional[str] = None
    #: Journal write failures absorbed by the retry/rescue ladder
    #: (``RunConfig.journal_degrade``) without aborting the run.
    journal_errors_absorbed: int = 0
    #: True when a journal write failure degraded the run to
    #: in-memory-only (``journal_degrade="memory"``): the result is still
    #: correct but the run is no longer crash-resumable.
    journal_degraded: bool = False


class MasterPart:
    """Processor-level scheduler over a set of slave channels."""

    def __init__(
        self,
        problem: DPProblem,
        partition: Partition,
        channels: Sequence[Channel],
        policy: SchedulingPolicy,
        config: RunConfig,
        *,
        journal: Optional[CommitJournal] = None,
        resume: Optional[RecoveredRun] = None,
        clock: Optional[Clock] = None,
        obs: Optional[EventRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        block_store: Optional[BlockStore] = None,
    ) -> None:
        if not channels:
            raise SchedulerError("master needs at least one slave channel")
        if policy.n_workers != len(channels):
            raise SchedulerError(
                f"policy sized for {policy.n_workers} workers but {len(channels)} slaves given"
            )
        self.problem = problem
        self.partition = partition
        self.channels = list(channels)
        self.policy = policy
        #: The run's one declaration of every protocol knob; this part reads
        #: it and copies nothing out of it (``docs/configuration.md``).
        #: ``config.run_id`` is the run's identity within a multi-run
        #: process (the serve daemon sets it to the job id): stamped onto
        #: every :class:`FaultToleranceExhausted` this master raises and
        #: onto the ``abort`` telemetry event, so multi-job traces and
        #: ``repro stats`` attribute aborts to the right tenant.
        self.config = config
        #: Shared-memory block store of the zero-copy data plane (processes
        #: backend with ``RunConfig.shm``; None elsewhere). The master
        #: releases a task's parked segments whenever its dispatch settles
        #: — commit, requeue, worker retirement — and sweeps the rest at
        #: teardown, so undelivered assigns never leak segments.
        self.block_store = block_store

        #: Unified scheduling instrumentation: the happens-before trace
        #: (``verify``), the telemetry event stream (``obs``), and the
        #: injected clock — see :mod:`repro.obs.schedule`.
        self.sched = ScheduleTracer(
            clock=clock, verify=config.verify, obs=obs, node=-1, scope="task"
        )
        self.clock = self.sched.clock
        self.metrics = metrics

        self.state: Dict[str, np.ndarray] = {}
        self.stats = MasterStats()
        self._state_lock = make_lock("master.state")
        self._results_lock = make_lock("master.results")
        #: Accepted results awaiting their landing, by task.
        self._result_buffer: Dict[TaskId, Accepted] = {}
        self._finished = FinishedStack()
        self._end = threading.Event()
        self._failure: List[BaseException] = []
        #: Clock reading of the last dispatch or accepted result; the
        #: stall watchdog aborts when this goes quiet too long. Float
        #: assignment is GIL-atomic.
        self._last_progress: float = self.clock.now()

        #: Write-ahead commit journal (:mod:`repro.durable`); every commit
        #: is journaled *before* it merges into state, so a master crash
        #: at any point loses at most the in-flight (uncommitted) work.
        #: Usually a :class:`~repro.durable.degrade.JournalGuard` (the
        #: backends wrap it), but a bare :class:`CommitJournal` works too
        #: — the rescue binding below is then simply skipped.
        self.journal = journal
        bind_rescue = getattr(journal, "bind_rescue", None)
        if bind_rescue is not None:
            # ``journal_degrade="checkpoint"``: a failed record write may
            # be rescued by compacting the journal around a full state
            # checkpoint, which needs this master's state snapshot.
            bind_rescue(self._write_checkpoint)
        #: task -> epoch of commits recovered from a journal (resume): the
        #: core is primed with them, so they are never re-dispatched.
        self._prior_commits: Dict[TaskId, int] = (
            dict(resume.committed) if resume is not None else {}
        )
        self._initial_state = resume.state if resume is not None else None

        #: Result-integrity policy (:mod:`repro.integrity`): receive-side
        #: digest verification plus the audit/vote SDC defenses.
        self.integrity = config.integrity_policy
        #: Only when digests are on is the rolling run digest folded and
        #: any hash computed at all — the disabled path stays hash-free.
        self._digest_on = self.integrity.digest_on
        #: The protocol's decisions (:mod:`repro.runtime.dispatch`): the
        #: dispatch ledger, worker standing and commit ledger, primed from
        #: the journal on resume. Guarded — together with the backoff heap
        #: below — by ``master.core``, a leaf lock but for the recorders'
        #: own: it may be taken under ``master.membership`` (attach) or
        #: ``master.results`` (accepting a result), is never held while
        #: taking either of those, ``master.state`` or a stack condition,
        #: and the actions a call returns are performed after it is
        #: released — except the ledger records, written under it
        #: (:meth:`_note`).
        self.core = DispatchCore.from_config(
            config,
            len(self.channels),
            pattern=partition.abstract,
            recording=self.sched.enabled,
            fold_digests=self._digest_on,
            stats=self.stats,
            resume=resume,
        )
        self._core_lock = make_lock("master.core")
        #: ``(ready_at, tiebreak, task_id)`` re-dispatches held by backoff.
        self._delayed: List[Tuple[float, int, TaskId]] = []
        #: TaskResults that passed receive-side digest verification
        #: (guarded by ``_results_lock`` — service threads share it).
        self._digests_verified = 0
        #: What happens to a drained group of results (scheduling thread).
        self.landing = Landing(
            self.core, policy, decide=self._decide, perform=self._apply,
            merge=self._merge, verdict=self._verdict, journal=self._write_ahead,
        )
        #: What an idle slave is handed (its service thread).
        self.offering = Offering(
            self.core, policy, config, self.sched,
            pop=self._pop, push=self._push, decide=self._decide,
        )
        #: The computable stack; every push is stamped for the task's
        #: ``queue-wait`` span while observing (all push sites at once).
        self._stack = ComputableStack(
            depth_observer=self._make_depth_observer(),
            push_observer=self.offering.note_ready if self.sched.observing else None,
        )

        #: Service threads for workers attached mid-run; guarded by the
        #: membership lock together with ``channels`` growth.
        self._extra_threads: List[threading.Thread] = []
        self._membership_lock = make_lock("master.membership")

    def _make_depth_observer(self):
        """Queue-depth instrumentation for the computable stack (None —
        hence zero per-push cost — unless metrics are on)."""
        if self.metrics is None:
            return None
        gauge = self.metrics.gauge("master.queue_depth")
        hist = self.metrics.histogram("master.queue_depth_hist")

        def observe(depth: int) -> None:
            gauge.set(depth)
            hist.observe(depth)

        return observe

    def _release_blocks(self, task_id: TaskId) -> None:
        """Unlink the shm segments parked for a settled dispatch (no-op
        without a block store). Called before any re-queue push, so a
        fresh dispatch can never park new segments that this release
        would then tear out from under it."""
        if self.block_store is not None:
            self.block_store.release_owner(task_id)

    def _timed_digest(
        self, payload, task_id: TaskId, epoch: int, worker_id: int, hop: str
    ):
        """``content_digest`` plus a ``digest-compute`` span when observing."""
        if not self.sched.observing:
            return content_digest(payload)
        t0 = self.clock.now()
        digest = content_digest(payload)
        t1 = self.clock.now()
        self.sched.record(
            "digest-compute", task_id, epoch, worker_id, ts=t1, t0=t0, t1=t1, hop=hop
        )
        return digest

    # -- public entry ----------------------------------------------------------

    def run(self) -> Dict[str, np.ndarray]:
        """Execute the whole schedule; returns the completed global state."""
        self.state = (
            self.problem.make_state()
            if self._initial_state is None
            else self._initial_state
        )
        if self._prior_commits:
            # Neither the trace nor the telemetry stream gets a record of
            # the journaled commits: the trace replay is primed with the
            # same prefix instead (``journaled`` in the epilogue).
            self.stats.resumed_commits = len(self._prior_commits)
            if self.sched.observing:
                self.sched.record(
                    "resume", None, -1, n_committed=len(self._prior_commits)
                )
        self._stack.push_many(self.core.frontier())

        workers = [
            threading.Thread(
                target=self._serve_slave, args=(k,), daemon=True, name=f"master-service{k}"
            )
            for k in range(len(self.channels))
        ]
        ft = threading.Thread(target=self._fault_tolerance, daemon=True, name="master-ft")
        for t in workers:
            t.start()
        ft.start()

        try:
            # Master scheduling thread (Fig 9 steps c & h). The landing
            # step drains every deferred audit on the commit that drains
            # the level, and a late conviction re-opens it (taint
            # recompute), so the loop ends only once both are done.
            while not self._failure and self.core.n_remaining:
                # Everything that finished together lands as one group.
                group = []
                for task_id in self._finished.pop_all(timeout=self.config.poll_interval):
                    with self._results_lock:
                        entry = self._result_buffer.pop(task_id, None)
                    if entry is not None:  # else purged by a taint while queued
                        group.append(entry)
                if group and self.landing.land(group):
                    if self.journal is not None and self.journal.should_checkpoint():
                        self._write_checkpoint()
            if self.journal is not None and not self._failure and not self.core.n_remaining:
                self.journal.end(run_digest=self.core.run_digest)
        finally:
            # Fig 9 step i: tear down pools and signal every slave to end.
            self._end.set()
            self._stack.close()
            self._finished.close()
            if self.journal is not None:
                self.journal.close()
            with self._membership_lock:
                channels = list(self.channels)
                workers = [*workers, *self._extra_threads]
            for t in workers:
                t.join(timeout=10.0)
            ft.join(timeout=10.0)
            self._surface_leaks([*workers, ft])
            if self.journal is not None:
                self.stats.journal_degraded = bool(
                    getattr(self.journal, "degraded", False)
                )
                self.stats.journal_errors_absorbed = int(
                    getattr(self.journal, "errors_absorbed", 0)
                )
            if self.block_store is not None:
                # Backstop for segments whose dispatch never settled (e.g.
                # an abort mid-wave); the processes backend additionally
                # prefix-sweeps /dev/shm after the slaves exit.
                self.block_store.sweep()
            for ch in channels:
                self.stats.messages += ch.sent_messages + ch.received_messages
                self.stats.bytes_to_slaves += ch.sent_bytes
                self.stats.bytes_to_master += ch.received_bytes
            self.stats.run_digest = self.core.run_digest
            if self.metrics is not None:
                self._publish_metrics()
        if self._failure:
            raise self._failure[0]
        self.sched.check(
            self.partition.abstract,
            title=f"master-trace({self.problem.name})",
            journaled=self._prior_commits,
        )
        return self.state

    def _write_checkpoint(self) -> None:
        """Compact the journal around a snapshot of the committed state."""
        assert self.journal is not None
        with self._state_lock:
            snapshot = snapshot_state(self.state)
        t0 = self.clock.now() if self.sched.observing else 0.0
        with self._core_lock:
            committed = dict(self.core.committed)
            attempts = self.core.attempts_snapshot()
        nbytes = self.journal.checkpoint(
            snapshot,
            committed,
            attempts,
            run_digest=self.core.run_digest,
            commit_digests=dict(self.core.commit_digests) if self._digest_on else None,
        )
        self.stats.checkpoints += 1
        if self.sched.observing:
            t1 = self.clock.now()
            self.sched.record(
                "checkpoint", None, -1, ts=t1, t0=t0, t1=t1,
                n_committed=len(committed), nbytes=nbytes,
            )

    # -- performing the core's actions ---------------------------------------------------

    def _note(self, answer):
        """Write the ledger records of what a core event answered — called
        with ``master.core`` still held, so the trace's ``seq`` order is
        the order the core decided in. That is what lets ``check_trace``
        replay a recorded run into a fresh core: recorded after the lock,
        a timeout's ``redistribute`` and the ``stale-drop`` of the result
        it beat could land in either order. Returns ``answer`` (only a
        list of actions carries records)."""
        if self.sched.enabled and isinstance(answer, list):
            for act in answer:
                if isinstance(act, core_mod.Record):
                    self.sched.record(act.kind, act.task, act.epoch, act.worker, **act.data)
                elif isinstance(act, core_mod.Stale):
                    self.sched.record("stale-drop", act.task, act.epoch, act.worker)
        return answer

    def _decide(self, event, *args):
        """One core event under ``master.core``, its records noted."""
        with self._core_lock:
            return self._note(event(*args))

    def _apply(self, actions) -> bool:
        """Perform what a core event returned, in order (the core lock is
        NOT held; the records are already written). False once an abort
        was among them."""
        ok = True
        for act in actions:
            if isinstance(act, core_mod.Requeue):
                # Released before any re-queue push, so a fresh dispatch
                # can never park new segments that this release would
                # then tear out from under it.
                self._release_blocks(act.task)
                if act.delay > 0:
                    with self._core_lock:
                        heapq.heappush(
                            self._delayed,
                            (self.clock.now() + act.delay, len(self._delayed), act.task),
                        )
                else:
                    self._stack.push(act.task)
            elif isinstance(act, core_mod.Invalidate):
                for task_id, _epoch in act.dropped:
                    self._release_blocks(task_id)
                self._rewind(act)
            elif isinstance(act, core_mod.Abort):
                self._abort(act.exc)
                ok = False
        return ok

    # -- landing hooks (``repro.runtime.landing``) -------------------------------------

    def _write_ahead(self, commits: Sequence[Accepted], revoked: Sequence[TaskId]) -> None:
        """Journal a landing group — one append, one fsync, before any of
        it merges, so a crash in between replays these commits instead
        of losing them — or a revocation."""
        if self.journal is None:
            return
        if revoked:
            self.journal.invalidate(revoked)
            return
        j0 = self.clock.now() if self.sched.observing else 0.0
        records = [(r.task, r.epoch, r.payload, r.digest) for r in commits]
        jbytes = self.journal.commit_group(records)
        if self.sched.observing:
            j1 = self.clock.now()
            self.sched.record(
                "journal-write", None, -1,
                ts=j1, t0=j0, t1=j1, nbytes=jbytes, n_tasks=len(commits),
            )

    def _merge(self, res: Accepted, released: Sequence[TaskId]) -> None:
        """Write a committed result into the state and offer what its
        commit released."""
        with self._state_lock:
            self.problem.apply_result(self.state, self.partition, res.task, res.payload)
        self._release_blocks(res.task)
        if self.sched.enabled:
            # Recorded before push_many so a successor's "assign" always
            # serializes after its dependencies' commits.
            self.sched.record("commit", res.task, res.epoch)
        self._stack.push_many(released)

    def _verdict(self, res: Accepted, recompute: bool):
        """``(outputs, digest)`` of ``res``, or of the master's own serial
        evaluation of its block from the committed state, as a single
        monolithic inner block (the outputs are partition-invariant, so
        the cheapest shape wins)."""
        outputs = res.payload
        if recompute:
            with self._state_lock:
                inputs = self.problem.extract_inputs(self.state, self.partition, res.task)
            evaluator = self.problem.evaluator(self.partition, res.task, inputs)
            rows, cols = self.partition.block_ranges(res.task)
            outputs = evaluator.run_serial(
                self.partition.sub_partition(res.task, (len(rows), len(cols)))
            )
        return outputs, self._timed_digest(
            outputs, res.task, res.epoch, res.worker, self.integrity.mode
        )

    def _rewind(self, inv: core_mod.Invalidate) -> None:
        """Perform a taint invalidation the core decided (the landing step
        journaled it): drop everything queued on revoked inputs — buffered
        results and stacked tasks (they re-surface as the closure
        recommits) — and offer the recompute frontier."""
        # The commit ledger is written only by this (the scheduling)
        # thread, so it reads it here without the core lock.
        ready = self.core.inputs_committed
        with self._results_lock:
            for task_id in [t for t in self._result_buffer if not ready(t)]:
                del self._result_buffer[task_id]
        self._stack.retain(ready)
        self._stack.push_many(inv.frontier)

    def _surface_leaks(self, threads: Sequence[threading.Thread]) -> None:
        """Warn about (and count) threads that outlived their join timeout.

        The join results used to be silently discarded; a hung service
        thread now produces a :class:`WorkerLeakWarning`, a ``worker-leak``
        telemetry event, and a nonzero ``stats.worker_leaks``.
        """
        for t in threads:
            if not t.is_alive():
                continue
            self.stats.worker_leaks += 1
            warnings.warn(
                f"master thread {t.name!r} did not exit within its join "
                "timeout and was abandoned (daemon)",
                WorkerLeakWarning,
                stacklevel=3,
            )
            if self.sched.observing:
                self.sched.record("worker-leak", None, -1, thread=t.name)

    def _publish_metrics(self) -> None:
        """Fold end-of-run counters into the metrics registry."""
        assert self.metrics is not None
        for ch in self.channels:
            ch.publish_metrics(self.metrics)
        self.metrics.counter("master.faults_recovered").inc(self.stats.faults_recovered)
        self.metrics.counter("master.stale_results").inc(self.stats.stale_results)
        self.metrics.counter("master.blacklisted_workers").inc(
            len(self.stats.blacklisted_workers)
        )
        self.metrics.counter("master.worker_leaks").inc(self.stats.worker_leaks)
        for worker_id, n in sorted(self.stats.tasks_per_worker.items()):
            self.metrics.counter("master.tasks_completed", worker=worker_id).inc(n)
        if self._digest_on:
            # Integrity counters exist only when integrity is on, so the
            # disabled path stays metric-free (zero-cost invariant).
            self.metrics.counter("integrity.digests_verified").inc(self._digests_verified)
            self.stats.publish_integrity(self.metrics)

    # -- per-slave worker thread (Fig 9 steps d-f) ------------------------------------

    def _pop(self, worker_id: int, first: bool) -> Optional[TaskId]:
        """The offering step's wait: block on the computable stack for a
        wave's first element (None once the pool closed), poll for the
        rest."""
        return self._stack.pop_eligible(
            worker_id, self.offering, timeout=None if first else 0
        )

    def _push(self, task_id: TaskId) -> None:
        self._stack.push(task_id)

    def _assign(self, task_id: TaskId, epoch: int, worker_id: int) -> TaskAssign:
        """One registered dispatch, fully dressed: its extracted inputs and
        their content digest — a wave shares only the envelope."""
        with self._state_lock:
            inputs = self.problem.extract_inputs(self.state, self.partition, task_id)
        return TaskAssign(
            task_id=task_id,
            epoch=epoch,
            inputs=inputs,
            lease=self.core.lease_duration or 0.0,
            digest=(
                self._timed_digest(inputs, task_id, epoch, worker_id, "assign")
                if self._digest_on
                else None
            ),
        )

    def _serve_slave(self, worker_id: int) -> None:
        channel = self.channels[worker_id]
        ended = False
        while not (self._end.is_set() and ended):
            try:
                msg = channel.recv(timeout=self.config.poll_interval)
            except ChannelTimeout:
                if self._end.is_set():
                    # The slave is quiet (possibly hung); deliver the end
                    # signal on our way out so a live slave can exit.
                    self._try_send_end(channel)
                    return
                continue
            except ChannelClosed:
                return
            with self._core_lock:
                # Any message from a worker proves liveness.
                self.core.heard_from(worker_id, self.clock.now())
                retired = self.core.is_retired(worker_id)
                busy = self.core.holds_live(worker_id)
            if isinstance(msg, Heartbeat):
                if self.sched.observing:
                    self.sched.record("heartbeat", msg.task_id, msg.epoch, worker_id)
                continue
            if isinstance(msg, WorkerLeave):
                # Elastic departure: retire the worker, re-queue its
                # in-flight work budget-free, and let it exit cleanly.
                self._apply(self._decide(self.core.worker_left, worker_id))
                self._try_send_end(channel)
                ended = True
                continue
            if isinstance(msg, IdleSignal):
                if retired:
                    # Retired worker: no further assignments; let it exit.
                    self._try_send_end(channel)
                    ended = True
                    continue
                if busy:
                    # Duplicate idle announcement (slaves re-announce when
                    # a reply is slow or lost) while this worker still owns
                    # a live dispatch. Admitting it would backlog the
                    # worker and turn one slow reply into a timeout storm;
                    # swallow it instead — either the dispatch resolves or
                    # the overtime check cancels it, and the next
                    # announcement is admitted.
                    continue
                offered = self.offering.offer(worker_id)
                if not offered:
                    # The pool closed, or the worker was retired mid-gather.
                    self._try_send_end(channel)
                    ended = True
                    continue
                wave = BatchAssign(
                    assigns=tuple(self._assign(t, reg.epoch, worker_id) for t, reg in offered)
                )
                self._last_progress = self.clock.now()
                try:
                    channel.send(wave)
                except ChannelClosed:
                    return
                if self.sched.observing:
                    for a in wave.assigns:
                        self.sched.record(
                            "send", a.task_id, a.epoch, worker_id,
                            nbytes=message_nbytes(a),
                        )
            elif isinstance(msg, BatchResult):
                for part in msg.results:
                    if not self._handle_result(part, worker_id):
                        return

    def _handle_result(self, msg: TaskResult, worker_id: int) -> bool:
        """Verify and buffer one element of a BatchResult envelope. Returns
        False when the run was aborted by a budget-exhausted reject."""
        if (
            self._digest_on
            and msg.digest is not None
            and self._timed_digest(
                msg.outputs, msg.task_id, msg.epoch, worker_id, "verify"
            ) != msg.digest
        ):
            # The payload no longer matches the digest the slave
            # stamped: in-transit corruption. Reject the result
            # and re-queue the task — never merge corrupt data
            # into state. The retry is charged like a timeout, so
            # a link that corrupts the same task every time ends
            # in a clean budget-exhausted abort, not a livelock.
            return self._apply(
                self._decide(self.core.digest_reject, msg.task_id, msg.epoch, worker_id)
            )
        with self._results_lock:
            # Accepting and buffering are one step under the results
            # lock, so a taint (which purges the buffer under it) sees
            # every result accepted before it.
            with self._core_lock:
                actions = self._note(self.core.result(msg.task_id, msg.epoch, worker_id))
                if not actions and self.sched.enabled:
                    self._record_result(msg, worker_id)
            if not actions:
                if self._digest_on and msg.digest is not None:
                    self._digests_verified += 1
                self._result_buffer[msg.task_id] = Accepted(
                    msg.task_id, msg.epoch, worker_id, msg.outputs,
                    msg.digest if self._digest_on else None,
                )
        if actions:
            return self._apply(actions)  # stale epoch: dropped
        self.policy.completed(worker_id, msg.task_id)
        self._finished.push(msg.task_id)
        self._last_progress = self.clock.now()
        self.stats.subtasks += msg.subtasks
        self.stats.tasks_per_worker[worker_id] = (
            self.stats.tasks_per_worker.get(worker_id, 0) + 1
        )
        return True

    def _record_result(self, msg: TaskResult, worker_id: int) -> None:
        """The accept of one result — a ledger record like the others
        (``_note``): a taint may purge the buffered result before it ever
        commits, and the replay must know the dispatch had settled."""
        data = {}
        if self.sched.observing:
            # The compute span is synthesized on the master's clock from
            # the slave-reported duration, so the same events exist
            # whether the slave was a thread or a separate OS process.
            now = self.sched.now()
            self.sched.record(
                "compute", msg.task_id, msg.epoch, node=worker_id,
                ts=now, t0=now - max(0.0, msg.elapsed), t1=now,
            )
            data = dict(nbytes=message_nbytes(msg), elapsed=msg.elapsed)
        self.sched.record("result", msg.task_id, msg.epoch, worker_id, **data)

    def _try_send_end(self, channel: Channel) -> None:
        try:
            channel.send(EndSignal())
        except ChannelClosed:
            pass

    # -- fault-tolerance thread (Fig 10) ------------------------------------------------

    def _abort(self, exc: BaseException) -> None:
        """Record a fatal failure and wake every blocked thread."""
        if isinstance(exc, FaultToleranceExhausted) and exc.job_id is None:
            exc.job_id = self.config.run_id
        if self.sched.observing:
            self.sched.record(
                "abort", None, -1,
                reason=str(exc)[:300],
                exc_type=type(exc).__name__,
                job_id=self.config.run_id,
            )
        self._failure.append(exc)
        self._end.set()
        self._stack.close()
        self._finished.close()

    def request_abort(self, reason: str) -> bool:
        """Cancel the run from outside the scheduling threads.

        The serve daemon's deadline watchdog and ``repro cancel`` use
        this: the run ends in a clean, attributed
        :class:`FaultToleranceExhausted` raised out of :meth:`run` — the
        same contract as an exhausted retry budget, never a hang and
        never a half-merged state (the scheduling thread observes
        ``_failure`` before its next commit). Returns False when the run
        had already ended (or aborted) — cancelling a finished run is a
        no-op, not an error.
        """
        if self._end.is_set() or self._failure:
            return False
        self._abort(FaultToleranceExhausted(reason, job_id=self.config.run_id))
        return True

    def _fault_tolerance(self) -> None:
        while not self._end.is_set():
            now = self.clock.now()
            with self._core_lock:
                due = []
                while self._delayed and self._delayed[0][0] <= now:
                    due.append(heapq.heappop(self._delayed)[2])
                actions = self._note(self.core.tick(now))
                idle = not self._delayed and self.core.n_live == 0
            self._stack.push_many(due)
            if not self._apply(actions):
                return
            if idle and now - self._last_progress > self.config.effective_stall_timeout:
                # Nothing live, nothing queued for retry, and nothing has
                # moved for a whole stall window: every worker is presumed
                # lost. Abort cleanly instead of hanging.
                self._abort(
                    FaultToleranceExhausted(
                        f"no scheduling progress for {self.config.effective_stall_timeout:.1f}s "
                        "with no live dispatches (all workers presumed lost)"
                    )
                )
                return
            # Wakes at once when the run ends, so ``run()``'s join of this
            # thread does not wait out the rest of a tick.
            self._end.wait(self.config.poll_interval)

    # -- elastic membership -----------------------------------------------------

    def attach_worker(self, channel: Channel) -> int:
        """Join a new worker mid-run (elastic membership); returns its id.

        Only dynamic-family policies accept joiners — static wavefront
        policies fixed their column ownership at construction and a new
        worker would own nothing. The new worker is served by its own
        service thread, joins the admission flow like any other slave, and
        is joined/accounted at teardown with the founding workers.
        """
        if not getattr(self.policy, "elastic", False):
            raise SchedulerError(
                f"policy {self.policy.name!r} is static; mid-run worker "
                "join requires a dynamic-family policy"
            )
        with self._membership_lock:
            if self._end.is_set():
                raise SchedulerError("cannot attach a worker: the run is over")
            with self._core_lock:
                worker_id = self.core.attach_worker()
            self.channels.append(channel)
            # Int assignment is GIL-atomic; eligibility checks racing this
            # see either the old or new count, both consistent.
            self.policy.n_workers = worker_id + 1
            thread = threading.Thread(
                target=self._serve_slave, args=(worker_id,), daemon=True,
                name=f"master-service{worker_id}",
            )
            self._extra_threads.append(thread)
        self.stats.workers_joined += 1
        if self.sched.observing:
            self.sched.record("worker-join", None, -1, worker_id)
        thread.start()
        return worker_id
