"""Slave part: thread-level scheduling over one sub-task (Figs 11 and 12).

A slave part loops: announce idle, receive a sub-task with its data,
initialize the slave DAG Data Driven Model for it (the thread-level
partition), drain the inner DAG with a pool of computing threads — or, when
the block is a single region or the node has a single computing thread,
compute it on this thread: a pool is built only where there is something
to share — return the result, repeat until the end signal. Thread-level
fault tolerance is the same :class:`~repro.runtime.dispatch.DispatchCore`
the master runs, one level down (``docs/fault_tolerance.md`` §Dispatch
core): on a sub-sub-task timeout this shell re-pushes the lost
sub-sub-task and *restarts the computing thread* (Fig 12).

Knobs are read from the run's ``RunConfig`` (``docs/configuration.md``).

The same class serves the threads backend (slaves are threads of the
master process) and the processes backend (slaves are ``multiprocessing``
workers started on :func:`slave_process_main`) — only the channel differs.

Standing in for EasyPDP: run with ``n_threads`` workers on a single
sub-task covering the whole matrix and this *is* the shared-memory
runtime the authors published previously.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.algorithms.problem import DPProblem
from repro.check.lock_lint import make_lock
from repro.cluster.faults import io_policy
from repro.comm.messages import (
    BatchAssign,
    BatchResult,
    EndSignal,
    Heartbeat,
    IdleSignal,
    TaskAssign,
    TaskResult,
    WorkerLeave,
)
from repro.comm.transport import Channel, ChannelClosed, ChannelTimeout
from repro.dag.partition import BlockShape, Partition
from repro.obs.clock import Clock, ensure_clock
from repro.obs.recorder import EventRecorder
from repro.obs.schedule import ScheduleTracer
from repro.runtime import dispatch as core_mod
from repro.runtime.config import RunConfig
from repro.runtime.worker_pool import ComputableStack, FinishedStack
from repro.schedulers.policy import make_policy
from repro.utils.errors import TransportError, WorkerLeakWarning


@dataclass
class SlaveStats:
    """Counters a slave reports back for the run report."""

    tasks: int = 0
    subtasks: int = 0
    thread_restarts: int = 0
    compute_seconds: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)


class SlavePart:
    """One slave node: protocol loop plus the slave worker pool."""

    def __init__(
        self,
        slave_id: int,
        channel: Channel,
        problem: DPProblem,
        partition: Partition,
        config: RunConfig,
        *,
        thread_size: Optional[BlockShape] = None,
        stop_event: Optional[threading.Event] = None,
        clock: Optional[Clock] = None,
        obs: Optional[EventRecorder] = None,
        leave_after: Optional[int] = None,
    ) -> None:
        self.slave_id = slave_id
        self.channel = channel
        self.problem = problem
        self.partition = partition
        #: The run's one declaration of every knob; read where it is used.
        self.config = config
        #: Resolved thread-level partition size (the assembly passes the
        #: one it already computed).
        self.thread_size = (
            thread_size if thread_size is not None else config.partitions_for(problem)[1]
        )
        self.stop_event = stop_event or threading.Event()
        #: Clock for deadlines and subtask-scope telemetry (injected so
        #: the instrumentation is clock-domain agnostic).
        self.clock = ensure_clock(clock)
        #: Telemetry stream for thread-level events; only wired when the
        #: slave shares the recorder's process (threads backend).
        self.obs = obs
        #: Leave the pool cleanly (WorkerLeave) after computing this many
        #: sub-tasks — elastic-membership departure, used by tests and
        #: scale-down scenarios. None = serve until the end signal.
        self.leave_after = leave_after
        #: Any integrity mode but "off" makes this slave verify the digest
        #: on every TaskAssign element (a mismatch is discarded; the master's
        #: timeout redistributes) and stamp a digest on every TaskResult.
        #: "off" computes no digests at all — the zero-cost path.
        self._digest_on = config.integrity != "off"
        #: The channel is shared between the protocol loop and the
        #: heartbeat thread; pipe/queue sends are not atomic, so every
        #: send goes through this lock.
        self._send_lock = make_lock("slave.channel-send", guards=("channel.send",))
        #: (task_id, epoch) currently computing, for heartbeat reporting.
        #: Tuple assignment is GIL-atomic.
        self._current: Optional[tuple] = None
        #: Pid of the master process when this slave is its child
        #: (:func:`slave_process_main` sets it); None in-process.
        self._parent_pid: Optional[int] = None
        self.stats = SlaveStats()

    def _send(self, msg) -> None:
        with self._send_lock:
            self.channel.send(msg)

    # -- protocol loop --------------------------------------------------------

    def _emit(self, kind: str, task_id=None, epoch: int = -1, **data) -> None:
        """Worker-scope telemetry (only wired on in-process backends)."""
        if self.obs is not None and self.obs.enabled:
            self.obs.emit(
                kind, task_id, epoch=epoch, node=self.slave_id,
                worker=self.slave_id, scope="task", **data,
            )

    def run(self) -> SlaveStats:
        """Serve sub-tasks until the end signal (or stop event)."""
        from repro.comm.serialization import content_digest

        faults = self.config.faults
        death_point = faults.worker.death_point(self.slave_id)
        slow_factor = faults.worker.slow_factor(self.slave_id)
        lie_point = faults.worker.lie_point(self.slave_id)
        # Re-announce idleness when no reply arrives in time: an idle
        # signal (or its answer) lost in transit would otherwise silence
        # this slave forever. Duplicated announcements are safe — the
        # master just assigns more work, served sequentially.
        resend = max(0.1, 10.0 * self.config.poll_interval)
        hb_stop = threading.Event()
        hb_thread: Optional[threading.Thread] = None
        if self.config.heartbeat_interval is not None:
            hb_thread = threading.Thread(
                target=self._heartbeat_loop, args=(hb_stop,), daemon=True,
                name=f"slave{self.slave_id}-heartbeat",
            )
            hb_thread.start()
        try:
            while not self.stop_event.is_set():
                try:
                    self._send(IdleSignal(self.slave_id))
                    msg = self._recv(max_wait=resend)
                except ChannelClosed:
                    break
                if msg is None:
                    if self.stop_event.is_set():
                        break
                    continue  # nothing heard within the window: announce again
                if isinstance(msg, EndSignal):
                    break
                if not isinstance(msg, BatchAssign):
                    raise TransportError(f"slave {self.slave_id}: unexpected message {msg!r}")
                # One envelope, per-subtask semantics: every fault hook
                # (digest reject, death, crash, hang, slow, lie) fires per
                # element, whether the wave holds one or ``max_batch`` —
                # only the reply envelope is shared.
                results = []
                died = False
                for assign in msg.assigns:
                    if (
                        self._digest_on
                        and assign.digest is not None
                        and content_digest(assign.inputs) != assign.digest
                    ):
                        # The assignment was mutated in transit (chaos corrupt
                        # fault). Discard it — the master's overtime/lease scan
                        # redistributes the task, exactly as for a lost message.
                        self._emit(
                            "digest-reject", assign.task_id, assign.epoch, hop="assign"
                        )
                        continue
                    if death_point is not None and self.stats.tasks >= death_point:
                        # Worker-level fault: the slave dies mid-run (possibly
                        # mid-wave), holding assigned sub-tasks it will never
                        # answer — the whole envelope is withheld, finished
                        # elements included. The master's timeout redistributes
                        # them; if every worker dies the stall watchdog aborts
                        # cleanly.
                        self._emit(
                            "worker-death", assign.task_id, assign.epoch,
                            after_tasks=death_point,
                        )
                        died = True
                        break
                    fault = faults.task.lookup(assign.task_id, assign.epoch)
                    if fault is not None and fault.kind == "crash":
                        # The process "dies" without replying; the master's
                        # overtime check will redistribute. We come back up on
                        # the next sub-task, like a restarted worker.
                        continue
                    if fault is not None and fault.kind == "hang":
                        # Stall past the master's deadline, then answer late —
                        # the epoch check must discard this result.
                        time.sleep(fault.duration)
                    self._current = (assign.task_id, assign.epoch)
                    regions_before = self.stats.subtasks
                    started = time.perf_counter()
                    outputs = self._compute(assign)
                    elapsed = time.perf_counter() - started
                    self._current = None
                    if slow_factor > 1.0:
                        # Slow-node degradation: stretch the apparent compute
                        # time by (factor - 1) x elapsed, bounded so a single
                        # task can at most look one second slower. Enough to
                        # trip the master's timeout path, never a hard hang.
                        penalty = min((slow_factor - 1.0) * elapsed, 1.0)
                        self._emit(
                            "worker-slow", assign.task_id, assign.epoch,
                            factor=slow_factor, penalty=penalty,
                        )
                        time.sleep(penalty)
                        elapsed += penalty
                    if lie_point is not None and self.stats.tasks >= lie_point:
                        # Silent data corruption: return a plausible-but-wrong
                        # block. The digest below is computed over the *wrong*
                        # data, so it is self-consistent — receive-side
                        # verification passes and only a semantic defense
                        # (audit recompute, voting) can convict this worker.
                        outputs = _lie_about(outputs)
                        self._emit(
                            "worker-liar", assign.task_id, assign.epoch,
                            after_tasks=lie_point,
                        )
                    self.stats.tasks += 1
                    self.stats.compute_seconds += elapsed
                    results.append(
                        TaskResult(
                            task_id=assign.task_id,
                            epoch=assign.epoch,
                            slave_id=self.slave_id,
                            outputs=outputs,
                            elapsed=elapsed,
                            subtasks=self.stats.subtasks - regions_before,
                            digest=content_digest(outputs) if self._digest_on else None,
                        )
                    )
                if died:
                    break
                if results:
                    try:
                        self._send(BatchResult(self.slave_id, tuple(results)))
                    except ChannelClosed:
                        break
                if self.leave_after is not None and self.stats.tasks >= self.leave_after:
                    # Elastic departure: announce it so the master retires
                    # this worker immediately instead of timing it out.
                    self._emit("worker-leave", after_tasks=self.stats.tasks)
                    try:
                        self._send(WorkerLeave(self.slave_id))
                    except ChannelClosed:
                        pass
                    break
        finally:
            hb_stop.set()
            if hb_thread is not None:
                hb_thread.join(timeout=2.0)
        return self.stats

    def _heartbeat_loop(self, hb_stop: threading.Event) -> None:
        """Periodic liveness beacon (see Heartbeat). It runs on its own
        thread so it keeps beating *while computing* — exactly when the
        idle loop goes quiet."""
        assert self.config.heartbeat_interval is not None
        while not hb_stop.wait(self.config.heartbeat_interval):
            if self.stop_event.is_set():
                return
            current = self._current
            task_id, epoch = current if current is not None else (None, -1)
            try:
                self._send(Heartbeat(self.slave_id, task_id=task_id, epoch=epoch))
            except ChannelClosed:
                return

    def _recv(self, max_wait: Optional[float] = None):
        """Poll the channel so the stop event can interrupt a quiet wait.

        Returns None when stopped, or — with ``max_wait`` — when nothing
        arrived within that window (the caller re-announces idleness)."""
        waited = 0.0
        while not self.stop_event.is_set():
            try:
                return self.channel.recv(timeout=self.config.poll_interval)
            except ChannelTimeout:
                if self._parent_pid is not None and os.getppid() != self._parent_pid:
                    # The master died (kill -9): sibling slaves hold copies
                    # of the pipe ends, so EOF alone never arrives.
                    self.stop_event.set()
                    return None
                waited += self.config.poll_interval
                if max_wait is not None and waited >= max_wait:
                    return None
        return None

    # -- slave worker pool (Fig 11 steps c-j) ---------------------------------------

    def _compute(self, assign: TaskAssign) -> Dict[str, object]:
        evaluator = self.problem.evaluator(self.partition, assign.task_id, assign.inputs)
        inner = self.partition.sub_partition(assign.task_id, self.thread_size)
        self.stats.subtasks += inner.n_blocks
        # A pool only where there is something to share (several regions,
        # several computing threads) or Fig 12's fault path is asked for;
        # otherwise this thread computes the block it received.
        shared = inner.n_blocks > 1 and self.config.threads_per_node > 1
        if shared or self.config.faults.thread:
            return self._run_pool(evaluator, inner)
        return evaluator.run_serial(inner)

    def _run_pool(self, evaluator, inner: Partition) -> Dict[str, object]:
        n_threads = self.config.threads_per_node
        stack = ComputableStack()
        finished = FinishedStack()
        policy = make_policy(
            self.config.thread_scheduler, n_threads, inner.grid.n_block_cols
        )
        failure: list[BaseException] = []
        sched = ScheduleTracer(
            clock=self.clock,
            verify=self.config.verify,
            obs=self.obs,
            node=self.slave_id,
            scope="subtask",
        )
        # The same dispatch core as the master's, one level down (Fig 12):
        # computing threads are its workers, sub-sub-tasks its tasks.
        core = core_mod.DispatchCore(
            n_threads,
            task_timeout=self.config.subtask_timeout,
            max_retries=self.config.max_retries,
            # Fig 12 re-pushes at once: no backoff, no blacklist, no lease.
            retry_backoff=0.0,
            retry_backoff_max=0.0,
            blacklist_threshold=None,
            lease_duration=None,
            pattern=inner.abstract,
            noun="sub-sub-task",
            recording=sched.enabled,
        )
        core_lock = make_lock("slave.core")
        stack.push_many(core.frontier())

        def compute_worker(worker_id: int) -> None:
            while True:
                sub = stack.pop_eligible(worker_id, policy)
                if sub is None:
                    return
                with core_lock:
                    epoch = core.dispatch(sub, worker_id, self.clock.now()).epoch
                if sched.enabled:
                    sched.record("assign", sub, epoch, worker_id)
                injected = self.config.faults.thread.lookup(sub, epoch)
                if injected is not None:
                    # The computing thread dies mid-task (Fig 12's fault):
                    # exit without reporting; the FT check restarts us.
                    return
                started = sched.now() if sched.observing else 0.0
                rows, cols = inner.block_ranges(sub)
                evaluator.run_subblock(rows, cols)
                with core_lock:
                    stale = core.result(sub, epoch, worker_id)
                if not stale:
                    if sched.enabled:
                        if sched.observing:
                            sched.record(
                                "compute", sub, epoch, worker_id,
                                t0=started, t1=sched.now(),
                            )
                        # Before finished.push so successors' assigns
                        # serialize after this commit in the trace.
                        sched.record("commit", sub, epoch, worker_id)
                    finished.push((sub, epoch, worker_id))

        threads = [
            threading.Thread(
                target=compute_worker, args=(k,), daemon=True,
                name=f"slave{self.slave_id}-ct{k}",
            )
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()

        # Slave scheduling thread (this thread): drain finished sub-sub-tasks,
        # commit them to the slave DAG pattern, and watch the overtime queue.
        while core.n_remaining:
            done = finished.pop(timeout=self.config.poll_interval)
            with core_lock:
                fresh = core.commit(*done)[0] if done is not None else ()
                actions = core.tick(self.clock.now())
            stack.push_many(fresh)
            for act in actions:
                if isinstance(act, core_mod.Record):
                    sched.record(act.kind, act.task, act.epoch, act.worker, **act.data)
                elif isinstance(act, core_mod.Abort):
                    failure.append(act.exc)
                elif isinstance(act, core_mod.Requeue):
                    # Fig 12: re-push the lost sub-sub-task and restart
                    # the computing thread that died holding it.
                    self.stats.thread_restarts += 1
                    stack.push(act.task)
                    replacement = threading.Thread(
                        target=compute_worker,
                        args=(len(threads) % n_threads,),
                        daemon=True,
                        name=f"slave{self.slave_id}-ct-restart{self.stats.thread_restarts}",
                    )
                    threads.append(replacement)
                    replacement.start()
            if failure or self.stop_event.is_set():
                break
        stack.close()
        for t in threads:
            t.join(timeout=5.0)
        leaked = [t for t in threads if t.is_alive()]
        if leaked:
            # The join result used to be discarded here, silently leaking
            # any computing thread stuck past its timeout. Surface it:
            # a warning, a counter on the slave's stats, and telemetry.
            self.stats.extras["worker_leaks"] = (
                self.stats.extras.get("worker_leaks", 0.0) + len(leaked)
            )
            for t in leaked:
                warnings.warn(
                    f"slave {self.slave_id} computing thread {t.name!r} did "
                    "not exit within its join timeout and was abandoned "
                    "(daemon)",
                    WorkerLeakWarning,
                    stacklevel=2,
                )
                self._emit("worker-leak", thread=t.name)
        if failure:
            raise failure[0]
        if not core.n_remaining and not self.stop_event.is_set():
            sched.check(inner.abstract, title=f"slave{self.slave_id}-trace")
        return evaluator.outputs()


def _lie_about(outputs: Dict[str, object]) -> Dict[str, object]:
    """A liar worker's version of ``outputs``: one cell off by one.

    The perturbation is small and type-preserving, so the result stays
    plausible (right shape, right dtype, right magnitude) — the kind of
    wrong answer only an audit recompute or a vote can tell apart.
    """
    lied: Dict[str, object] = {}
    corrupted = False
    for key, value in outputs.items():
        if not corrupted and isinstance(value, np.ndarray) and value.size:
            wrong = np.array(value, copy=True)
            flat = wrong.reshape(-1)
            flat[0] = flat[0] + 1
            lied[key] = wrong
            corrupted = True
        else:
            lied[key] = value
    return lied


def slave_process_main(
    slave_id: int,
    conn,
    problem: DPProblem,
    config: RunConfig,
    shm_prefix: Optional[str],
) -> None:
    """Entry point of a slave running as a separate OS process.

    Receives the run's config (free under ``fork``, one small pickle
    under ``spawn``) and rebuilds the partition locally — patterns are
    cheap value objects. ``shm_prefix`` is the master's segment namespace
    when the zero-copy data plane is on (a standalone run draws it fresh,
    so it cannot be derived from the config here).
    """
    import multiprocessing
    import signal

    from repro.comm.transport import PipeChannel

    master = multiprocessing.parent_process()
    parent_pid = master.pid if master is not None else os.getppid()
    try:
        # Linux: have the kernel signal us the moment the master dies
        # (PR_SET_PDEATHSIG); the ppid test in ``_recv`` is the portable
        # fallback and closes the died-before-prctl race.
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, int(signal.SIGTERM), 0, 0, 0)
    except (OSError, AttributeError):
        pass

    channel = PipeChannel(conn)
    store = None
    if shm_prefix is not None:
        # Zero-copy data plane: result payloads park in this process's
        # own run-prefixed store; assign refs parked by the master are
        # rehydrated (and unlinked) on receive. Each slave gets its own
        # fault stream so injected shm exhaustion stays deterministic
        # regardless of scheduling.
        from repro.comm.shm import BlockStore, ShmChannel

        store = BlockStore(
            shm_prefix,
            io_policy=io_policy(config.faults.io, f"shm-slave{slave_id}"),
        )
        channel = ShmChannel(channel, store)
    proc_size, thread_size = config.partitions_for(problem)
    part = SlavePart(
        slave_id,
        channel,
        problem,
        problem.build_partition(proc_size),
        config,
        thread_size=thread_size,
    )
    part._parent_pid = parent_pid
    try:
        part.run()
    finally:
        channel.close()
        if store is not None:
            # Results the master never attached (e.g. it aborted first)
            # would otherwise outlive this process; the master's prefix
            # sweep is the backstop for anything unlinked here.
            store.sweep()
