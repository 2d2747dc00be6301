"""The ``repro serve`` daemon: many DP jobs, one shared worker fleet.

One long-lived :class:`ServeDaemon` owns a :class:`~repro.serve.fleet
.WorkerFleet` and runs every admitted job on it, concurrently. The
design is robustness-first:

- **Each job is a fault domain.** Every job gets its own master, its
  own channels, its own stop event, and its own retry budgets. A
  :class:`~repro.utils.errors.FaultToleranceExhausted` abort (stamped
  with the job id — see :meth:`MasterPart.request_abort` and
  ``_abort``) is recorded on that job's record and nothing else; fleet
  workers contain any escaping exception and return to the pool.
- **Admission never hangs.** The queue is bounded; overload and drain
  shed with a structured :class:`~repro.serve.admission
  .AdmissionDecision` immediately.
- **Every accepted job survives the daemon.** Submissions are journaled
  write-ahead through :class:`~repro.serve.wal.ServeJournal`; started
  jobs additionally journal their commits through the run-level
  :mod:`repro.durable` machinery. ``--resume`` after a ``kill -9``
  replays the submission log, finishes history, re-queues pending work,
  and resumes mid-run jobs from their per-job commit journals.
- **Deadlines cancel cleanly.** A watchdog thread turns an exceeded
  per-job deadline (or the daemon-wide job timeout) into
  ``master.request_abort`` — a clean, attributed abort, never a hang.
- **Drain is graceful.** SIGTERM (wired in the CLI) stops admission,
  cancels queued jobs with a recorded reason, lets running jobs finish,
  then stops the fleet and closes the log.

Per-tenant wait/run/slowdown histograms and job-outcome counters accrue
in a :class:`~repro.obs.metrics.MetricsRegistry` (``repro jobs
--stats``).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algorithms import make_problem
from repro.check.lock_lint import make_lock
from repro.obs.clock import Clock, ensure_clock
from repro.obs.metrics import MetricsRegistry
from repro.serve.admission import (
    SHED_INVALID,
    SHED_RESOURCE,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.fleet import WorkerFleet
from repro.serve.job import JobRecord, JobSpec, next_job_id, prime_job_counter
from repro.serve.policy import OrderingPolicy, make_ordering_policy
from repro.serve.pressure import PressureProbe, ResourceWatermarks
from repro.serve.wal import ServeEntry, ServeJournal, scan_serve_journal
from repro.utils.errors import (
    ConfigError,
    FaultToleranceExhausted,
    JournalError,
    JournalIOError,
    ResourceExhausted,
    SchedulerError,
)


def build_problem(spec: JobSpec) -> Any:
    """Rebuild the job's problem instance from its spec coordinates.

    Deterministic by construction (seeded factories), which is what lets
    the WAL store only ``(algo, size, seed)`` instead of pickled state.
    """
    return make_problem(spec.algo, spec.size, spec.seed)


@dataclass
class _JobContext:
    """Everything the runner/watchdog/growth paths need for one live job."""

    record: JobRecord
    #: The job's :class:`~repro.runtime.assembly.RunAssembly` (config,
    #: problem, partition) — what a mid-run attached slave is built from.
    asm: Any
    stop: threading.Event
    master: Any
    worker_ids: Tuple[int, ...]
    runner: Optional[threading.Thread] = None
    attached: List[int] = field(default_factory=list)


class ServeDaemon:
    """A multi-tenant DP job scheduler over one shared worker fleet."""

    def __init__(
        self,
        *,
        workers: int = 3,
        queue_cap: int = 16,
        policy: str = "fifo",
        policy_seed: int = 0,
        wal_path: Optional[str] = None,
        job_journal_dir: Optional[str] = None,
        resume: bool = False,
        fsync: bool = False,
        clock: Optional[Clock] = None,
        keep_states: bool = False,
        grow_running: bool = False,
        threads_per_node: int = 2,
        task_timeout: float = 10.0,
        job_timeout: Optional[float] = None,
        poll_interval: float = 0.02,
        job_prefix: str = "job",
        watermarks: Optional[ResourceWatermarks] = None,
        pressure_interval: float = 1.0,
        wal_compact_interval: int = 64,
        wal_keep_history: int = 64,
        io_fault_plan: Any = None,
    ) -> None:
        self.clock = ensure_clock(clock)
        self.fleet = WorkerFleet(workers)
        self.watermarks = watermarks
        self.pressure: Optional[PressureProbe] = None
        if watermarks is not None and watermarks.enabled:
            self.pressure = PressureProbe(
                watermarks, interval=pressure_interval, clock=self.clock
            )
        self.admission = AdmissionController(
            queue_cap,
            pressure_probe=self.pressure.check if self.pressure else None,
        )
        self.policy: OrderingPolicy = make_ordering_policy(policy, seed=policy_seed)
        self.metrics = MetricsRegistry()
        self.wal_path = wal_path
        self.job_journal_dir = job_journal_dir
        self.resume_requested = resume
        self.fsync = fsync
        self.keep_states = keep_states
        self.grow_running = grow_running
        self.threads_per_node = threads_per_node
        self.task_timeout = task_timeout
        self.job_timeout = job_timeout
        self.poll_interval = poll_interval
        self.job_prefix = job_prefix
        #: Compact the submission log every N finishes (0 disables).
        self.wal_compact_interval = wal_compact_interval
        self.wal_keep_history = wal_keep_history
        self.io_fault_plan = io_fault_plan

        self._wal: Optional[ServeJournal] = None
        self._finishes_since_compact = 0
        self._lock = make_lock("serve.daemon")
        self._records: Dict[str, JobRecord] = {}
        self._order: List[str] = []
        self._contexts: Dict[str, _JobContext] = {}
        self._recovered_runs: Dict[str, str] = {}
        self._cost_cache: Dict[Tuple[str, int, int], float] = {}
        self._stop = threading.Event()
        self._killed = False
        self._threads: List[threading.Thread] = []
        self.resumed_jobs = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Open (or replay) the submission log, start fleet and loops."""
        if self.wal_path is not None:
            if self.resume_requested and os.path.exists(self.wal_path):
                self._replay_wal()
            else:
                self._wal = ServeJournal.create(
                    self.wal_path, fsync=self.fsync,
                    io_policy=self._wal_io_policy(),
                )
        if self.job_journal_dir is not None:
            os.makedirs(self.job_journal_dir, exist_ok=True)
        self.fleet.start()
        for name, target in (
            ("serve-sched", self._scheduler_loop),
            ("serve-watchdog", self._watchdog_loop),
        ):
            t = threading.Thread(target=target, daemon=True, name=name)
            t.start()
            self._threads.append(t)

    def _replay_wal(self) -> None:
        """Rebuild the job table from the submission log (``--resume``)."""
        assert self.wal_path is not None
        scan = scan_serve_journal(self.wal_path)
        prime_job_counter(scan.max_job_number)
        self._wal = ServeJournal.open_resume(
            scan, fsync=self.fsync, io_policy=self._wal_io_policy()
        )
        for job_id in scan.order:
            entry = scan.entries[job_id]
            record = JobRecord(job_id, entry.spec, submitted_at=self.clock.now())
            if entry.finished:
                # History: carry the terminal outcome forward verbatim.
                record.status = entry.status
                record.detail = entry.detail
                record.reason = entry.reason
            else:
                record.est_cost = self._estimate_cost(entry.spec)
                record.resumed = True
                self.resumed_jobs += 1
                if entry.run_journal and os.path.exists(entry.run_journal):
                    # Started before the crash and its commit journal
                    # survived: resume mid-run instead of rerunning.
                    self._recovered_runs[job_id] = entry.run_journal
                self.admission.restore(record)
            with self._lock:
                self._records[job_id] = record
                self._order.append(job_id)

    # -- submission ------------------------------------------------------

    def submit(self, spec: JobSpec) -> AdmissionDecision:
        """Admit or shed one job; always returns immediately."""
        try:
            cost = self._estimate_cost(spec)
        except ConfigError as exc:
            return self._shed(spec, f"{SHED_INVALID}: {exc}")
        record = JobRecord(
            next_job_id(self.job_prefix), spec,
            submitted_at=self.clock.now(), est_cost=cost,
        )
        # Held, not queued: the scheduler cannot pop the job until its
        # submission record is durable (a shed costs no WAL write).
        decision = self.admission.admit(record, hold=True)
        if not decision.accepted:
            return self._shed(spec, decision.reason)
        with self._lock:
            self._records[record.job_id] = record
            self._order.append(record.job_id)
        # Write-ahead of the ack: the WAL record lands before the caller
        # learns the job was accepted, so an acknowledged job can never
        # vanish in a daemon crash.
        if self._wal is not None:
            try:
                self._wal.submit(record.job_id, spec)
            except JournalIOError as exc:
                # Cannot make the acceptance durable — revoke it and shed
                # with a resource reason instead of acknowledging a job a
                # crash would silently lose.
                reason = f"{SHED_RESOURCE}:wal-write"
                if self.admission.cancel(record.job_id) is not None:
                    self._finish(
                        record, "cancelled",
                        f"revoked: submission WAL write failed: {exc}",
                        reason=reason,
                    )
                return self._shed(spec, f"{reason}: {exc}")
        if not self.admission.publish(record) and not record.terminal:
            # The daemon began draining during the write: cancel the job
            # here, as the drain would have had it been queued.
            self._finish(record, "cancelled", "cancelled: daemon drained before start")
        self.metrics.counter("serve.jobs_submitted", tenant=spec.tenant).inc()
        self.metrics.gauge("serve.queue_depth").set(self.admission.depth)
        return decision

    def submit_dict(self, raw: Dict[str, Any]) -> AdmissionDecision:
        """Submit from an untrusted wire dict (IPC path); bad specs shed
        with a structured ``invalid-spec`` reason instead of raising."""
        try:
            spec = JobSpec.from_dict(raw)
        except (ConfigError, TypeError) as exc:
            return AdmissionDecision(
                False, None, f"{SHED_INVALID}: {exc}", self.admission.depth
            )
        return self.submit(spec)

    def _estimate_cost(self, spec: JobSpec) -> float:
        key = (spec.algo, spec.size, spec.seed)
        cached = self._cost_cache.get(key)
        if cached is not None:
            return cached
        problem = build_problem(spec)
        proc_size, _ = self._base_config(spec).partitions_for(problem)
        cost = float(problem.total_flops(problem.build_partition(proc_size)))
        self._cost_cache[key] = cost
        return cost

    def _shed(self, spec: JobSpec, reason: str) -> AdmissionDecision:
        """Count one shed submission and word its decision."""
        self.metrics.counter("serve.jobs_shed", tenant=spec.tenant).inc()
        if reason.startswith(SHED_RESOURCE):
            self.metrics.counter("serve.resource_sheds", tenant=spec.tenant).inc()
        return AdmissionDecision(False, None, reason, self.admission.depth)

    # -- cancellation ----------------------------------------------------

    def cancel(self, job_id: str, reason: str = "cancelled by request") -> str:
        """Cancel a job; returns what happened (``cancelled`` |
        ``aborting`` | ``finished`` | ``unknown``)."""
        queued = self.admission.cancel(job_id)
        if queued is not None:
            self._finish(queued, "cancelled", f"cancelled before start: {reason}")
            return "cancelled"
        with self._lock:
            ctx = self._contexts.get(job_id)
            record = self._records.get(job_id)
        if ctx is not None and not ctx.record.terminal:
            if ctx.master.request_abort(f"cancelled: {reason}"):
                return "aborting"
        if record is not None:
            return "finished" if record.terminal else "aborting"
        return "unknown"

    # -- scheduling ------------------------------------------------------

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            has_work = self.admission.wait_for_work(self.poll_interval)
            if self._stop.is_set():
                return
            if not has_work:
                if self.grow_running:
                    ids = self.fleet.acquire(1, timeout=0.0)
                    if ids is not None:
                        self._try_grow(ids)
                continue
            ids = self.fleet.acquire(1, timeout=self.poll_interval)
            if ids is None:
                continue
            record = self.admission.pop_next(self.policy, self.clock.now())
            if record is None:
                if self.grow_running:
                    self._try_grow(ids)
                else:
                    self.fleet.unreserve(ids)
                continue
            # Top up toward the job's requested width with whatever else
            # is idle right now (degrade, don't block).
            extra = record.spec.workers_wanted - len(ids)
            if extra > 0:
                more = self.fleet.acquire(extra, timeout=0.0)
                if more is not None:
                    ids = ids + more
            try:
                self._launch(record, ids)
            except BaseException as exc:  # noqa: B036 — job fault domain
                self.fleet.unreserve(ids)
                self._finish(record, "error", f"launch failed: {exc!r}")

    def _base_config(self, spec: JobSpec, n_workers: int = 1) -> Any:
        from repro.runtime.config import RunConfig

        return RunConfig(
            backend="threads",
            nodes=n_workers + 1,
            threads_per_node=self.threads_per_node,
            scheduler=spec.scheduler,
            task_timeout=self.task_timeout,
            subtask_timeout=self.task_timeout,
            max_retries=spec.max_retries,
            poll_interval=self.poll_interval,
            integrity=spec.integrity,
            verify=False,
            # A wave's results come back in one BatchResult and so commit
            # as one journal group: one fsync a wave, not one a task.
            batch_wave=True,
        )

    def _job_config(self, record: JobRecord, n_workers: int) -> Any:
        from dataclasses import replace

        from repro.cluster.faults import Faults

        spec = record.spec
        config = self._base_config(spec, n_workers)
        # The chaos profile's keys are Faults.random's keywords.
        chaos = dict(spec.chaos)
        cseed = int(chaos.pop("seed", spec.seed))
        updates: Dict[str, Any] = {
            "run_id": record.job_id,
            "faults": Faults.random(seed=cseed, **chaos),
        }
        if self.job_journal_dir is not None:
            updates["journal_path"] = os.path.join(
                self.job_journal_dir, f"{record.job_id}.walj"
            )
            updates["journal_fsync"] = self.fsync
        return replace(config, **updates)

    def _launch(self, record: JobRecord, worker_ids: Tuple[int, ...]) -> None:
        """Wire one job's master/slaves over the acquired fleet workers."""
        from repro.durable.recovery import recover
        from repro.runtime.assembly import RunAssembly

        spec = record.spec
        rec = None
        rec_path = self._recovered_runs.pop(record.job_id, None)
        if rec_path is not None:
            try:
                rec = recover(rec_path)
            except JournalError:
                rec = None  # torn beyond use: rerun from scratch
        config = self._job_config(record, len(worker_ids))
        problem = rec.problem if rec is not None else build_problem(spec)

        # The same assembly path as the threads backend, one slave per
        # acquired fleet worker (``config.nodes`` was sized to them).
        asm = RunAssembly(config, problem, rec)
        stop = threading.Event()
        master_channels, slaves = asm.inprocess_slaves(stop)
        master = asm.master(master_channels)

        now = self.clock.now()
        record.status = "running"
        record.started_at = now
        record.workers = worker_ids
        if rec is not None:
            record.resumed = True
        ctx = _JobContext(record, asm, stop, master, worker_ids)
        with self._lock:
            self._contexts[record.job_id] = ctx
        self.policy.note_started(record, now)
        if self._wal is not None:
            self._wal.start(record.job_id, config.journal_path)
        self.metrics.histogram(
            "serve.wait_seconds", tenant=spec.tenant
        ).observe(record.wait_seconds(now))

        for k, worker_id in enumerate(worker_ids):
            self.fleet.assign(
                worker_id, slaves[k].run, label=f"{record.job_id}/slave{k}"
            )
        runner = threading.Thread(
            target=self._run_job, args=(ctx,), daemon=True,
            name=f"serve-{record.job_id}",
        )
        runner.start()
        ctx.runner = runner  # published started: drain and kill join it

    def _run_job(self, ctx: _JobContext) -> None:
        """Per-job runner thread: the job's whole fault domain ends here."""
        record = ctx.record
        try:
            state = ctx.master.run()
            record.run_digest = ctx.master.stats.run_digest
            if self.keep_states:
                record.state = state
            detail = (
                f"digest {record.run_digest}" if record.run_digest else "completed"
            )
            self._finish(record, "done", detail)
        except ResourceExhausted as exc:
            # Resource exhaustion inside the job's fault domain: clean,
            # attributed abort with the machine-readable reason surfaced
            # through the job table, the WAL, and the IPC snapshot.
            self.metrics.counter(
                "serve.resource_aborts", tenant=record.spec.tenant
            ).inc()
            self._finish(record, "aborted", str(exc), reason=exc.reason)
        except FaultToleranceExhausted as exc:
            self._finish(
                record, "aborted", str(exc), reason="fault-tolerance-exhausted"
            )
        except BaseException as exc:  # noqa: B036 — job fault domain
            self._finish(record, "error", f"{type(exc).__name__}: {exc}")
        finally:
            ctx.stop.set()
            with self._lock:
                self._contexts.pop(record.job_id, None)

    def _finish(
        self, record: JobRecord, status: str, detail: str, reason: str = ""
    ) -> None:
        now = self.clock.now()
        record.status = status
        record.detail = detail
        record.reason = reason
        record.finished_at = now
        self.policy.note_finished(record, now)
        tenant = record.spec.tenant
        self.metrics.counter(f"serve.jobs_{status}", tenant=tenant).inc()
        run_s = record.run_seconds(now)
        if record.started_at is not None:
            self.metrics.histogram("serve.run_seconds", tenant=tenant).observe(run_s)
            denom = max(run_s, 1e-6)
            self.metrics.histogram("serve.slowdown", tenant=tenant).observe(
                (record.wait_seconds(now) + run_s) / denom
            )
        if self._wal is not None and not self._killed:
            try:
                self._wal.finish(record.job_id, status, detail[:500], reason)
            except JournalError:
                pass  # closed during kill/drain race: resume reruns it
            else:
                self._maybe_compact()

    # -- WAL compaction --------------------------------------------------

    def _wal_io_policy(self) -> Any:
        from repro.cluster.faults import io_policy

        return io_policy(self.io_fault_plan, "serve-wal")

    def _wal_entries(self) -> List[ServeEntry]:
        """Current job history as compaction input (called by
        :meth:`ServeJournal.compact` *under the WAL lock*, so a finish
        racing the compaction is either in this snapshot or appends
        after the rewrite — never lost)."""
        with self._lock:
            records = [self._records[j] for j in self._order]
            journals = {
                j: c.asm.config.journal_path for j, c in self._contexts.items()
            }
        entries = []
        for r in records:
            if r.terminal:
                status = r.status
            elif r.started_at is not None:
                status = "started"
            else:
                status = "submitted"
            entries.append(ServeEntry(
                r.job_id, r.spec, status=status, detail=r.detail[:500],
                run_journal=journals.get(r.job_id), reason=r.reason,
            ))
        return entries

    def _maybe_compact(self) -> None:
        """Every ``wal_compact_interval`` finishes, rewrite the WAL so a
        long-lived daemon's log stays bounded by live jobs + recent
        history instead of growing forever."""
        if self._wal is None or self.wal_compact_interval <= 0:
            return
        with self._lock:
            self._finishes_since_compact += 1
            if self._finishes_since_compact < self.wal_compact_interval:
                return
            self._finishes_since_compact = 0
        try:
            dropped = self._wal.compact(
                self._wal_entries, keep_history=self.wal_keep_history
            )
        except JournalError:
            # Compaction failure is never fatal: the append log is still
            # intact (tmp-file rewrite), we just stay un-compacted.
            self.metrics.counter("serve.wal_compact_failures").inc()
        else:
            self.metrics.counter("serve.wal_compactions").inc()
            self.metrics.gauge("serve.wal_compact_dropped").set(dropped)

    # -- elastic growth --------------------------------------------------

    def _try_grow(self, ids: Tuple[int, ...]) -> None:
        """Attach an idle worker to the running job with the fewest
        workers (exercises mid-run elastic membership continuously)."""
        from repro.comm.transport import channel_pair

        with self._lock:
            candidates = [
                c for c in self._contexts.values() if not c.record.terminal
            ]
        if not candidates:
            self.fleet.unreserve(ids)
            return
        ctx = min(candidates, key=lambda c: len(c.worker_ids) + len(c.attached))
        master_end, slave_end = channel_pair()
        try:
            new_id = ctx.master.attach_worker(master_end)
        except SchedulerError:
            # Static policy or the run just ended — both fine, put the
            # worker back.
            self.fleet.unreserve(ids)
            return
        slave = ctx.asm.slave(new_id, slave_end, ctx.stop)
        ctx.attached.append(ids[0])
        self.fleet.assign(
            ids[0], slave.run, label=f"{ctx.record.job_id}/attach{new_id}"
        )
        if len(ids) > 1:
            self.fleet.unreserve(ids[1:])
        self.metrics.counter(
            "serve.workers_attached", tenant=ctx.record.spec.tenant
        ).inc()

    # -- watchdog --------------------------------------------------------

    def _watchdog_loop(self) -> None:
        while not self._stop.wait(self.poll_interval * 5):
            now = self.clock.now()
            with self._lock:
                contexts = list(self._contexts.values())
            for ctx in contexts:
                record = ctx.record
                if record.started_at is None or record.terminal:
                    continue
                elapsed = now - record.started_at
                deadline = record.spec.deadline
                if deadline is not None and elapsed > deadline:
                    ctx.master.request_abort(
                        f"deadline {deadline:.3f}s exceeded "
                        f"({elapsed:.3f}s elapsed)"
                    )
                elif self.job_timeout is not None and elapsed > self.job_timeout:
                    ctx.master.request_abort(
                        f"daemon job timeout {self.job_timeout:.3f}s exceeded"
                    )

    # -- introspection ---------------------------------------------------

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [self._records[job_id].snapshot() for job_id in self._order]

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def tenant_stats(self) -> Dict[str, Any]:
        """Per-tenant counters and latency summaries + shed accounting."""
        snap = self.metrics.snapshot()
        snap["shed_by_tenant"] = dict(self.admission.shed_by_tenant)
        snap["queue_depth"] = self.admission.depth
        snap["resource_sheds"] = self.admission.resource_sheds
        if self.pressure is not None:
            snap["pressure_trips"] = self.pressure.trips
        snap["fleet_idle"] = self.fleet.idle_count
        snap["fleet_crashes"] = len(self.fleet.crash_log)
        return snap

    def wait_idle(self, timeout: float) -> bool:
        """Block until no job is queued or running (test/campaign sync)."""
        deadline = self.clock.now() + timeout
        while self.clock.now() < deadline:
            with self._lock:
                busy = any(
                    not self._records[j].terminal for j in self._order
                )
            if not busy and self.admission.depth == 0:
                return True
            if self._stop.wait(0.02):
                return False
        return False

    # -- teardown --------------------------------------------------------

    def drain(self, timeout: float = 60.0) -> bool:
        """Graceful SIGTERM path. Returns True on a clean, complete drain.

        Stops admission (new submissions shed with ``draining``), cancels
        still-queued jobs with a recorded reason, waits for running jobs
        to finish normally, then aborts stragglers, stops the fleet, and
        closes the submission log.
        """
        for record in self.admission.drain():
            self._finish(record, "cancelled", "cancelled: daemon drained before start")
        deadline = self.clock.now() + timeout
        clean = True
        pause = threading.Event()
        while self.clock.now() < deadline:
            with self._lock:
                if not any(
                    not c.record.terminal for c in self._contexts.values()
                ):
                    break
            pause.wait(0.05)
        with self._lock:
            stragglers = [c for c in self._contexts.values()
                          if not c.record.terminal]
        for ctx in stragglers:
            clean = False
            ctx.master.request_abort("daemon drain timeout")
        with self._lock:
            runners = [c.runner for c in self._contexts.values() if c.runner]
        for runner in runners:
            runner.join(timeout=10.0)
        self._stop.set()
        leaked = self.fleet.stop()
        if leaked:
            clean = False
        for t in self._threads:
            t.join(timeout=5.0)
        if self._wal is not None:
            self._wal.close()
        return clean

    def kill(self) -> None:
        """The chaos tier's in-process stand-in for ``kill -9``.

        No finish records are written past this point (the WAL handle is
        abandoned mid-stream, exactly the artifact a real SIGKILL
        leaves), running masters are torn down, and the fleet stops. A
        follow-up daemon with ``resume=True`` on the same WAL must
        recover every acknowledged job.
        """
        self._killed = True
        self._stop.set()
        if self._wal is not None:
            self._wal.abandon()
        self.admission.drain()
        # The loops first: a launch in flight has registered its context
        # but not started its runner, which the snapshot below would miss.
        for t in self._threads:
            t.join(timeout=5.0)
        with self._lock:
            contexts = list(self._contexts.values())
        for ctx in contexts:
            ctx.master.request_abort("daemon killed")
            ctx.stop.set()
        for ctx in contexts:
            if ctx.runner is not None:
                ctx.runner.join(timeout=10.0)
        self.fleet.stop()
