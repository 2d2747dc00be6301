"""Structured run reports.

Every backend returns a :class:`RunReport` describing what the schedule
did: makespan, communication volume, per-worker task counts, fault
recoveries, and (simulated backend) utilization and idle-while-ready time
— the quantity whose non-zero value under BCW explains Fig 17.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class RunReport:
    """What happened during one EasyHPS run."""

    backend: str
    scheduler: str
    algorithm: str
    #: Total nodes including the master (paper's X).
    nodes: int
    #: Computing threads per slave node (paper's ct; max when uneven).
    threads_per_node: int
    #: End-to-end schedule length: simulated seconds (simulated backend)
    #: or wall-clock seconds (real backends).
    makespan: float
    #: Wall-clock seconds the run took on the host (== makespan for real
    #: backends; simulator CPU time for the simulated one).
    wall_time: float
    #: Number of process-level sub-tasks executed.
    n_tasks: int
    #: Number of thread-level sub-sub-tasks executed (0 when unknown).
    n_subtasks: int = 0
    #: Protocol messages exchanged, both directions.
    messages: int = 0
    #: Payload bytes master -> slaves (task inputs).
    bytes_to_slaves: int = 0
    #: Payload bytes slaves -> master (results).
    bytes_to_master: int = 0
    #: Process-level faults detected and recovered by redistribution.
    faults_recovered: int = 0
    #: Thread-level faults recovered by restarting a computing thread.
    thread_restarts: int = 0
    #: Stale results discarded via the register-table epoch check.
    stale_results: int = 0
    #: Always 0 (no speculation); bench/workloads.py reads it until ROADMAP item 4 re-records.
    speculative_redispatches: int = 0
    #: Workers retired for exceeding ``blacklist_threshold`` failures.
    blacklisted_workers: Tuple[int, ...] = ()
    #: Service/computing threads that outlived their join timeout (each
    #: also produced a :class:`~repro.utils.errors.WorkerLeakWarning`).
    worker_leaks: int = 0
    #: Message/worker faults injected by a chaos plan during the run.
    faults_injected: int = 0
    #: Sub-tasks executed per slave id.
    tasks_per_worker: Dict[int, int] = field(default_factory=dict)
    #: Worker-seconds spent idle while the computable stack was non-empty
    #: (simulated backend; the static schedulers' pathology metric).
    idle_while_ready: float = 0.0
    #: Mean busy fraction of computing threads (simulated backend).
    utilization: float = 0.0
    #: Total abstract work units of the instance.
    total_flops: float = 0.0
    #: Total cores in the paper's accounting (Y), when derivable.
    total_cores: Optional[int] = None
    #: Raw telemetry stream (``RunConfig.observe``): a tuple of
    #: :class:`repro.obs.recorder.ObsEvent` covering the sub-task
    #: lifecycle; export with :func:`repro.obs.export.write_trace`.
    events: Optional[tuple] = None
    #: Metrics snapshot (``RunConfig.observe``): the plain-dict view of
    #: the run's :class:`repro.obs.metrics.MetricsRegistry`.
    metrics: Optional[Dict[str, object]] = None
    #: Rolling run digest (hex): an order-independent fold over every
    #: committed ``(task_id, outputs digest)``. Identical across backends
    #: for identical results (the serial oracle's digest is the reference;
    #: epochs are deliberately excluded from the fold). None when
    #: ``RunConfig.integrity`` is off.
    run_digest: Optional[str] = None
    #: Results rejected at receive because their payload digest mismatched.
    digest_rejects: int = 0
    #: Sampled audit recomputes that convicted a committed block (SDC).
    audits_convicted: int = 0
    #: Commits revoked and recomputed by taint invalidation.
    tainted_recomputes: int = 0
    #: Workers quarantined for divergent results.
    quarantined_workers: Tuple[int, ...] = ()

    @property
    def trace(self) -> Optional[tuple]:
        """Per-sub-task schedule trace: the Gantt rows of ``events``'
        profile (:meth:`repro.obs.prof.PerfProfile.gantt_rows`); None when
        nothing was observed."""
        from repro.obs.prof import build_profile

        return None if self.events is None else build_profile(self.events).gantt_rows()

    def speedup_vs(self, serial_makespan: float) -> float:
        """Speedup relative to a serial makespan of the same instance."""
        if self.makespan <= 0:
            raise ValueError("makespan must be positive to compute speedup")
        return serial_makespan / self.makespan

    def summary(self) -> str:
        """Human-readable multi-line digest."""
        lines = [
            f"{self.algorithm} via {self.backend}/{self.scheduler} "
            f"on {self.nodes} nodes x {self.threads_per_node} threads",
            f"  makespan      : {self.makespan:.6g} s",
            f"  tasks         : {self.n_tasks} ({self.n_subtasks} sub-sub-tasks)",
            f"  messages      : {self.messages} "
            f"({_human_bytes(self.bytes_to_slaves)} out, {_human_bytes(self.bytes_to_master)} back)",
        ]
        if self.faults_recovered or self.thread_restarts or self.stale_results:
            lines.append(
                f"  faults        : {self.faults_recovered} redistributed, "
                f"{self.thread_restarts} thread restarts, {self.stale_results} stale dropped"
            )
        if self.faults_injected:
            lines.append(f"  chaos         : {self.faults_injected} faults injected")
        if self.blacklisted_workers or self.worker_leaks:
            lines.append(
                f"  recovery      : blacklisted {list(self.blacklisted_workers)}, "
                f"{self.worker_leaks} leaked threads"
            )
        if self.utilization:
            lines.append(
                f"  utilization   : {self.utilization:.1%}"
                + (f", idle-while-ready {self.idle_while_ready:.4g} s" if self.idle_while_ready else "")
            )
        if self.digest_rejects or self.audits_convicted or self.quarantined_workers:
            lines.append(
                f"  integrity     : {self.digest_rejects} digest rejects, "
                f"{self.audits_convicted} audit convictions, "
                f"{self.tainted_recomputes} tainted recomputes, "
                f"quarantined {list(self.quarantined_workers)}"
            )
        if self.run_digest is not None:
            lines.append(f"  run digest    : {self.run_digest}")
        if self.events is not None:
            lines.append(f"  telemetry     : {len(self.events)} events recorded")
        return "\n".join(lines)


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0:
            return f"{n:.1f} {unit}"
        n /= 1024.0
    return f"{n:.1f} TiB"
