"""Run assembly: the one ``RunConfig`` (+ ``RecoveredRun``) → parts mapping.

Every way of running a DP problem — the threads and processes backends,
each job of the ``repro serve`` daemon, and (for the journal, policy and
report pieces they share) the serial oracle and the simulator — builds
its master, slaves, channels, journal and report through this module, so
a knob added to :class:`~repro.runtime.config.RunConfig` is wired exactly
once and no driver can silently drop one.

``MasterPart`` and ``SlavePart`` take the config itself and read their
knobs from it (``docs/configuration.md``): nothing here, or anywhere
else, re-spells a knob per layer.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Sequence, Tuple

from repro.algorithms.problem import DPProblem
from repro.analysis.report import RunReport
from repro.chaos.channel import ChaosChannel
from repro.cluster.faults import io_policy
from repro.comm.shm import BlockStore, ShmChannel
from repro.comm.transport import Channel, channel_pair
from repro.dag.partition import Partition
from repro.durable.degrade import JournalGuard
from repro.durable.journal import CommitJournal
from repro.obs import EventRecorder, MetricsRegistry
from repro.obs.clock import Clock
from repro.runtime.config import BCW_BLOCK_COLS, RunConfig
from repro.runtime.master import MasterPart
from repro.runtime.slave import SlavePart, SlaveStats
from repro.schedulers.policy import SchedulingPolicy, make_policy
from repro.utils.errors import ConfigError


class RunAssembly:
    """One run's wiring: partition, telemetry, and the parts built on them.

    ``resume`` (a :class:`~repro.durable.recovery.RecoveredRun`) makes
    the journal reopen for append and the master start from the
    recovered commits, state, retry budgets and digests. ``clock`` sets
    the telemetry time domain (the simulator passes its sim-time clock;
    real backends record wall-clock).
    """

    def __init__(
        self,
        config: RunConfig,
        problem: DPProblem,
        resume: Any = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if config.integrity == "audit" and not problem.recomputable:
            raise ConfigError(
                f"integrity='audit' recomputes committed blocks from the master's "
                f"state, which {problem.name} frees as it goes (retain='boundary'); "
                "run it with retain='full', or with integrity 'digest' or 'vote'"
            )
        self.config = config
        self.problem = problem
        self.resume = resume
        self.proc_size, self.thread_size = config.partitions_for(problem)
        self.partition: Partition = problem.build_partition(self.proc_size)
        # One shared recorder/registry spans the master, any in-process
        # slaves, and the channel endpoints; nothing is built when
        # nothing observes — the zero-cost path.
        self.recorder = EventRecorder(clock) if config.observe else None
        self.metrics = MetricsRegistry() if config.observe else None

    def open_journal(self) -> Optional[JournalGuard]:
        """The run's write-ahead journal, if any.

        Fresh runs create (and ``begin``) the journal at ``journal_path``
        with the chaos kill switch armed; resumed runs reopen the
        recovered journal for append (truncating any torn tail) with the
        switch off. Either way the handle comes back wrapped in a
        :class:`~repro.durable.degrade.JournalGuard`, so every backend
        gets the same bounded retry-then-degrade ladder
        (``config.journal_degrade``) when a write hits ENOSPC/EIO — real
        or injected by ``config.faults.io``.
        """
        config, resume = self.config, self.resume
        if resume is None and config.journal_path is None:
            return None
        faults = config.faults
        common = dict(
            fsync=config.journal_fsync,
            checkpoint_interval=config.checkpoint_interval,
            io_policy=io_policy(faults.io, "journal"),
        )
        if resume is not None:
            journal = CommitJournal.open_resume(resume.scan, **common)
        else:
            journal = CommitJournal.create(
                config.journal_path,
                kill_after=faults.kill_after,
                kill_torn=faults.kill_torn,
                **common,
            )
        guard = JournalGuard(
            journal,
            mode=config.journal_degrade,
            retries=config.journal_retries,
            job_id=config.run_id,
            obs=self.recorder,
        )
        if resume is None:
            guard.begin(self.problem, config)
        return guard

    def policy(self, n_workers: int) -> SchedulingPolicy:
        """The processor-level scheduling policy ``config.scheduler``
        names — the same object, built the same way, for the real master's
        ready stack and the simulator's ready list."""
        return make_policy(
            self.config.scheduler,
            n_workers,
            self.partition.grid.n_block_cols,
            block_cols=BCW_BLOCK_COLS,
            neighbor_fn=self.partition.abstract.predecessors,
        )

    def finish(self, report: RunReport) -> RunReport:
        """Report epilogue shared by all four backends: the recorded
        event stream and the metrics snapshot."""
        if self.recorder is not None:
            report.events = self.recorder.events()
            if self.metrics is not None:
                report.metrics = self.metrics.snapshot()
        return report

    def master_channel(
        self, channel: Channel, index: int, store: Optional[BlockStore] = None
    ) -> Channel:
        """Stack the master-side endpoint of slave ``index``: shm, then
        chaos, then instrumentation."""
        endpoint = f"slave{index}"
        if store is not None:
            # The shm wrapper sits directly on the transport; chaos wraps
            # *outside* it, so injected faults mutate the decoded arrays
            # the runtime sees, never the opaque segment refs.
            # Instrumented on its own: per-message telemetry accrues on
            # the outermost wrapper, but the ``shm-attach`` span is
            # emitted by this layer regardless of what wraps it.
            channel = ShmChannel(channel, store)
            if self.recorder is not None:
                channel.instrument(self.recorder, endpoint=endpoint)
        plan = self.config.faults.message
        if plan:
            # Chaos wraps the master-side endpoint only — the plan never
            # crosses to the slave, and both directions of this slave's
            # traffic still pass through it.
            channel = ChaosChannel(channel, plan, endpoint_index=index)
        if self.recorder is not None:
            channel.instrument(self.recorder, endpoint=endpoint)
        return channel

    def slave(self, slave_id: int, channel: Channel, stop: threading.Event) -> SlavePart:
        """One in-process slave part on its end of a channel."""
        return SlavePart(
            slave_id,
            channel,
            self.problem,
            self.partition,
            self.config,
            thread_size=self.thread_size,
            stop_event=stop,
            obs=self.recorder,
        )

    def inprocess_slaves(
        self, stop: threading.Event
    ) -> Tuple[List[Channel], List[SlavePart]]:
        """``config.n_slaves`` slave parts over queue channels: the
        stacked master-side endpoints and the parts to run on threads."""
        channels: List[Channel] = []
        slaves: List[SlavePart] = []
        for k in range(self.config.n_slaves):
            master_end, slave_end = channel_pair()
            channels.append(self.master_channel(master_end, k))
            slaves.append(self.slave(k, slave_end, stop))
        return channels, slaves

    def master(
        self, channels: Sequence[Channel], block_store: Optional[BlockStore] = None
    ) -> MasterPart:
        """The master part over ``channels``, its journal opened."""
        return MasterPart(
            self.problem,
            self.partition,
            channels,
            self.policy(len(channels)),
            self.config,
            journal=self.open_journal(),
            resume=self.resume,
            obs=self.recorder,
            metrics=self.metrics,
            # The shm plane only exists across processes.
            block_store=block_store,
        )

    def report(
        self,
        backend: str,
        master: MasterPart,
        elapsed: float,
        slave_stats: Sequence[SlaveStats] = (),
    ) -> RunReport:
        """Fold the master's counters (and the slaves', where they share
        the process) and the telemetry into the run report."""
        config, stats = self.config, master.stats
        report = RunReport(
            backend=backend,
            scheduler=config.scheduler,
            algorithm=self.problem.name,
            nodes=config.nodes,
            threads_per_node=config.threads_per_node,
            makespan=elapsed,
            wall_time=elapsed,
            n_tasks=self.partition.n_blocks,
            n_subtasks=stats.subtasks,
            messages=stats.messages,
            bytes_to_slaves=stats.bytes_to_slaves,
            bytes_to_master=stats.bytes_to_master,
            faults_recovered=stats.faults_recovered,
            thread_restarts=sum(s.thread_restarts for s in slave_stats),
            stale_results=stats.stale_results,
            tasks_per_worker=dict(stats.tasks_per_worker),
            total_flops=self.problem.total_flops(self.partition),
            blacklisted_workers=tuple(stats.blacklisted_workers),
            worker_leaks=stats.worker_leaks
            + int(sum(s.extras.get("worker_leaks", 0) for s in slave_stats)),
            faults_injected=sum(
                getattr(ch, "faults_injected", 0) for ch in master.channels
            ),
            run_digest=stats.run_digest,
            digest_rejects=stats.digest_rejects,
            audits_convicted=stats.audits_convicted,
            tainted_recomputes=stats.tainted_recomputes,
            quarantined_workers=tuple(stats.quarantined_workers),
        )
        return self.finish(report)
