"""Run configuration for the EasyHPS facade.

Mirrors the paper's experiment knobs: node count (``X``), computing
threads per node (``ct``), the two partition sizes, the scheduling policy
per level, fault-tolerance timeouts, and — for the simulated backend — a
cluster spec. ``RunConfig.experiment(X, Y)`` reproduces the paper's
``Experiment_X_Y`` core accounting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.cluster.faults import Faults
from repro.cluster.topology import ClusterSpec, experiment_layout
from repro.dag.partition import BlockShape, _as_pair
from repro.schedulers.policy import POLICIES
from repro.utils.errors import ConfigError
from repro.utils.validate import check_in, check_positive, check_type

BACKENDS = ("serial", "threads", "processes", "simulated")

#: Degradation ladder for journal/WAL write failures (see
#: :attr:`RunConfig.journal_degrade`).
JOURNAL_DEGRADE_MODES = ("abort", "checkpoint", "memory")


#: BCW column grouping (the baseline's ``block_col`` argument) every run
#: uses; :class:`~repro.schedulers.policy.BlockCyclicWavefrontPolicy`
#: itself still takes any grouping.
BCW_BLOCK_COLS = 1


#: Spellings of a boolean override; any other (a typo) is an error, not False.
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}

#: kind -> (parser, how the :class:`ConfigError` words a rejected value).
_ENV_KINDS = {
    str: (str, "a string"),
    bool: (lambda raw: _BOOLS[raw.lower()], "a boolean (1/true/yes/on or 0/false/no/off)"),
}


def _env(name: str, default, kind: type = str):
    """Default factory: a knob overridable via its ``REPRO_*`` env var.

    Unset or blank keeps ``default``. Lets an entire test suite or CI job
    flip a knob — ``REPRO_VERIFY=1 pytest`` — without touching any call
    site. Only the five knobs something sets this way have one
    (``docs/configuration.md``).
    """
    parse, described = _ENV_KINDS[kind]

    def factory():
        raw = os.environ.get(name, "").strip()
        if not raw:
            return default
        try:
            return parse(raw)
        except KeyError:
            raise ConfigError(f"env var {name} must be {described}, got {raw!r}")

    return factory


@dataclass(frozen=True)
class RunConfig:
    """Everything the runtime needs besides the problem itself."""

    #: Total nodes including the master (the paper's ``X``). Real backends
    #: spawn ``nodes - 1`` slave parts.
    nodes: int = 2
    #: Computing threads per slave node (the paper's ``ct``).
    threads_per_node: int = 2
    #: Execution backend: "serial", "threads", "processes" or "simulated".
    backend: str = "threads"
    #: Processor-level scheduling policy: "dynamic" (EasyHPS), "bcw", "cw",
    #: or the extension "dynamic-affinity" — honoured the same way by the
    #: real master's ready stack and the simulator's.
    scheduler: str = "dynamic"
    #: Thread-level scheduling policy (there "dynamic-affinity" is the
    #: plain dynamic pool: :func:`~repro.schedulers.policy.make_policy`).
    thread_scheduler: str = "dynamic"
    #: Process-level partition size (cells per sub-task side); None picks
    #: the problem's default.
    process_partition: Optional[BlockShape] = None
    #: Thread-level partition size; None cuts a block, per axis, into one
    #: region per computing thread (:meth:`partitions_for`).
    thread_partition: Optional[BlockShape] = None
    #: Seconds before a dispatched sub-task is declared failed (Fig 10).
    task_timeout: float = 30.0
    #: Seconds before a sub-sub-task restarts its computing thread (Fig 12).
    subtask_timeout: float = 10.0
    #: Re-dispatches allowed per sub-task before the run aborts.
    max_retries: int = 3
    #: Poll interval of the real backends' service loops, seconds.
    poll_interval: float = 0.02
    #: What an experiment does to the run (testing / ablation / chaos):
    #: task- and thread-level crash / hang rules, message, worker and
    #: I/O faults, and the master kill switch
    #: (:class:`~repro.cluster.faults.Faults`). A plain class-level
    #: default, so a config pickled before the field existed reads as
    #: "no faults".
    faults: Faults = Faults()
    #: What a journal write failure degrades to once
    #: :attr:`journal_retries` in-place retries are spent: ``"abort"``
    #: raises a clean attributed
    #: :class:`~repro.utils.errors.ResourceExhausted`; ``"checkpoint"``
    #: first compacts the journal (freeing every subsumed record's disk)
    #: and retries once more before aborting; ``"memory"`` drops
    #: durability — the journal file is removed, the run continues
    #: in-memory-only, and the degradation is recorded as a
    #: ``resource-degrade`` obs event.
    journal_degrade: str = "abort"
    #: In-place retries of a failed journal/WAL record write before the
    #: :attr:`journal_degrade` policy engages (transient ENOSPC/EIO
    #: absorb here).
    journal_retries: int = 2
    #: Base delay before re-dispatching a timed-out sub-task, seconds;
    #: doubles per attempt (exponential backoff) up to
    #: :attr:`retry_backoff_max`. 0 = immediate re-dispatch (the paper's
    #: behaviour).
    retry_backoff: float = 0.0
    #: Ceiling of the exponential retry backoff, seconds.
    retry_backoff_max: float = 2.0
    #: Blacklist a worker after this many timeout-attributed failures;
    #: its in-flight work is re-queued and it receives no further tasks.
    #: Degrades gracefully: the last healthy worker is never blacklisted.
    #: None disables blacklisting.
    blacklist_threshold: Optional[int] = None
    #: Abort with :class:`~repro.utils.errors.FaultToleranceExhausted`
    #: when no dispatch is live and no progress happened for this many
    #: seconds (all workers presumed lost) — the guarantee that a fault
    #: storm ends in a clean abort, never a hang. None derives
    #: ``2 * task_timeout + 1``.
    stall_timeout: Optional[float] = None
    #: Path of the write-ahead commit journal (:mod:`repro.durable`); the
    #: master writes through on every commit and ``repro resume`` can
    #: reconstruct the run after a master crash. None disables journaling.
    journal_path: Optional[str] = None
    #: Commits between compacted journal checkpoints (snapshot of the
    #: committed DP region + retry budgets).
    checkpoint_interval: int = 32
    #: fsync the journal after every record (survives OS crashes, not just
    #: process death). Overridable via ``REPRO_JOURNAL_FSYNC``.
    journal_fsync: bool = field(default_factory=_env("REPRO_JOURNAL_FSYNC", True, bool))
    #: Seconds between slave heartbeat beacons; enables the heartbeat/
    #: lease liveness protocol (leases expire after
    #: ``heartbeat_interval * lease_factor`` of silence and drive
    #: re-dispatch before the hard timeout). None keeps the paper's
    #: inference-only liveness.
    heartbeat_interval: Optional[float] = None
    #: Lease duration as a multiple of the heartbeat interval (tolerates
    #: ``lease_factor - 1`` consecutive lost heartbeats).
    lease_factor: float = 3.0
    #: Simulated-cluster description; None derives one from nodes/threads.
    cluster: Optional[ClusterSpec] = None
    #: Record runtime telemetry (:mod:`repro.obs`): the task-lifecycle
    #: event stream and the metrics snapshot land on the report's
    #: ``events`` / ``metrics`` (its Gantt ``trace`` derives from the
    #: events) and can be exported to Perfetto JSON via
    #: ``repro run --trace-out``. Off by default — the disabled path is
    #: a shared no-op recorder with no per-task cost.
    observe: bool = False
    #: Model slave-side input caching (simulated backend): re-dispatching
    #: near a node's previous blocks skips re-shipping the data it already
    #: holds. Off by default — the paper's master re-sends per task.
    data_reuse: bool = False
    #: Run the happens-before trace validator (:mod:`repro.check`) over
    #: every schedule: master and slave levels on the real backends, the
    #: event log on the simulated one. A violation raises
    #: :class:`~repro.utils.errors.CheckError` instead of returning wrong
    #: cells. Defaults from the ``REPRO_VERIFY`` environment variable so a
    #: whole test run can opt in at once.
    verify: bool = field(default_factory=_env("REPRO_VERIFY", False, bool))
    #: End-to-end result integrity mode (:mod:`repro.integrity`):
    #: ``"off"`` computes no digests (zero-cost path), ``"digest"`` stamps
    #: and verifies canonical content digests on every TaskAssign/
    #: TaskResult hop, ``"audit"`` additionally recomputes a sampled
    #: fraction of commits master-side and taint-recomputes the dependent
    #: closure of any convicted block, ``"vote"`` requires ``vote_k``
    #: agreeing results from distinct workers per commit (escalating to 3
    #: on divergence). Overridable via ``REPRO_INTEGRITY``.
    integrity: str = field(default_factory=_env("REPRO_INTEGRITY", "digest"))
    #: Fraction of commits audited under ``integrity="audit"`` (a
    #: deterministic per-task sample, budget-exempt).
    audit_fraction: float = 0.125
    #: Agreeing results required per commit under ``integrity="vote"``.
    vote_k: int = 2
    #: Quarantine a worker after this many divergence convictions (audit
    #: mismatches or lost votes). Distinct from the liveness blacklist:
    #: a lying worker still heartbeats, so only conviction removes it.
    quarantine_threshold: int = 2
    #: Batched wavefront dispatch: the ``BatchAssign`` envelope an idle
    #: worker is answered with carries an entire computable anti-diagonal
    #: wave (up to :attr:`max_batch` sub-tasks) instead of one, and its
    #: ``BatchResult`` answers for all of them — amortizing the
    #: per-message α cost the cluster link model charges. Every subtask
    #: keeps its own epoch, lease, digest, and journal commit, so
    #: retry/durability/SDC semantics are unchanged. Off by default (a
    #: wave of one: one task per message, the paper's protocol).
    #: Overridable via ``REPRO_BATCH_WAVE``.
    batch_wave: bool = field(default_factory=_env("REPRO_BATCH_WAVE", False, bool))
    #: Largest wave one ``BatchAssign`` may carry under
    #: :attr:`batch_wave`.
    max_batch: int = 8
    #: Zero-copy shared-memory data plane (processes backend only):
    #: large block payloads move through ``multiprocessing.shared_memory``
    #: segments as :class:`~repro.comm.messages.BlockRef` handles instead
    #: of being pickled through the pipe (:mod:`repro.comm.shm`). Other
    #: backends ignore it (threads already share memory; serial and
    #: simulated move no real bytes). Overridable via ``REPRO_SHM``.
    shm: bool = field(default_factory=_env("REPRO_SHM", False, bool))
    #: Stable identifier of this run within a multi-run process (the
    #: ``repro serve`` daemon sets it to the job id). Keys the shm
    #: segment namespace (:func:`repro.comm.shm.run_prefix`) so each
    #: job's teardown sweep reclaims exactly its own segments, and rides
    #: on :class:`~repro.utils.errors.FaultToleranceExhausted` plus the
    #: abort-path telemetry so multi-job traces attribute aborts to the
    #: right tenant. None for standalone runs.
    run_id: Optional[str] = None

    def __post_init__(self) -> None:
        check_in("backend", self.backend, BACKENDS)
        check_in("scheduler", self.scheduler, POLICIES)
        check_in("thread_scheduler", self.thread_scheduler, POLICIES)
        check_type("faults", self.faults, Faults)
        check_in("journal_degrade", self.journal_degrade, JOURNAL_DEGRADE_MODES)
        if self.journal_retries < 0:
            raise ConfigError(
                f"journal_retries must be >= 0, got {self.journal_retries}"
            )
        check_type("verify", self.verify, bool)
        check_type("observe", self.observe, bool)
        if self.cluster is not None:
            check_type("cluster", self.cluster, ClusterSpec)
        if self.nodes < 2 and self.backend != "serial":
            raise ConfigError(f"need >= 2 nodes (master + slave), got {self.nodes}")
        check_positive("threads_per_node", self.threads_per_node)
        check_positive("task_timeout", self.task_timeout)
        check_positive("subtask_timeout", self.subtask_timeout)
        check_positive("poll_interval", self.poll_interval)
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ConfigError(f"retry_backoff must be >= 0, got {self.retry_backoff}")
        check_positive("retry_backoff_max", self.retry_backoff_max)
        if self.blacklist_threshold is not None and self.blacklist_threshold < 1:
            raise ConfigError(
                f"blacklist_threshold must be >= 1, got {self.blacklist_threshold}"
            )
        if self.stall_timeout is not None:
            check_positive("stall_timeout", self.stall_timeout)
        check_positive("checkpoint_interval", self.checkpoint_interval)
        check_positive("lease_factor", self.lease_factor)
        if self.heartbeat_interval is not None:
            check_positive("heartbeat_interval", self.heartbeat_interval)
        check_type("journal_fsync", self.journal_fsync, bool)
        if self.journal_path is not None:
            check_type("journal_path", self.journal_path, str)
        from repro.integrity import INTEGRITY_MODES

        check_in("integrity", self.integrity, INTEGRITY_MODES)
        if not 0.0 <= self.audit_fraction <= 1.0:
            raise ConfigError(
                f"audit_fraction must be in [0, 1], got {self.audit_fraction}"
            )
        if self.vote_k < 2:
            raise ConfigError(f"vote_k must be >= 2, got {self.vote_k}")
        if self.quarantine_threshold < 1:
            raise ConfigError(
                f"quarantine_threshold must be >= 1, got {self.quarantine_threshold}"
            )
        check_type("batch_wave", self.batch_wave, bool)
        check_type("shm", self.shm, bool)
        check_positive("max_batch", self.max_batch)
        if self.run_id is not None:
            check_type("run_id", self.run_id, str)
            if not self.run_id:
                raise ConfigError("run_id must be a non-empty string or None")

    # -- derived ------------------------------------------------------------

    @property
    def n_slaves(self) -> int:
        return self.nodes - 1

    @property
    def effective_stall_timeout(self) -> float:
        """The no-progress abort deadline (derived when not set)."""
        if self.stall_timeout is not None:
            return self.stall_timeout
        return 2.0 * self.task_timeout + 1.0

    @property
    def lease_duration(self) -> Optional[float]:
        """Granted lease length (``heartbeat_interval * lease_factor``);
        None when the heartbeat/lease protocol is off."""
        if self.heartbeat_interval is None:
            return None
        return self.heartbeat_interval * self.lease_factor

    @property
    def integrity_policy(self):
        """Resolved :class:`~repro.integrity.IntegrityPolicy` of this run."""
        from repro.integrity import IntegrityPolicy

        return IntegrityPolicy.from_config(self)

    def partitions_for(self, problem) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Resolve the (process, thread) partition sizes for a problem. An
        unset thread size follows the computing threads a block is shared
        among: one on the serial backend, else the widest node of an
        explicit ``cluster``, else ``threads_per_node``."""
        if self.backend == "serial":
            threads = 1
        elif self.cluster is not None:
            threads = max(node.threads for node in self.cluster.compute_nodes)
        else:
            threads = self.threads_per_node
        proc, thread = problem.default_partition_sizes(threads, self.process_partition)
        if self.thread_partition is not None:
            thread = _as_pair(self.thread_partition)
        return proc, thread

    def cluster_spec(self) -> ClusterSpec:
        """The simulated cluster: explicit spec, or one derived from
        ``nodes``/``threads_per_node``."""
        if self.cluster is not None:
            return self.cluster
        from repro.cluster.machine import NodeSpec

        return ClusterSpec(
            compute_nodes=tuple(NodeSpec(threads=self.threads_per_node) for _ in range(self.n_slaves))
        )

    @classmethod
    def experiment(cls, nodes: int, cores: int, **overrides) -> "RunConfig":
        """The paper's ``Experiment_X_Y``: ``cores`` total on ``nodes`` nodes.

        Builds the matching simulated cluster (uneven thread splits
        round-robin) and defaults the backend to "simulated".
        """
        spec = experiment_layout(nodes, cores)
        threads = spec.compute_nodes[0].threads
        base = cls(
            nodes=nodes,
            threads_per_node=threads,
            backend="simulated",
            cluster=spec,
        )
        return replace(base, **overrides) if overrides else base
