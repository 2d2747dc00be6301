"""Job model of the ``repro serve`` daemon.

A *job* is one DP run owned by a tenant: the :class:`JobSpec` names the
instance (algorithm, size, seed — problems are rebuilt deterministically
from these coordinates, so the submission WAL and the wire protocol only
ever carry plain JSON-safe dicts), the cluster shape it wants, a
deadline, and an optional seeded chaos profile (the fault-injection
hook the service chaos tier submits through, exactly like any other
tenant traffic). The :class:`JobRecord` is the daemon's mutable view:
admission/start/finish timestamps, the lifecycle state, and the
recorded outcome.

Lifecycle::

    queued -> running -> done      (finished; state committed)
                      -> aborted   (clean FaultToleranceExhausted,
                                    deadline cancel, or daemon kill)
                      -> error     (unexpected exception — isolated,
                                    recorded, never propagated)
           -> cancelled            (cancelled or drained before start)

Every terminal state carries a human-readable ``detail`` so ``repro
jobs`` and the chaos tier can attribute the outcome without scraping
logs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.utils.errors import ConfigError

#: Lifecycle states of a job record.
JOB_STATES: Tuple[str, ...] = (
    "queued", "running", "done", "aborted", "error", "cancelled",
)

#: States a job never leaves.
TERMINAL_STATES: Tuple[str, ...] = ("done", "aborted", "error", "cancelled")

#: Recognized keys of a spec's ``chaos`` profile (all floats; ``seed``
#: is truncated to int, every other key is a
#: :meth:`~repro.cluster.faults.Faults.random` keyword). Unknown keys,
#: and values ``Faults.random`` refuses, are rejected at validation so a
#: typo cannot silently disable a campaign's sabotage tier.
CHAOS_KEYS: Tuple[str, ...] = (
    "seed", "message_p", "worker_p_die", "worker_p_slow", "worker_p_lie",
    "task_fault_p",
)

_job_counter = itertools.count(1)


def next_job_id(prefix: str = "job") -> str:
    """A fresh process-unique job id (``<prefix>-<n>``). The daemon
    re-primes the counter past any id recovered from the WAL."""
    return f"{prefix}-{next(_job_counter)}"


def prime_job_counter(floor: int) -> None:
    """Advance the id counter past ``floor`` (WAL resume: fresh ids must
    not collide with recovered ones)."""
    global _job_counter
    current = next(_job_counter)
    _job_counter = itertools.count(max(current, floor + 1))


@dataclass(frozen=True)
class JobSpec:
    """What one tenant asked the daemon to run (JSON-safe)."""

    tenant: str = "default"
    algo: str = "edit-distance"
    size: int = 48
    seed: int = 0
    #: Cluster shape the job wants: ``nodes - 1`` fleet workers. The
    #: daemon degrades to fewer when the fleet is smaller.
    nodes: int = 3
    scheduler: str = "dynamic"
    #: Seconds from *start* before the daemon cleanly cancels the run
    #: (a recorded abort, never a hang). None = no per-job deadline.
    deadline: Optional[float] = None
    max_retries: int = 8
    integrity: str = "digest"
    #: Seeded fault profile injected into this job only (the service
    #: chaos tier's sabotage hook; see :data:`CHAOS_KEYS`). Empty = no
    #: injected faults.
    chaos: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tenant or not isinstance(self.tenant, str):
            raise ConfigError(f"tenant must be a non-empty string, got {self.tenant!r}")
        if self.size < 2:
            raise ConfigError(f"size must be >= 2, got {self.size}")
        if self.nodes < 2:
            raise ConfigError(f"nodes must be >= 2 (master + worker), got {self.nodes}")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError(f"deadline must be > 0, got {self.deadline}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.chaos:
            from repro.cluster.faults import Faults

            for key, value in self.chaos.items():
                if key not in CHAOS_KEYS:
                    raise ConfigError(
                        f"unknown chaos knob {key!r}; known: {CHAOS_KEYS}"
                    )
                if key != "seed":
                    try:
                        Faults.random(**{key: value})
                    except ConfigError as exc:
                        raise ConfigError(f"chaos knob {key!r}: {exc}") from None

    @property
    def workers_wanted(self) -> int:
        return self.nodes - 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "algo": self.algo,
            "size": self.size,
            "seed": self.seed,
            "nodes": self.nodes,
            "scheduler": self.scheduler,
            "deadline": self.deadline,
            "max_retries": self.max_retries,
            "integrity": self.integrity,
            "chaos": dict(self.chaos),
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "JobSpec":
        known = {
            "tenant", "algo", "size", "seed", "nodes", "scheduler",
            "deadline", "max_retries", "integrity", "chaos",
        }
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown job spec fields: {unknown}")
        out: Dict[str, Any] = dict(raw)
        if "chaos" in out and out["chaos"] is None:
            out["chaos"] = {}
        return cls(**out)


@dataclass
class JobRecord:
    """The daemon's mutable view of one admitted job."""

    job_id: str
    spec: JobSpec
    status: str = "queued"
    #: Clock readings on the daemon's clock (monotonic seconds).
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Human-readable outcome (abort reason, cancel cause, digest, ...).
    detail: str = ""
    #: Machine-readable terminal attribution (e.g.
    #: ``resource-exhausted:disk:journal-write``); empty for ordinary
    #: completions.
    reason: str = ""
    #: Estimated work (flops of the process-level partition) — feeds the
    #: SJF/HRRN/lottery ordering policies. Stamped at admission.
    est_cost: float = 0.0
    #: Worker ids the fleet allocated (informational; live only).
    workers: Tuple[int, ...] = ()
    #: Final DP state (kept only when the daemon was built with
    #: ``keep_states=True`` — the chaos tier's oracle diff needs it).
    state: Optional[Dict[str, Any]] = None
    #: Rolling run digest of the finished run, when integrity was on.
    run_digest: Optional[str] = None
    #: The job resumed from a per-job journal after a daemon crash.
    resumed: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def wait_seconds(self, now: float) -> float:
        """Queue wait so far (or total, once started)."""
        start = self.started_at if self.started_at is not None else now
        return max(0.0, start - self.submitted_at)

    def run_seconds(self, now: float) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at if self.finished_at is not None else now
        return max(0.0, end - self.started_at)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe view for ``repro jobs`` and the IPC server."""
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "algo": self.spec.algo,
            "size": self.spec.size,
            "status": self.status,
            "detail": self.detail,
            "reason": self.reason,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "workers": list(self.workers),
            "resumed": self.resumed,
            "run_digest": self.run_digest,
        }
