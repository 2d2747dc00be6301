"""Admission control: the bounded submission queue and load shedding.

Every submission gets a structured :class:`AdmissionDecision` — accepted
with a job id, or shed with a machine-readable reason — and gets it
*immediately*: the queue is bounded, a full queue or a draining daemon
rejects instead of blocking, so a client can never hang on submit. Shed
counts are tracked per tenant so overload behaviour shows up in
``repro stats`` rather than in lost requests.

The controller owns the queue mutations under one lock; the daemon's
scheduler thread waits on the controller's condition for new work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.lock_lint import make_condition
from repro.serve.job import JobRecord
from repro.serve.policy import OrderingPolicy
from repro.utils.errors import ConfigError

#: Machine-readable rejection reasons (``AdmissionDecision.reason``
#: starts with one of these).
SHED_QUEUE_FULL = "queue-full"
SHED_DRAINING = "draining"
SHED_INVALID = "invalid-spec"
#: Host resource watermark breached (disk/memory/fd — see
#: :mod:`repro.serve.pressure`; also used by the daemon for WAL-write
#: failures as ``resource-pressure:wal-write``).
SHED_RESOURCE = "resource-pressure"


@dataclass(frozen=True)
class AdmissionDecision:
    """The immediate, structured answer to one submission."""

    accepted: bool
    job_id: Optional[str]
    #: ``accepted`` | ``queue-full: ...`` | ``draining: ...`` |
    #: ``invalid-spec: ...``
    reason: str
    #: Queue depth observed at decision time (after enqueue if accepted).
    queue_depth: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "accepted": self.accepted,
            "job_id": self.job_id,
            "reason": self.reason,
            "queue_depth": self.queue_depth,
        }


class AdmissionController:
    """Bounded FIFO queue with backpressure and per-tenant shed counters."""

    def __init__(
        self,
        capacity: int,
        *,
        pressure_probe: Optional[Callable[[], Optional[str]]] = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._cond = make_condition("serve.admission")
        self._queue: List[JobRecord] = []
        #: Admitted with ``hold=True`` and not yet published: each holds
        #: its queue slot but the scheduler cannot pop it.
        self._held: Dict[str, JobRecord] = {}
        self._draining = False
        self.shed_by_tenant: Dict[str, int] = {}
        self.admitted = 0
        #: Optional host watermark check (:meth:`repro.serve.pressure
        #: .PressureProbe.check` or any nullary returning a shed reason
        #: or None). Consulted on every admit, never on restore/requeue.
        self.pressure_probe = pressure_probe
        self.resource_sheds = 0

    # -- submission side -------------------------------------------------

    def admit(self, record: JobRecord, *, hold: bool = False) -> AdmissionDecision:
        """Enqueue ``record`` or shed it, never blocking the caller.

        ``hold=True`` reserves the slot without making the record
        poppable: the daemon holds a job until its write-ahead submission
        record is durable, then :meth:`publish`-es it (or :meth:`cancel`-s
        it when the write fails), so a job whose acceptance could not be
        journaled can never have been launched.
        """
        with self._cond:
            if self._draining:
                self._shed(record)
                return AdmissionDecision(
                    False, None,
                    f"{SHED_DRAINING}: daemon is draining, not accepting jobs",
                    len(self._queue),
                )
            if self.pressure_probe is not None:
                pressure = self.pressure_probe()
                if pressure is not None:
                    self._shed(record)
                    self.resource_sheds += 1
                    return AdmissionDecision(
                        False, None, pressure, len(self._queue)
                    )
            depth = len(self._queue) + len(self._held)
            if depth >= self.capacity:
                self._shed(record)
                return AdmissionDecision(
                    False, None,
                    f"{SHED_QUEUE_FULL}: depth {depth} >= cap "
                    f"{self.capacity}; retry later",
                    depth,
                )
            self.admitted += 1
            if hold:
                self._held[record.job_id] = record
            else:
                self._queue.append(record)
                self._cond.notify_all()
            return AdmissionDecision(True, record.job_id, "accepted", depth + 1)

    def publish(self, record: JobRecord) -> bool:
        """Queue a held record for the scheduler. False when the daemon
        began draining meanwhile (the caller cancels the job, as the
        drain would have) or the hold was already cancelled."""
        with self._cond:
            if self._held.pop(record.job_id, None) is None or self._draining:
                return False
            self._queue.append(record)
            self._cond.notify_all()
            return True

    def _shed(self, record: JobRecord) -> None:
        tenant = record.spec.tenant
        self.shed_by_tenant[tenant] = self.shed_by_tenant.get(tenant, 0) + 1

    # -- scheduler side --------------------------------------------------

    def pop_next(
        self,
        policy: OrderingPolicy,
        now: float,
        *,
        launchable: Optional[Callable[[JobRecord], bool]] = None,
    ) -> Optional[JobRecord]:
        """Remove and return the job ``policy`` picks, or None if empty.

        ``launchable`` filters the candidate set (e.g. "fits the idle
        fleet right now") without consuming queue order for jobs that
        cannot start yet.
        """
        with self._cond:
            if launchable is None:
                candidates = list(self._queue)
            else:
                candidates = [r for r in self._queue if launchable(r)]
            if not candidates:
                return None
            picked = candidates[policy.select(candidates, now)]
            self._queue.remove(picked)
            return picked

    def requeue(self, record: JobRecord) -> None:
        """Put a popped-but-unlaunched job back at the queue head.

        Covers the pop/acquire race (the fleet went busy between the
        policy's pick and the worker reservation); bypasses the capacity
        check because the job was already admitted once.
        """
        with self._cond:
            self._queue.insert(0, record)
            self._cond.notify_all()

    def restore(self, record: JobRecord) -> None:
        """Re-admit a WAL-recovered job, ignoring capacity.

        ``--resume`` must never shed work the dead daemon already
        acknowledged, even if the recovered backlog exceeds the bound.
        """
        with self._cond:
            self._queue.append(record)
            self.admitted += 1
            self._cond.notify_all()

    def wait_for_work(self, timeout: float) -> bool:
        """Block until the queue is non-empty, draining, or ``timeout``."""
        with self._cond:
            if self._queue or self._draining:
                return True
            return self._cond.wait(timeout)

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Remove a still-queued (or held) job; None if it is neither."""
        with self._cond:
            held = self._held.pop(job_id, None)
            if held is not None:
                return held
            for record in self._queue:
                if record.job_id == job_id:
                    self._queue.remove(record)
                    return record
            return None

    def drain(self) -> Tuple[JobRecord, ...]:
        """Stop admitting; return (and clear) everything still queued."""
        with self._cond:
            self._draining = True
            leftover = tuple(self._queue)
            self._queue.clear()
            self._cond.notify_all()
            return leftover

    @property
    def draining(self) -> bool:
        with self._cond:
            return self._draining

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._queue) + len(self._held)

    def snapshot(self) -> Tuple[JobRecord, ...]:
        with self._cond:
            return tuple(self._queue)
