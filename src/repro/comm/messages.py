"""Typed protocol messages of the EasyHPS master/slave loops.

The protocol is exactly the paper's Figs 9 and 11:

1. a slave announces itself idle (:class:`IdleSignal`, Fig 11 step a);
2. the master answers with a computable sub-task and its necessary data
   (:class:`TaskAssign`, Fig 9 step d) or with :class:`EndSignal`
   (Fig 9 step i);
3. the slave computes and replies (:class:`TaskResult`, Fig 11 / Fig 9
   step e).

``epoch`` implements the fault-tolerance bookkeeping of the sub-task
register table: every (re)dispatch of a task bumps its epoch, and the
master discards results whose epoch no longer matches the registration —
that is how a timed-out task that eventually *does* answer cannot corrupt
a rerun's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Sub-task identifier: a vertex of the abstract (process-level) DAG.
TaskId = Tuple[int, ...]


@dataclass(frozen=True)
class Message:
    """Base class for all protocol messages (picklable value objects)."""


@dataclass(frozen=True)
class IdleSignal(Message):
    """Slave -> master: ready for work."""

    slave_id: int


@dataclass(frozen=True)
class TaskAssign(Message):
    """Master -> slave: one computable sub-task with its necessary data.

    ``lease`` is the heartbeat lease the master granted for this dispatch
    (seconds; 0 when the lease protocol is off): the slave must be heard
    from — any message, heartbeats included — within each lease window or
    the dispatch is cancelled and redistributed before its hard timeout.
    """

    task_id: TaskId
    epoch: int
    inputs: Dict[str, Any] = field(compare=False)
    lease: float = 0.0
    #: Canonical content digest of ``inputs``
    #: (:func:`repro.comm.serialization.content_digest`); None when the
    #: run's integrity mode is ``off`` — receivers then skip verification.
    digest: Optional[str] = None


@dataclass(frozen=True)
class TaskResult(Message):
    """Slave -> master: a finished sub-task's computed data."""

    task_id: TaskId
    epoch: int
    slave_id: int
    outputs: Dict[str, Any] = field(compare=False)
    #: Slave-side wall-clock seconds spent computing (reporting only).
    elapsed: float = 0.0
    #: Thread-level regions the slave ran for it (reporting only).
    subtasks: int = 0
    #: Canonical content digest of ``outputs``; None when integrity is off.
    digest: Optional[str] = None


@dataclass(frozen=True)
class BlockRef:
    """Handle to a DP block parked in a shared-memory segment.

    Not a :class:`Message` — a ``BlockRef`` rides *inside* a task
    message's payload dict where the ndarray used to be, and the
    receiving :class:`~repro.comm.shm.ShmChannel` rehydrates it back
    into an ndarray before the runtime sees the message. The digest of
    a rehydrated block is bit-identical to the digest of the original
    array (same dtype/shape/C-order bytes), so the integrity tier never
    notices the transport changed.
    """

    #: ``multiprocessing.shared_memory`` segment name (run-prefixed).
    segment: str
    #: ``numpy.dtype.str`` of the parked array.
    dtype: str
    shape: Tuple[int, ...]
    #: Byte length of the parked C-order buffer.
    nbytes: int


@dataclass(frozen=True)
class BatchAssign(Message):
    """Master -> slave: one computable anti-diagonal wave in one envelope.

    Each element is a fully-formed :class:`TaskAssign` — registered,
    leased, and digest-stamped individually — so retry/lease/journal
    semantics stay per-subtask; only the *transport* is amortized (one
    message envelope for the whole wave, the α term of the link model).
    """

    assigns: Tuple[TaskAssign, ...]


@dataclass(frozen=True)
class BatchResult(Message):
    """Slave -> master: every finished sub-task of one assigned wave.

    Mirrors :class:`BatchAssign`: each element is a complete
    :class:`TaskResult` (own epoch, elapsed, digest) and the master
    verifies/commits them one by one; a worker that dies mid-wave simply
    never sends the envelope and every registered subtask times out.
    """

    slave_id: int
    results: Tuple[TaskResult, ...]


@dataclass(frozen=True)
class Heartbeat(Message):
    """Slave -> master: periodic liveness beacon (lease renewal).

    Sent every ``heartbeat_interval`` seconds from a dedicated slave
    thread, including *while computing* — which is exactly when the idle
    announcement loop goes quiet. The master renews every lease held by
    ``slave_id`` on receipt; a worker whose heartbeats stop loses its
    leases and its in-flight dispatches are redistributed without waiting
    for the full task timeout.
    """

    slave_id: int
    #: The sub-task the slave is currently computing, if any (reporting).
    task_id: Any = None
    epoch: int = -1


@dataclass(frozen=True)
class WorkerLeave(Message):
    """Slave -> master: clean departure from the worker pool (elastic
    membership). The master retires the worker immediately — its in-flight
    dispatches are re-queued without charging any retry budget, and it is
    never assigned further work. The counterpart, joining mid-run, is
    master-side: :meth:`repro.runtime.master.MasterPart.attach_worker`.
    """

    slave_id: int


@dataclass(frozen=True)
class EndSignal(Message):
    """Master -> slave: all sub-tasks finished; shut down (Fig 11 step k)."""
