"""Typed protocol messages of the EasyHPS master/slave loops.

The protocol is the one exchange of the paper's Figs 9 and 11:

1. a slave announces itself idle (:class:`IdleSignal`, Fig 11 step a);
2. the master answers with computable sub-tasks and their necessary data
   (one :class:`BatchAssign` envelope of :class:`TaskAssign` elements,
   Fig 9 step d) or with :class:`EndSignal` (Fig 9 step i);
3. the slave computes and replies (one :class:`BatchResult` envelope of
   :class:`TaskResult` elements, Fig 11 / Fig 9 step e).

A lone assignment is a wave of one: the runtime only ever sends
envelopes, and everything that handles a payload (byte model, shm
encoding, chaos mutation) goes through :attr:`Message.elements` /
:meth:`Message.with_elements`, so it is written once. The elements stay
:class:`Message` instances — a raw channel carries a bare one as a
message of one element (the transport probes do).

``epoch`` implements the fault-tolerance bookkeeping of the sub-task
register table: every (re)dispatch of a task bumps its epoch, and the
master discards results whose epoch no longer matches the registration —
that is how a timed-out task that eventually *does* answer cannot corrupt
a rerun's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, Optional, Sequence, Tuple

#: Sub-task identifier: a vertex of the abstract (process-level) DAG.
TaskId = Tuple[int, ...]


@dataclass(frozen=True)
class Message:
    """Base class for all protocol messages (picklable value objects)."""

    @property
    def elements(self) -> Tuple["Element", ...]:
        """The per-sub-task elements this message carries: an envelope's,
        a bare element itself, none for a signal."""
        return ()

    def with_elements(self, elements: Sequence["Element"]) -> "Message":
        """This message carrying ``elements`` instead of its own."""
        return self


class Element(Message):
    """One sub-task's share of an envelope: its own epoch, lease and
    digest (Fig 10 semantics are per element), and one payload dict."""

    #: Name of the field holding the payload dict.
    payload_field: ClassVar[str]

    @property
    def payload(self) -> Dict[str, Any]:
        return getattr(self, self.payload_field)

    def with_payload(self, payload: Dict[str, Any], **fields: Any) -> "Element":
        return replace(self, **{self.payload_field: payload}, **fields)

    @property
    def elements(self) -> Tuple["Element", ...]:
        return (self,)

    def with_elements(self, elements: Sequence["Element"]) -> "Message":
        (only,) = elements
        return only


class Envelope(Message):
    """What the wire carries between master and slave: the elements of
    one wave. Its identity — what a fault rule targets and per-message
    telemetry attributes to — is its first element's, the key the
    simulator uses."""

    #: Name of the field holding the element tuple.
    elements_field: ClassVar[str]

    @property
    def elements(self) -> Tuple[Element, ...]:
        return getattr(self, self.elements_field)

    def with_elements(self, elements: Sequence[Element]) -> "Message":
        return replace(self, **{self.elements_field: tuple(elements)})

    @property
    def task_id(self) -> Optional[TaskId]:
        return self.elements[0].task_id if self.elements else None

    @property
    def epoch(self) -> int:
        return self.elements[0].epoch if self.elements else -1


@dataclass(frozen=True)
class IdleSignal(Message):
    """Slave -> master: ready for work."""

    slave_id: int


@dataclass(frozen=True)
class TaskAssign(Element):
    """Master -> slave: one computable sub-task with its necessary data
    (an element of :class:`BatchAssign`).

    ``lease`` is the heartbeat lease the master granted for this dispatch
    (seconds; 0 when the lease protocol is off): the slave must be heard
    from — any message, heartbeats included — within each lease window or
    the dispatch is cancelled and redistributed before its hard timeout.
    """

    payload_field = "inputs"

    task_id: TaskId
    epoch: int
    inputs: Dict[str, Any] = field(compare=False)
    lease: float = 0.0
    #: Canonical content digest of ``inputs``
    #: (:func:`repro.comm.serialization.content_digest`); None when the
    #: run's integrity mode is ``off`` — receivers then skip verification.
    digest: Optional[str] = None


@dataclass(frozen=True)
class TaskResult(Element):
    """Slave -> master: a finished sub-task's computed data (an element
    of :class:`BatchResult`)."""

    payload_field = "outputs"

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
class BatchAssign(Envelope):
    """Master -> slave: the assignment envelope — one sub-task, or under
    ``batch_wave`` a computable anti-diagonal wave of up to ``max_batch``.

    Each element is a fully-formed :class:`TaskAssign` — registered,
    leased, and digest-stamped individually — so retry/lease/journal
    semantics stay per-subtask; only the *transport* is amortized (one
    message envelope for the whole wave, the α term of the link model).
    """

    elements_field = "assigns"

    assigns: Tuple[TaskAssign, ...]


@dataclass(frozen=True)
class BatchResult(Envelope):
    """Slave -> master: every finished sub-task of one assignment envelope.

    Mirrors :class:`BatchAssign`: each element is a complete
    :class:`TaskResult` (own epoch, elapsed, digest) and the master
    verifies/commits them one by one; a worker that dies mid-wave simply
    never sends the envelope and every registered subtask times out.
    """

    elements_field = "results"

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
