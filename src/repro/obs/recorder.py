"""The unified telemetry event stream.

Every backend feeds one append-only stream of :class:`ObsEvent` records
describing the sub-task lifecycle the paper's figures measure::

    assign -> send -> compute -> result -> commit
             (plus redistribute / stale-drop on the fault path)

Events are tagged with a ``scope``:

- ``task``    — process-level sub-task lifecycle (master's view);
- ``subtask`` — thread-level sub-sub-task events inside one slave;
- ``message`` — individual protocol messages on a channel endpoint.

Two recorders implement the same duck type:

- :class:`EventRecorder` — thread-safe collector, stamps events with an
  injected :class:`~repro.obs.clock.Clock` (sim-time or wall-time);
- :class:`NullRecorder` — the disabled path. It is a singleton
  (:data:`NULL_RECORDER`) with ``enabled = False`` and a no-op ``emit``;
  hot paths guard with ``if recorder.enabled:`` so a disabled run builds
  no event objects, no kwargs dicts, and allocates nothing per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.comm.messages import TaskId
from repro.obs.clock import Clock, ensure_clock

#: Event scopes (see module docstring).
SCOPES = ("task", "subtask", "message")

#: Task/subtask lifecycle kinds, in canonical per-task order. ``assign``
#: covers Fig 9's register+assign steps (registration in the register
#: table *is* the assignment instant); ``redistribute`` covers
#: timeout-detected + re-queued (Fig 10).
LIFECYCLE_KINDS = (
    "assign",
    "send",
    "compute",
    "result",
    "commit",
    "redistribute",
    "stale-drop",
)

#: Message-scope kinds emitted by instrumented channel endpoints.
MESSAGE_KINDS = ("msg-send", "msg-recv")

#: Fault-injection and hardened-recovery kinds (:mod:`repro.chaos`):
#: message faults at the channel boundary, worker-level faults, and the
#: recovery actions the master takes (backoff, blacklisting) plus leak
#: detection. These ride the same stream so every fault and every
#: recovery action is visible next to the lifecycle it disrupted.
CHAOS_KINDS = (
    "msg-drop",
    "msg-duplicate",
    "msg-delay",
    "msg-corrupt",
    "msg-bitflip",
    "worker-death",
    "worker-slow",
    "worker-liar",
    "worker-leak",
    "backoff",
    "blacklist",
)

#: Result-integrity kinds (:mod:`repro.integrity`): receive-side digest
#: verification, sampled audit recomputes and their convictions,
#: DAG-aware taint invalidation (``taint-invalidate`` marks a committed
#: task revoked for recompute), duplicate-dispatch voting, and worker
#: quarantine (the SDC analogue of ``blacklist`` — a lying worker still
#: heartbeats, so only semantic conviction removes it).
INTEGRITY_KINDS = (
    "digest-reject",
    "audit-pass",
    "audit-convict",
    "taint-invalidate",
    "vote-cast",
    "vote-divergence",
    "quarantine",
)

#: Durability and membership kinds (:mod:`repro.durable`): journal
#: checkpoints, resume replay, the heartbeat/lease liveness protocol,
#: and elastic worker join/leave. ``resume`` marks a run continued from
#: a journal (its ``n_committed`` counts replayed — not recomputed —
#: commits); ``lease-expired`` is the lease-driven liveness fault that
#: fires strictly before the hard task timeout.
DURABLE_KINDS = (
    "checkpoint",
    "resume",
    "heartbeat",
    "lease-expired",
    "worker-join",
    "worker-leave",
)

#: Profiling span kinds (:mod:`repro.obs.prof`): where a sub-task's time
#: goes besides compute and transfer. All three carry ``t0``/``t1`` span
#: extents in ``data``:
#:
#: - ``queue-wait`` — the task sat dispatchable on the master's
#:   computable stack from ``t0`` (pushed) to ``t1`` (assigned);
#: - ``journal-write`` — one write-ahead journal append (fsync
#:   included), with the framed bytes in ``nbytes``; a commit group's
#:   append (master, simulator) carries no task id and its size in
#:   ``n_tasks``;
#: - ``digest-compute`` — one canonical content-digest computation
#:   (``hop`` says which: ``assign``, ``verify``, ``commit``, ``audit``);
#: - ``shm-attach`` — one message's shared-memory payload attach+copy on
#:   the receive side (zero-copy data plane, ``config.shm``); ``ok``
#:   says whether every segment was still mapped, ``nbytes`` the bytes
#:   rehydrated. Message scope, attributed to the serialize bucket;
#: - ``batch-assemble`` — the master gathered one ``BatchAssign`` wave
#:   (``n_tasks`` elements, ``config.batch_wave``). A marker span kept
#:   out of the attribution buckets: the gather runs inside the dispatch
#:   path whose cost the per-message lanes already carry.
#:
#: Only emitted while observing, like every other kind — the disabled
#: path computes no timestamps and allocates nothing.
PROF_KINDS = (
    "queue-wait",
    "journal-write",
    "digest-compute",
    "shm-attach",
    "batch-assemble",
)


@dataclass(frozen=True)
class ObsEvent:
    """One telemetry event.

    ``ts`` is seconds in the recorder's clock domain. Span-like events
    (``compute``, and the simulated backend's ``send``) carry their true
    extent in ``data`` as ``t0``/``t1``; ``ts`` is when the event was
    *recorded*, which for spans is the completion side.
    """

    kind: str
    ts: float
    task_id: Optional[TaskId] = None
    epoch: int = -1
    #: Node the event describes: -1 = master, k >= 0 = slave/compute node.
    node: int = -1
    #: Worker lane within the node (slave id at task scope, computing
    #: thread id at subtask scope); -1 when not applicable.
    worker: int = -1
    scope: str = "task"
    seq: int = 0
    data: Optional[Dict[str, object]] = field(default=None, compare=True)

    def span(self) -> Optional[Tuple[float, float]]:
        """(t0, t1) when this event carries a span extent, else None."""
        if self.data is None:
            return None
        t0 = self.data.get("t0")
        t1 = self.data.get("t1")
        if t0 is None or t1 is None:
            return None
        return float(t0), float(t1)  # type: ignore[arg-type]


class NullRecorder:
    """Disabled recorder: a shared, stateless no-op.

    Kept deliberately attribute-free so a disabled run cannot accumulate
    storage; ``emit`` ignores everything and returns None.
    """

    __slots__ = ()

    enabled = False

    def emit(self, *args, **kwargs) -> None:
        return None

    def events(self) -> Tuple[ObsEvent, ...]:
        return ()

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullRecorder()"


#: The shared disabled recorder. Identity-checked in tests to prove the
#: disabled path allocates nothing.
NULL_RECORDER = NullRecorder()


class EventRecorder:
    """Thread-safe append-only event collector.

    One recorder spans a whole run: the master, the in-process slaves,
    and instrumented channel endpoints all emit into it, so ``seq`` is a
    single linearization of the run's telemetry.
    """

    __slots__ = ("clock", "_events", "_lock")

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        from repro.check.lock_lint import make_lock

        self.clock = ensure_clock(clock)
        self._events: List[ObsEvent] = []
        self._lock = make_lock("obs.event_recorder")

    def emit(
        self,
        kind: str,
        task_id: Optional[TaskId] = None,
        *,
        epoch: int = -1,
        node: int = -1,
        worker: int = -1,
        scope: str = "task",
        ts: Optional[float] = None,
        **data: object,
    ) -> ObsEvent:
        """Record one event; ``ts`` defaults to the recorder's clock."""
        stamp = self.clock.now() if ts is None else ts
        with self._lock:
            ev = ObsEvent(
                kind=kind,
                ts=stamp,
                task_id=task_id,
                epoch=epoch,
                node=node,
                worker=worker,
                scope=scope,
                seq=len(self._events),
                data=dict(data) if data else None,
            )
            self._events.append(ev)
            return ev

    def events(self) -> Tuple[ObsEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        return f"EventRecorder({len(self)} events)"
