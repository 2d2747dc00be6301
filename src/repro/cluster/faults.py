"""Fault injection for exercising the hierarchical fault tolerance.

EasyHPS detects faults purely by timeout (Section V): a sub-task that does
not finish within the configured duration is assumed dead, unregistered,
and redistributed; a sub-sub-task timeout restarts the computing thread.
The injectors here produce the observable behaviours that mechanism (and
the hardened recovery layered on top of it) reacts to, at three levels:

- **task level** (:class:`FaultPlan`) — a dispatched computation ``crash``\\ es
  (dies without replying) or ``hang``\\ s (answers late, past the deadline);
- **message level** (:class:`MessageFaultPlan`) — an individual protocol
  message is ``drop``\\ ped, ``duplicate``\\ d, ``delay``\\ ed, ``corrupt``\\ ed
  in a detected way (payload mutated, digest left stale: the receiver's
  integrity check discards it), or ``bitflip``\\ ped in an *undetected*
  way (payload mutated and the digest restamped to match — models
  corruption upstream of the checksum, which only semantic defenses like
  audit/vote can catch), injected at the
  :class:`~repro.comm.transport.Channel` boundary;
- **worker level** (:class:`WorkerFaultPlan`) — a whole slave ``die``\\ s
  mid-run (serves a few tasks, then goes permanently silent), runs
  ``slow`` (a straggler node whose computations take a multiple of their
  normal time), or turns ``liar`` (silent data corruption: after N tasks
  it returns plausible-but-wrong blocks with self-consistent digests —
  only catchable semantically, by audit recompute or voting).

One :class:`Faults` value holds a run's whole fault plan: the task and
thread levels, the message, worker and I/O tiers, and the master kill
switch (``RunConfig.faults``); each reader takes its own slice.

Rules are keyed by dispatch attempt / message index / worker id so
recovery paths are testable; the ``random`` constructors draw every
decision from an RNG derived *per key* from the plan seed, so a plan is a
pure function of ``(seed, key)`` — the same seed produces the same
decisions regardless of query order or thread interleaving. All plans are
picklable (they carry only scalars and rules), so they cross the process
boundary to slave processes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.comm.messages import TaskId
from repro.utils.validate import (
    check_in,
    check_nonnegative,
    check_positive,
    check_probability,
    check_type,
)

KINDS = ("crash", "hang")

#: Message-level fault kinds (injected at the Channel boundary).
#: ``corrupt`` is detected (stale digest); ``bitflip`` is the undetected
#: tier (digest restamped over the mutated payload).
MESSAGE_FAULT_KINDS = ("drop", "duplicate", "delay", "corrupt", "bitflip")

#: Kinds :meth:`MessageFaultPlan.random` draws by default — the tier the
#: baseline recovery (timeouts + digests) detects on its own. ``bitflip``
#: evades digests *by design*, so it is opt-in: SDC campaigns pair it
#: with the ``audit``/``vote`` integrity modes that can actually catch it.
DETECTABLE_MESSAGE_KINDS = ("drop", "duplicate", "delay", "corrupt")

#: Worker-level fault kinds. ``liar`` is the silent-data-corruption tier.
WORKER_FAULT_KINDS = ("die", "slow", "liar")

#: Resource-exhaustion fault kinds injected at the file-I/O boundary
#: (:class:`IoFaultPlan`): ``enospc`` (disk full), ``eio`` (device
#: error), ``partial`` (a write that lands only a prefix before
#: failing — the torn-frame generator), ``fsync-fail`` (data reached the
#: page cache but durability is refused), ``emfile`` (fd exhaustion).
IO_FAULT_KINDS = ("enospc", "eio", "partial", "fsync-fail", "emfile")

#: I/O operations :class:`IoFaultPlan` can target: journal/WAL record
#: writes, their fsyncs, and shared-memory segment allocation.
IO_FAULT_OPS = ("write", "fsync", "shm")

#: Per-plan-type salt mixed into derived RNG keys so the plan families
#: never reuse a stream even under the same seed.
_SALT_TASK, _SALT_MESSAGE, _SALT_WORKER, _SALT_IO = 11, 13, 17, 23


def _key_ints(value: object) -> Tuple[int, ...]:
    """Flatten a rule key (task id tuple, index, ...) into non-negative ints."""
    if value is None:
        return (0,)
    if isinstance(value, (tuple, list)):
        out: Tuple[int, ...] = ()
        for v in value:
            out += _key_ints(v)
        return out
    if isinstance(value, (int, np.integer)):
        return (int(value) & 0x7FFFFFFF,)
    # Stable fallback for exotic vertex ids: hash of the repr.
    import zlib

    return (zlib.crc32(repr(value).encode()) & 0x7FFFFFFF,)


def derived_rng(seed: int, salt: int, *key: object) -> np.random.Generator:
    """An RNG that is a pure function of ``(seed, salt, key)``.

    This is what makes every ``random`` plan order-independent: each
    decision gets its own generator derived from the decision's identity,
    never from how many decisions were made before it.
    """
    entropy: Tuple[int, ...] = (int(seed) & 0x7FFFFFFF, salt)
    for k in key:
        entropy += _key_ints(k)
    return np.random.default_rng(np.random.SeedSequence(entropy))


class _ByValue:
    """Plans compare and hash by value: their rules and random parameters,
    which are all of their attributes. A plan that crossed a pickle (a
    slave process, a journal's begin record) equals the one it came from.
    """

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash(tuple(
            (name, tuple(sorted(v.items())) if isinstance(v, dict) else v)
            for name, v in sorted(vars(self).items())
        ))


# -- task-level faults (crash / hang) -------------------------------------------------


@dataclass(frozen=True)
class FaultRule:
    """One injected failure.

    ``task_id=None`` matches every task; ``attempt`` is the 0-based
    dispatch count at which the fault fires.
    """

    kind: str
    task_id: Optional[TaskId] = None
    attempt: int = 0
    #: Seconds a ``hang`` fault stalls before replying late.
    duration: float = 1.0

    def __post_init__(self) -> None:
        check_in("fault kind", self.kind, KINDS)
        check_nonnegative("attempt", self.attempt)
        check_nonnegative("duration", self.duration)

    def matches(self, task_id: TaskId, attempt: int) -> bool:
        return attempt == self.attempt and (self.task_id is None or self.task_id == task_id)


class FaultPlan(_ByValue):
    """A queryable collection of task-level fault rules."""

    def __init__(self, rules: Iterable[FaultRule] = ()) -> None:
        self.rules = tuple(rules)
        self._random_p = 0.0
        self._seed = 0
        self._random_kinds: Tuple[str, ...] = ("crash",)
        self._duration = 1.0

    @classmethod
    def random(
        cls,
        p: float,
        seed: int = 0,
        kind: Union[str, Sequence[str]] = "crash",
        duration: float = 1.0,
    ) -> "FaultPlan":
        """Each first execution of a task crashes/hangs with probability ``p``.

        Decisions are a pure function of ``(seed, task_id)``: the same
        seed yields the same fault set no matter in which order tasks are
        queried, which is what makes chaos campaigns replayable. ``kind``
        may be a single kind or a sequence to draw from uniformly; a
        drawn hang stalls for ``duration`` seconds.
        """
        check_probability("p", p)
        kinds = (kind,) if isinstance(kind, str) else tuple(kind)
        for k in kinds:
            check_in("fault kind", k, KINDS)
        check_nonnegative("duration", duration)
        plan = cls(())
        plan._random_p = p
        plan._seed = seed
        plan._random_kinds = kinds
        plan._duration = duration
        return plan

    def lookup(self, task_id: TaskId, attempt: int) -> Optional[FaultRule]:
        """The fault (if any) that execution ``attempt`` of ``task_id`` hits."""
        for rule in self.rules:
            if rule.matches(task_id, attempt):
                return rule
        if self._random_p > 0.0 and attempt == 0:
            rng = derived_rng(self._seed, _SALT_TASK, task_id)
            if rng.random() < self._random_p:
                kind = self._random_kinds[int(rng.integers(len(self._random_kinds)))]
                return FaultRule(kind, task_id, attempt, self._duration)
        return None

    def __bool__(self) -> bool:
        return bool(self.rules) or self._random_p > 0.0

    def __repr__(self) -> str:
        if self._random_p > 0.0:
            return f"FaultPlan(random p={self._random_p})"
        return f"FaultPlan({len(self.rules)} rules)"


# -- message-level faults (channel boundary) ------------------------------------------


@dataclass(frozen=True)
class MessageFaultRule:
    """One injected message-level fault.

    ``direction`` is as seen from the wrapped endpoint (the master side):
    ``"send"`` = master → slave, ``"recv"`` = slave → master, ``None`` =
    both. ``message_type`` matches the class name of what the wire
    carries (``"BatchAssign"``, ``"BatchResult"``, ``"IdleSignal"``,
    ``"EndSignal"``, ...); ``task_id`` the task an envelope's first
    element names; ``index`` is the per-endpoint, per-direction message
    counter; ``None`` fields match anything.
    """

    kind: str
    direction: Optional[str] = None
    message_type: Optional[str] = None
    task_id: Optional[TaskId] = None
    index: Optional[int] = None
    #: Seconds a ``delay`` fault holds the message back.
    delay: float = 0.05

    def __post_init__(self) -> None:
        check_in("message fault kind", self.kind, MESSAGE_FAULT_KINDS)
        if self.direction is not None:
            check_in("direction", self.direction, ("send", "recv"))
        check_nonnegative("delay", self.delay)

    def matches(
        self,
        direction: str,
        message_type: str,
        task_id: Optional[TaskId],
        index: int,
    ) -> bool:
        return (
            (self.direction is None or self.direction == direction)
            and (self.message_type is None or self.message_type == message_type)
            and (self.task_id is None or self.task_id == task_id)
            and (self.index is None or self.index == index)
        )


class MessageFaultPlan(_ByValue):
    """A queryable collection of message-level fault rules.

    The ``random`` mode faults each message independently with
    probability ``p``; decisions derive from ``(seed, endpoint,
    direction, index)`` so a campaign seed fully determines them.
    ``EndSignal`` is protected by default in random mode — dropping the
    shutdown message only exercises teardown timeouts, not recovery.
    """

    def __init__(self, rules: Iterable[MessageFaultRule] = ()) -> None:
        self.rules = tuple(rules)
        self._random_p = 0.0
        self._seed = 0
        self._random_kinds: Tuple[str, ...] = ()
        self._protect: Tuple[str, ...] = ()
        self._delay = 0.05

    @classmethod
    def random(
        cls,
        p: float,
        seed: int = 0,
        kinds: Sequence[str] = DETECTABLE_MESSAGE_KINDS,
        protect: Sequence[str] = ("EndSignal",),
        delay: float = 0.05,
    ) -> "MessageFaultPlan":
        check_probability("p", p)
        for k in kinds:
            check_in("message fault kind", k, MESSAGE_FAULT_KINDS)
        check_nonnegative("delay", delay)
        plan = cls(())
        plan._random_p = p
        plan._seed = seed
        plan._random_kinds = tuple(kinds)
        plan._protect = tuple(protect)
        plan._delay = delay
        return plan

    def decide(
        self,
        direction: str,
        message_type: str,
        task_id: Optional[TaskId],
        index: int,
        endpoint: int = 0,
    ) -> Optional[MessageFaultRule]:
        """The first fault (if any) hitting this message, or None."""
        faults = self.decide_all(direction, message_type, task_id, index, endpoint)
        return faults[0] if faults else None

    def decide_all(
        self,
        direction: str,
        message_type: str,
        task_id: Optional[TaskId],
        index: int,
        endpoint: int = 0,
    ) -> Tuple[MessageFaultRule, ...]:
        """Every fault hitting this message, in rule order.

        Explicit rules compose: a message matched by a ``duplicate`` and a
        ``delay`` rule suffers both, applied in the order the rules were
        given. The random mode still draws at most one fault per message
        (composition probability would be ``p**2``-rare and untestable).
        """
        matched = tuple(
            rule
            for rule in self.rules
            if rule.matches(direction, message_type, task_id, index)
        )
        if matched:
            return matched
        if self._random_p > 0.0 and message_type not in self._protect:
            kinds = self._random_kinds
            if direction == "send":
                # Send-side delay would need a timer thread; restrict the
                # random mix to effects the send path can realize inline.
                kinds = tuple(k for k in kinds if k != "delay") or ("drop",)
            rng = derived_rng(
                self._seed, _SALT_MESSAGE, endpoint, 0 if direction == "send" else 1, index
            )
            if rng.random() < self._random_p:
                kind = kinds[int(rng.integers(len(kinds)))]
                return (
                    MessageFaultRule(
                        kind, direction=direction, index=index, delay=self._delay
                    ),
                )
        return ()

    def __bool__(self) -> bool:
        return bool(self.rules) or self._random_p > 0.0

    def __repr__(self) -> str:
        if self._random_p > 0.0:
            return f"MessageFaultPlan(random p={self._random_p}, kinds={self._random_kinds})"
        return f"MessageFaultPlan({len(self.rules)} rules)"


# -- worker-level faults (slave death / slow node) ------------------------------------


@dataclass(frozen=True)
class WorkerFaultRule:
    """One injected worker-level fault.

    ``die``: the worker serves ``after_tasks`` tasks and then goes
    permanently silent (a crashed slave node). ``slow``: every
    computation on the worker takes ``factor`` times its normal duration
    (a degraded straggler node). ``liar``: after serving ``after_tasks``
    tasks the worker returns wrong block values with self-consistent
    digests — it keeps heartbeating and answering on time, so only
    semantic defenses (audit/vote) can convict it.
    ``worker_id=None`` matches every worker.
    """

    kind: str
    worker_id: Optional[int] = None
    after_tasks: int = 1
    factor: float = 4.0

    def __post_init__(self) -> None:
        check_in("worker fault kind", self.kind, WORKER_FAULT_KINDS)
        check_nonnegative("after_tasks", self.after_tasks)
        check_positive("factor", self.factor)

    def matches(self, worker_id: int) -> bool:
        return self.worker_id is None or self.worker_id == worker_id


class WorkerFaultPlan(_ByValue):
    """A queryable collection of worker-level fault rules."""

    def __init__(self, rules: Iterable[WorkerFaultRule] = ()) -> None:
        self.rules = tuple(rules)
        self._p_die = 0.0
        self._p_slow = 0.0
        self._p_lie = 0.0
        self._seed = 0
        self._max_after = 3
        self._factor = 4.0

    @classmethod
    def random(
        cls,
        p_die: float = 0.0,
        p_slow: float = 0.0,
        seed: int = 0,
        max_after: int = 3,
        factor: float = 4.0,
        p_lie: float = 0.0,
    ) -> "WorkerFaultPlan":
        """Each worker independently dies (after 1..max_after tasks) with
        probability ``p_die``, runs slow with probability ``p_slow``,
        and/or starts lying (after 0..max_after tasks) with probability
        ``p_lie``. Decisions derive from ``(seed, worker_id)``."""
        check_probability("p_die", p_die)
        check_probability("p_slow", p_slow)
        check_probability("p_lie", p_lie)
        check_positive("max_after", max_after)
        check_positive("factor", factor)
        plan = cls(())
        plan._p_die = p_die
        plan._p_slow = p_slow
        plan._p_lie = p_lie
        plan._seed = seed
        plan._max_after = max_after
        plan._factor = factor
        return plan

    def death_point(self, worker_id: int) -> Optional[int]:
        """Task count after which ``worker_id`` dies, or None (healthy)."""
        for rule in self.rules:
            if rule.kind == "die" and rule.matches(worker_id):
                return rule.after_tasks
        if self._p_die > 0.0:
            rng = derived_rng(self._seed, _SALT_WORKER, worker_id, 0)
            if rng.random() < self._p_die:
                return int(rng.integers(1, self._max_after + 1))
        return None

    def slow_factor(self, worker_id: int) -> float:
        """Compute-time multiplier of ``worker_id`` (1.0 = healthy)."""
        for rule in self.rules:
            if rule.kind == "slow" and rule.matches(worker_id):
                return rule.factor
        if self._p_slow > 0.0:
            rng = derived_rng(self._seed, _SALT_WORKER, worker_id, 1)
            if rng.random() < self._p_slow:
                return self._factor
        return 1.0

    def lie_point(self, worker_id: int) -> Optional[int]:
        """Task count after which ``worker_id`` starts returning wrong
        blocks, or None (honest). 0 means it lies from its first task."""
        for rule in self.rules:
            if rule.kind == "liar" and rule.matches(worker_id):
                return rule.after_tasks
        if self._p_lie > 0.0:
            rng = derived_rng(self._seed, _SALT_WORKER, worker_id, 2)
            if rng.random() < self._p_lie:
                return int(rng.integers(0, self._max_after + 1))
        return None

    def __bool__(self) -> bool:
        return (
            bool(self.rules)
            or self._p_die > 0.0
            or self._p_slow > 0.0
            or self._p_lie > 0.0
        )

    def __repr__(self) -> str:
        if self._p_die > 0.0 or self._p_slow > 0.0 or self._p_lie > 0.0:
            return (
                f"WorkerFaultPlan(random p_die={self._p_die}, "
                f"p_slow={self._p_slow}, p_lie={self._p_lie})"
            )
        return f"WorkerFaultPlan({len(self.rules)} rules)"


# -- resource-exhaustion faults (file-I/O boundary) -----------------------------------

#: errno realized for each injected I/O fault kind.
_IO_ERRNOS = {
    "enospc": 28,  # errno.ENOSPC
    "eio": 5,  # errno.EIO
    "partial": 28,  # the partial write ends in ENOSPC
    "fsync-fail": 5,
    "emfile": 24,  # errno.EMFILE
}

#: Kinds drawn per op by :meth:`IoFaultPlan.random` — each op only gets
#: kinds its injection site can realize (a partial *fsync* or an EMFILE
#: *write* would be meaningless).
_IO_RANDOM_KINDS = {
    "write": ("enospc", "eio", "partial"),
    "fsync": ("fsync-fail",),
    "shm": ("enospc", "emfile"),
}


@dataclass(frozen=True)
class IoFaultRule:
    """One injected I/O failure at a file-system boundary.

    ``stream`` names the endpoint the policy wraps (``"journal"``,
    ``"wal"``, ``"shm-master"``, ``"shm-slave3"``; ``None`` matches
    all); ``index`` is the per-stream, per-op operation counter
    (``None`` = every index); ``after`` makes the fault *persistent*
    instead — every op with ``index >= after`` fails, modeling a disk
    that stays full rather than a transient hiccup. ``fraction`` is how
    much of a ``partial`` write lands before the failure.
    """

    op: str
    kind: str
    stream: Optional[str] = None
    index: Optional[int] = None
    after: Optional[int] = None
    fraction: float = 0.5

    def __post_init__(self) -> None:
        check_in("io fault op", self.op, IO_FAULT_OPS)
        check_in("io fault kind", self.kind, IO_FAULT_KINDS)
        if self.index is not None:
            check_nonnegative("index", self.index)
        if self.after is not None:
            check_nonnegative("after", self.after)
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")

    def matches(self, stream: str, op: str, index: int) -> bool:
        if self.op != op:
            return False
        if self.stream is not None and self.stream != stream:
            return False
        if self.after is not None:
            return index >= self.after
        return self.index is None or self.index == index

    @property
    def errno(self) -> int:
        return _IO_ERRNOS[self.kind]

    def to_oserror(self) -> OSError:
        """The concrete :class:`OSError` this fault presents as."""
        return OSError(self.errno, f"injected {self.kind} ({self.op})")

    def cut(self, size: int) -> int:
        """Bytes of a ``partial`` write that land before the failure."""
        return max(0, min(size - 1, int(size * self.fraction)))


class IoFaultPlan(_ByValue):
    """A queryable collection of resource-exhaustion I/O fault rules.

    Same contract as the other plan families: decisions in ``random``
    mode are a pure function of ``(seed, stream, op, index)`` via
    :func:`derived_rng`, so the same campaign seed injects the same
    faults regardless of thread interleaving, and the plan pickles
    across the process boundary to slave-side shm stores.
    """

    def __init__(self, rules: Iterable[IoFaultRule] = ()) -> None:
        self.rules = tuple(rules)
        self._p: Dict[str, float] = {}
        self._seed = 0

    @classmethod
    def random(
        cls,
        p_write: float = 0.0,
        p_fsync: float = 0.0,
        p_shm: float = 0.0,
        seed: int = 0,
    ) -> "IoFaultPlan":
        """Each journal/WAL write, fsync, and shm allocation fails
        independently with its op's probability; the kind is drawn
        uniformly from the op's realizable kinds (``_IO_RANDOM_KINDS``).
        """
        check_probability("p_write", p_write)
        check_probability("p_fsync", p_fsync)
        check_probability("p_shm", p_shm)
        plan = cls(())
        plan._p = {"write": p_write, "fsync": p_fsync, "shm": p_shm}
        plan._seed = seed
        return plan

    def decide(self, stream: str, op: str, index: int) -> Optional[IoFaultRule]:
        """The fault (if any) hitting operation ``index`` of ``op`` on
        ``stream``. Pure: no memoization needed, the RNG derives from
        the decision's identity."""
        for rule in self.rules:
            if rule.matches(stream, op, index):
                return rule
        p = self._p.get(op, 0.0)
        if p > 0.0:
            rng = derived_rng(self._seed, _SALT_IO, stream, op, index)
            if rng.random() < p:
                kinds = _IO_RANDOM_KINDS[op]
                kind = kinds[int(rng.integers(len(kinds)))]
                return IoFaultRule(op, kind, stream=stream, index=index)
        return None

    def __bool__(self) -> bool:
        return bool(self.rules) or any(p > 0.0 for p in self._p.values())

    def __repr__(self) -> str:
        if any(self._p.values()):
            ps = ", ".join(f"p_{k}={v}" for k, v in self._p.items() if v)
            return f"IoFaultPlan(random {ps})"
        return f"IoFaultPlan({len(self.rules)} rules)"


class IoPolicy:
    """One endpoint's view of an :class:`IoFaultPlan`.

    Holds the per-op operation counters (the plan itself stays pure /
    shareable); the journal, WAL, and block store each get their own
    policy with a distinct ``stream`` name so their fault sequences are
    independent under one seed.
    """

    def __init__(self, plan: IoFaultPlan, stream: str) -> None:
        self.plan = plan
        self.stream = stream
        self._counts: Dict[str, int] = {}

    def _next(self, op: str) -> int:
        index = self._counts.get(op, 0)
        self._counts[op] = index + 1
        return index

    def fault(self, op: str) -> Optional[IoFaultRule]:
        """Consume one operation slot of ``op``; the fault it hits, if any."""
        return self.plan.decide(self.stream, op, self._next(op))

    def check(self, op: str) -> None:
        """Consume one slot and *raise* the fault as its OSError."""
        rule = self.fault(op)
        if rule is not None:
            raise rule.to_oserror()


def io_policy(plan: Optional[IoFaultPlan], stream: str) -> Optional[IoPolicy]:
    """``plan``'s view for one stream, if there is a plan at all."""
    return IoPolicy(plan, stream) if plan else None


# -- the run's whole fault plan --------------------------------------------------------


@dataclass(frozen=True)
class Faults:
    """Everything an experiment does to a run (``RunConfig.faults``).

    The two levels of the paper's fault model (Section V) — ``task``
    faults on processor-level sub-tasks, ``thread`` faults on
    sub-sub-tasks — the ``message``, ``worker`` and ``io`` chaos tiers,
    and the master kill switch: after ``kill_after`` journal commit
    records the master raises
    :class:`~repro.utils.errors.MasterCrash` (the in-process ``kill -9``
    at a commit boundary), first appending a torn frame when
    ``kill_torn`` (a kill mid-write, which recovery must CRC-reject).
    Every slice defaults to no faults; each reader takes its own.
    """

    task: FaultPlan = FaultPlan()
    thread: FaultPlan = FaultPlan()
    message: MessageFaultPlan = MessageFaultPlan()
    worker: WorkerFaultPlan = WorkerFaultPlan()
    io: IoFaultPlan = IoFaultPlan()
    kill_after: Optional[int] = None
    kill_torn: bool = False

    def __post_init__(self) -> None:
        check_type("faults.task", self.task, FaultPlan)
        check_type("faults.thread", self.thread, FaultPlan)
        check_type("faults.message", self.message, MessageFaultPlan)
        check_type("faults.worker", self.worker, WorkerFaultPlan)
        check_type("faults.io", self.io, IoFaultPlan)
        if self.kill_after is not None:
            check_positive("faults.kill_after", self.kill_after)
        check_type("faults.kill_torn", self.kill_torn, bool)

    @classmethod
    def random(
        cls,
        seed: int = 0,
        *,
        task_fault_p: float = 0.0,
        task_kinds: Sequence[str] = ("crash",),
        hang: float = 1.0,
        message_p: float = 0.0,
        message_kinds: Sequence[str] = DETECTABLE_MESSAGE_KINDS,
        worker_p_die: float = 0.0,
        worker_p_slow: float = 0.0,
        worker_p_lie: float = 0.0,
        io_p_write: float = 0.0,
        io_p_fsync: float = 0.0,
        io_p_shm: float = 0.0,
    ) -> "Faults":
        """Seeded random plans for every tier, one probability per knob.

        The keywords are the campaign spec's and the serve chaos
        profile's; a tier at probability 0 injects nothing. ``task_kinds``
        are the kinds a task fault draws from, ``hang`` the seconds a
        drawn hang stalls, ``message_kinds`` the message faults drawn.
        """
        return cls(
            task=FaultPlan.random(task_fault_p, seed, task_kinds, duration=hang),
            message=MessageFaultPlan.random(message_p, seed, kinds=message_kinds),
            worker=WorkerFaultPlan.random(
                p_die=worker_p_die, p_slow=worker_p_slow, p_lie=worker_p_lie, seed=seed
            ),
            io=IoFaultPlan.random(io_p_write, io_p_fsync, io_p_shm, seed),
        )
