"""Machine-checked specification of the EasyHPS wire protocol.

The master↔slave protocol (paper Figs 9-12) is specified here as typed
state machines — data, not prose — and then used in two directions:

- **static analysis** (:func:`check_protocol_spec`): the spec itself is
  checked for unreachable states, (state, message) pairs with no handler
  and no explicit ignore, commit transitions reachable without a digest
  verification, conflicting (nondeterministic) transitions — the
  lease-expiry × quarantine class of bug, where two recovery paths race
  to cancel the same dispatch — and drift between the spec's message
  vocabulary and the real message classes in
  :mod:`repro.comm.messages`;
- **trace conformance** (:func:`check_protocol_conformance`): recorded
  ``repro.obs`` event streams are replayed against the master's
  per-dispatch machine, so a run that *observably* violated the protocol
  (commit of a cancelled epoch, double register, dispatch to a retired
  worker, ...) fails ``repro check`` even if its final answer happened
  to be right.

Roles:

``slave``
    The slave service loop: announce idle, await an assignment, compute,
    report, repeat (heartbeats emitted from the side thread in every
    serving state).
``master-control``
    The master's session machine: serve protocol messages, drain with
    ``EndSignal`` once the DAG completes, stop.
``master-dispatch``
    One machine *per register-table entry* — a (task, epoch) dispatch:
    queued → registered → committed, with cancellation by the
    fault-tolerance thread (overtime, lease expiry, worker retirement)
    and re-queue on taint invalidation. This is the machine trace
    conformance replays.
``master-worker``
    The master's per-worker availability view: active until blacklisted
    (timeout threshold), quarantined (divergence threshold), or departed
    (``WorkerLeave``); all retirements are absorbing.
``ft``
    The fault-tolerance thread's scan loop, whose guarded actions feed
    the ``master-dispatch`` and ``master-worker`` machines.

The spec deliberately lives in ``repro.check`` (no ``repro.obs`` import:
conformance events are duck-typed) so checking the protocol never drags
in the runtime it describes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.check import diagnostics as D
from repro.check.diagnostics import CheckReport

#: Guard atoms the conformance engine can evaluate against a live trace.
#: Anything else (``digest-verified``, fault-tolerance scan conditions)
#: is declared for the static analyses and assumed true during replay —
#: those conditions are checked by dedicated passes
#: (:mod:`repro.check.integrity_check`) from metrics, not event order.
EVALUABLE_GUARDS = ("fresh-epoch", "epoch-match", "epoch-stale")


@dataclass(frozen=True)
class Transition:
    """One guarded edge of a role's state machine.

    ``event`` is a role-local event name: a received message kind, an
    observable trace kind (``assign``, ``commit``, ...), or an internal
    occurrence (``compute-done``). ``message`` names the wire message
    whose send/receipt the event corresponds to, if any — this is what
    ties the spec back to :mod:`repro.comm.messages`. ``guard`` is a
    comma-separated conjunction of guard atoms; empty means
    unconditional. ``action`` is a free-form effect tag the analyses
    match on (``commit``, ``requeue``, ``send:EndSignal``).
    """

    role: str
    source: str
    event: str
    target: str
    guard: str = ""
    action: str = ""
    message: Optional[str] = None

    def guard_atoms(self) -> Tuple[str, ...]:
        return tuple(a.strip() for a in self.guard.split(",") if a.strip())


@dataclass(frozen=True)
class RoleSpec:
    """States of one protocol role.

    ``receivable`` maps each state to the wire message kinds that can
    physically arrive while the role sits in it; every such pair must be
    handled by a transition or listed in ``ignores`` (an explicit,
    audited no-op), or :func:`check_protocol_spec` flags it.
    """

    name: str
    initial: str
    states: Tuple[str, ...]
    receivable: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    ignores: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ProtocolSpec:
    """The full multi-role protocol: roles + transitions + messages."""

    roles: Tuple[RoleSpec, ...]
    transitions: Tuple[Transition, ...]
    #: Wire message vocabulary the spec claims to cover (checked against
    #: the real :class:`~repro.comm.messages.Message` subclasses).
    messages: Tuple[str, ...]

    def role(self, name: str) -> RoleSpec:
        for r in self.roles:
            if r.name == name:
                return r
        raise KeyError(f"no role {name!r} in protocol spec")

    def transitions_for(self, role: str) -> Tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.role == role)


def wire_message_kinds() -> Tuple[str, ...]:
    """The real wire vocabulary: every concrete ``Message`` subclass."""
    from repro.comm import messages as M

    found: List[str] = []
    stack = list(M.Message.__subclasses__())
    while stack:
        cls = stack.pop()
        found.append(cls.__name__)
        stack.extend(cls.__subclasses__())
    return tuple(sorted(found))


def build_protocol_spec() -> ProtocolSpec:
    """The protocol as decided by ``runtime/dispatch.py`` and performed by
    its shells ``runtime/master.py``, ``runtime/slave.py`` and
    ``backends/simulated.py``."""
    slave = RoleSpec(
        name="slave",
        initial="announcing",
        states=("announcing", "awaiting", "computing", "reporting", "stopped"),
        receivable=(("awaiting", ("TaskAssign", "BatchAssign", "EndSignal")),),
    )
    master_control = RoleSpec(
        name="master-control",
        initial="serving",
        states=("serving", "draining", "stopped"),
        receivable=(
            ("serving", ("IdleSignal", "TaskResult", "BatchResult",
                         "Heartbeat", "WorkerLeave")),
            ("draining", ("IdleSignal", "TaskResult", "BatchResult",
                          "Heartbeat", "WorkerLeave")),
        ),
        ignores=(
            # Shutdown tail: late results/heartbeats after the DAG is done
            # are dropped on the floor by design (the journal has ended).
            ("draining", "TaskResult"),
            ("draining", "BatchResult"),
            ("draining", "Heartbeat"),
        ),
    )
    master_dispatch = RoleSpec(
        name="master-dispatch",
        initial="queued",
        states=("queued", "registered", "committed", "cancelled"),
        receivable=(
            ("registered", ("TaskResult", "Heartbeat")),
            ("cancelled", ("TaskResult", "Heartbeat")),
            ("committed", ("TaskResult", "Heartbeat")),
        ),
        ignores=(
            # Heartbeats for settled dispatches renew nothing.
            ("cancelled", "Heartbeat"),
            ("committed", "Heartbeat"),
        ),
    )
    master_worker = RoleSpec(
        name="master-worker",
        initial="active",
        states=("active", "blacklisted", "quarantined", "departed"),
        receivable=(
            ("active", ("Heartbeat", "WorkerLeave")),
            ("blacklisted", ("Heartbeat", "WorkerLeave")),
            ("quarantined", ("Heartbeat", "WorkerLeave")),
            ("departed", ("Heartbeat",)),
        ),
        ignores=(
            # A retired worker's liveness chatter changes nothing: the
            # retirement states are absorbing.
            ("blacklisted", "Heartbeat"),
            ("blacklisted", "WorkerLeave"),
            ("quarantined", "Heartbeat"),
            ("quarantined", "WorkerLeave"),
            ("departed", "Heartbeat"),
        ),
    )
    ft = RoleSpec(
        name="ft",
        initial="watching",
        states=("watching",),
    )
    transitions = (
        # -- slave service loop (Fig 9/11) --------------------------------
        Transition("slave", "announcing", "announce", "awaiting",
                   action="send:IdleSignal", message="IdleSignal"),
        Transition("slave", "awaiting", "TaskAssign", "computing",
                   guard="digest-ok", message="TaskAssign"),
        Transition("slave", "awaiting", "TaskAssign", "announcing",
                   guard="digest-mismatch", action="reject", message="TaskAssign"),
        # Batched wavefront dispatch (``batch_wave``): one envelope holds
        # a whole anti-diagonal wave. Digest verification is per-element —
        # a mismatched element is rejected individually while the rest of
        # the wave still computes, so both guards lead to ``computing``.
        Transition("slave", "awaiting", "BatchAssign", "computing",
                   guard="digest-ok", message="BatchAssign"),
        Transition("slave", "awaiting", "BatchAssign", "computing",
                   guard="digest-mismatch", action="reject-element",
                   message="BatchAssign"),
        Transition("slave", "awaiting", "EndSignal", "stopped",
                   message="EndSignal"),
        Transition("slave", "awaiting", "leave-point", "stopped",
                   action="send:WorkerLeave", message="WorkerLeave"),
        Transition("slave", "computing", "compute-done", "reporting"),
        Transition("slave", "reporting", "report", "announcing",
                   action="send:TaskResult", message="TaskResult"),
        Transition("slave", "reporting", "report-batch", "announcing",
                   action="send:BatchResult", message="BatchResult"),
        # Heartbeat side thread: emits in every serving state.
        Transition("slave", "awaiting", "heartbeat-tick", "awaiting",
                   action="send:Heartbeat", message="Heartbeat"),
        Transition("slave", "computing", "heartbeat-tick", "computing",
                   action="send:Heartbeat", message="Heartbeat"),
        # -- master session loop ------------------------------------------
        Transition("master-control", "serving", "IdleSignal", "serving",
                   action="dispatch-or-park", message="IdleSignal"),
        Transition("master-control", "serving", "TaskResult", "serving",
                   action="route-to-dispatch", message="TaskResult"),
        Transition("master-control", "serving", "BatchResult", "serving",
                   action="route-each-to-dispatch", message="BatchResult"),
        Transition("master-control", "serving", "Heartbeat", "serving",
                   action="renew-leases", message="Heartbeat"),
        Transition("master-control", "serving", "WorkerLeave", "serving",
                   action="retire-worker", message="WorkerLeave"),
        Transition("master-control", "serving", "dag-complete", "draining",
                   action="send:EndSignal", message="EndSignal"),
        Transition("master-control", "serving", "fault-budget-exhausted",
                   "stopped", action="abort"),
        Transition("master-control", "draining", "IdleSignal", "draining",
                   action="send:EndSignal", message="IdleSignal"),
        Transition("master-control", "draining", "WorkerLeave", "draining",
                   message="WorkerLeave"),
        Transition("master-control", "draining", "all-workers-released",
                   "stopped"),
        # -- per-dispatch register-table machine (Fig 10/12) ---------------
        # The machine trace conformance replays: events are the obs trace
        # kinds (`assign`, `commit`, ...), guards the epoch discipline.
        Transition("master-dispatch", "queued", "assign", "registered",
                   guard="fresh-epoch", action="register+send",
                   message="TaskAssign"),
        Transition("master-dispatch", "registered", "result", "registered",
                   guard="epoch-match,digest-verified", action="verify",
                   message="TaskResult"),
        Transition("master-dispatch", "registered", "commit", "committed",
                   guard="epoch-match,digest-verified", action="commit"),
        Transition("master-dispatch", "registered", "redistribute",
                   "cancelled", guard="epoch-match", action="requeue"),
        Transition("master-dispatch", "registered", "stale-drop",
                   "registered", guard="epoch-stale", action="drop",
                   message="TaskResult"),
        Transition("master-dispatch", "registered", "Heartbeat",
                   "registered", guard="epoch-match", action="renew-lease",
                   message="Heartbeat"),
        Transition("master-dispatch", "cancelled", "assign", "registered",
                   guard="fresh-epoch", action="register+send",
                   message="TaskAssign"),
        Transition("master-dispatch", "cancelled", "stale-drop", "cancelled",
                   guard="epoch-stale", action="drop", message="TaskResult"),
        Transition("master-dispatch", "committed", "stale-drop", "committed",
                   guard="epoch-stale", action="drop", message="TaskResult"),
        Transition("master-dispatch", "committed", "taint-invalidate",
                   "queued", action="invalidate-closure"),
        # Taint recompute: only the closure *root* gets an explicit
        # invalidate event; the rest of the invalidated closure re-enters
        # dispatch straight from `committed` — legal only at a strictly
        # fresher epoch, so a same-epoch double dispatch stays illegal.
        Transition("master-dispatch", "committed", "assign", "registered",
                   guard="fresh-epoch", action="recompute+send",
                   message="TaskAssign"),
        # -- per-worker availability machine -------------------------------
        Transition("master-worker", "active", "Heartbeat", "active",
                   action="renew-lease", message="Heartbeat"),
        Transition("master-worker", "active", "lease-expired", "active",
                   action="requeue"),
        Transition("master-worker", "active", "timeout-threshold",
                   "blacklisted", guard="not-last-worker",
                   action="blacklist+requeue"),
        Transition("master-worker", "active", "divergence-threshold",
                   "quarantined", action="quarantine+requeue"),
        Transition("master-worker", "active", "WorkerLeave", "departed",
                   action="requeue-live", message="WorkerLeave"),
        # -- fault-tolerance thread scan loop ------------------------------
        Transition("ft", "watching", "overtime-scan", "watching",
                   guard="deadline-passed", action="cancel+requeue"),
        Transition("ft", "watching", "lease-scan", "watching",
                   guard="lease-expired", action="cancel+requeue"),
        Transition("ft", "watching", "speculate-scan", "watching",
                   guard="straggler", action="speculate"),
        Transition("ft", "watching", "stall-scan", "watching",
                   guard="no-progress", action="abort"),
    )
    return ProtocolSpec(
        roles=(slave, master_control, master_dispatch, master_worker, ft),
        transitions=transitions,
        messages=wire_message_kinds(),
    )


# -- spec surgery (seeded-defect fixtures) --------------------------------------


def drop_transitions(
    spec: ProtocolSpec, role: str, source: str, event: str
) -> ProtocolSpec:
    """A copy of ``spec`` without the matching transitions (a 'forgot to
    handle it' defect for the selftest fixtures)."""
    kept = tuple(
        t
        for t in spec.transitions
        if not (t.role == role and t.source == source and t.event == event)
    )
    return replace(spec, transitions=kept)


def strip_guard(spec: ProtocolSpec, atom: str) -> ProtocolSpec:
    """A copy of ``spec`` with guard atom ``atom`` deleted everywhere (a
    'verification check removed' defect for the selftest fixtures)."""
    out: List[Transition] = []
    for t in spec.transitions:
        atoms = tuple(a for a in t.guard_atoms() if a != atom)
        out.append(replace(t, guard=",".join(atoms)))
    return replace(spec, transitions=tuple(out))


# -- static analyses over the spec ----------------------------------------------


def check_protocol_spec(
    spec: Optional[ProtocolSpec] = None, title: str = "protocol-spec"
) -> CheckReport:
    """Static verification of the protocol spec itself."""
    if spec is None:
        spec = build_protocol_spec()
    report = CheckReport(title=title)
    real_messages = set(wire_message_kinds())
    declared = set(spec.messages)

    # 1. Message vocabulary ⟷ real message classes.
    for missing in sorted(real_messages - declared):
        report.add(
            D.PROTOCOL_MESSAGE_MISMATCH,
            f"wire message {missing!r} exists in repro.comm.messages but the "
            "spec does not declare it",
            subject=missing,
        )
    for phantom in sorted(declared - real_messages):
        report.add(
            D.PROTOCOL_MESSAGE_MISMATCH,
            f"spec declares message {phantom!r} but no such Message class exists",
            subject=phantom,
        )
    referenced: Set[str] = set()
    for t in spec.transitions:
        report.checked += 1
        if t.message is not None:
            referenced.add(t.message)
            if t.message not in real_messages:
                report.add(
                    D.PROTOCOL_MESSAGE_MISMATCH,
                    f"transition {t.role}/{t.source} --{t.event}--> {t.target} "
                    f"references unknown message {t.message!r}",
                    subject=t.message,
                )
    for unused in sorted(declared & real_messages - referenced):
        report.add(
            D.PROTOCOL_MESSAGE_MISMATCH,
            f"message {unused!r} is declared but no transition sends or "
            "receives it — dead vocabulary or missing handler",
            subject=unused,
        )

    for role in spec.roles:
        trans = spec.transitions_for(role.name)
        # 2. Reachability: every declared state must be reachable from the
        # initial state along transitions.
        succs: Dict[str, Set[str]] = {s: set() for s in role.states}
        for t in trans:
            if t.source not in succs or t.target not in role.states:
                report.add(
                    D.PROTOCOL_UNREACHABLE_STATE,
                    f"transition {t.source} --{t.event}--> {t.target} uses a "
                    f"state not declared by role {role.name!r}",
                    subject=role.name,
                )
                continue
            succs[t.source].add(t.target)
        seen = {role.initial}
        frontier = [role.initial]
        while frontier:
            s = frontier.pop()
            for nxt in succs.get(s, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        for state in role.states:
            report.checked += 1
            if state not in seen:
                report.add(
                    D.PROTOCOL_UNREACHABLE_STATE,
                    f"state {state!r} of role {role.name!r} is unreachable "
                    f"from {role.initial!r}",
                    subject=f"{role.name}/{state}",
                )

        # 3. Unhandled (state, message) pairs: everything receivable must
        # be matched by a transition or an explicit ignore.
        ignores = set(role.ignores)
        handled: Set[Tuple[str, str]] = set()
        for t in trans:
            if t.message is not None:
                handled.add((t.source, t.message))
        for state, kinds in role.receivable:
            for kind in kinds:
                report.checked += 1
                if (state, kind) in handled or (state, kind) in ignores:
                    continue
                report.add(
                    D.PROTOCOL_UNHANDLED_MESSAGE,
                    f"role {role.name!r} can receive {kind!r} in state "
                    f"{state!r} but has neither a transition nor an "
                    "explicit ignore for it",
                    subject=f"{role.name}/{state}/{kind}",
                )

        # 4. Conflicting transitions: two enabled edges for the same
        # (state, event) whose guards are not mutually exclusive — the
        # lease-expiry × quarantine race class. Declared guards count as
        # exclusive only when every pair differs and none is empty.
        by_key: Dict[Tuple[str, str], List[Transition]] = {}
        for t in trans:
            by_key.setdefault((t.source, t.event), []).append(t)
        for (source, event), group in sorted(by_key.items()):
            report.checked += 1
            if len(group) < 2:
                continue
            guards = [t.guard for t in group]
            if "" in guards or len(set(guards)) < len(guards):
                targets = ", ".join(sorted({t.target for t in group}))
                report.add(
                    D.PROTOCOL_CONFLICT,
                    f"role {role.name!r} has {len(group)} transitions for "
                    f"({source!r}, {event!r}) with non-exclusive guards "
                    f"(targets: {targets}) — delivery order decides the "
                    "outcome",
                    subject=f"{role.name}/{source}/{event}",
                )

    # 5. Commit reachable without verification: walk each role from its
    # initial state over edges that perform no verification; a
    # commit-action edge leaving such a state must itself carry the
    # digest-verified guard.
    for role in spec.roles:
        trans = spec.transitions_for(role.name)
        unverified = {role.initial}
        frontier = [role.initial]
        while frontier:
            s = frontier.pop()
            for t in trans:
                if t.source != s:
                    continue
                if "digest-verified" in t.guard_atoms() or "verify" in t.action:
                    continue
                if t.target not in unverified:
                    unverified.add(t.target)
                    frontier.append(t.target)
        for t in trans:
            if "commit" not in t.action:
                continue
            report.checked += 1
            if t.source in unverified and "digest-verified" not in t.guard_atoms():
                report.add(
                    D.PROTOCOL_COMMIT_WITHOUT_VERIFY,
                    f"role {role.name!r} can reach commit transition "
                    f"{t.source} --{t.event}--> {t.target} without any "
                    "digest verification on the path or the edge",
                    subject=f"{role.name}/{t.source}/{t.event}",
                )
    return report


# -- trace conformance ----------------------------------------------------------

#: Obs-event kinds the per-dispatch machine consumes (everything else in
#: a telemetry stream is ignored here — other passes own those kinds).
_DISPATCH_KINDS = frozenset(
    ("assign", "result", "commit", "redistribute", "stale-drop", "taint-invalidate")
)
#: Kinds that permanently retire a worker.
_RETIRE_KINDS = frozenset(("blacklist", "quarantine", "worker-death", "worker-leave"))


@dataclass
class _DispatchState:
    """Replay state of one task's master-dispatch machine."""

    state: str = "queued"
    #: Epoch of the current/last registration (-1 before any assign).
    epoch: int = -1
    #: Highest epoch ever assigned (fresh-epoch guard).
    max_epoch: int = -1


def _guard_holds(guard: str, ev_epoch: int, mstate: _DispatchState) -> bool:
    for atom in (a.strip() for a in guard.split(",") if a.strip()):
        if atom == "fresh-epoch":
            if ev_epoch <= mstate.max_epoch:
                return False
        elif atom == "epoch-match":
            if ev_epoch != mstate.epoch:
                return False
        elif atom == "epoch-stale":
            if mstate.state == "registered":
                if ev_epoch >= mstate.epoch:
                    return False
            elif ev_epoch > mstate.epoch:
                return False
        # Non-evaluable atoms (digest-verified, scan conditions) are
        # assumed true: dedicated passes check them from metrics.
    return True


def check_protocol_conformance(
    events: Iterable[object],
    spec: Optional[ProtocolSpec] = None,
    *,
    strict: bool = True,
    title: str = "protocol-conformance",
) -> CheckReport:
    """Replay an obs event stream against the master-dispatch machine.

    ``events`` are duck-typed (``kind``, ``task_id``, ``epoch``,
    ``worker``, ``seq`` — :class:`~repro.obs.recorder.ObsEvent` or any
    stand-in). ``strict`` demands the stream's *order* respects the
    machine exactly — right for the simulated backend and the explorer,
    where a single-threaded event loop makes record order the true
    order. Real multi-threaded backends record some pairs racily (an FT
    thread's ``redistribute`` can be logged before the service thread's
    ``assign`` it chased), so ``strict=False`` checks only the
    order-insensitive core: no commit of a redistributed epoch, no
    double commit without an intervening taint invalidation, no commit
    of a never-assigned epoch.
    """
    if spec is None:
        spec = build_protocol_spec()
    report = CheckReport(title=title)
    # The spec models the *task-level* wire protocol; the same kinds
    # recur at subtask scope (the thread level inside one slave), which
    # is a different machine. Stand-ins without a scope default to task.
    stream = sorted(
        (
            e
            for e in events
            if getattr(e, "kind", None) is not None
            and getattr(e, "scope", "task") == "task"
        ),
        key=lambda e: getattr(e, "seq", 0),
    )
    if strict:
        _conform_strict(stream, spec, report)
    else:
        _conform_relaxed(stream, report)
    return report


def _conform_strict(
    stream: Sequence[object], spec: ProtocolSpec, report: CheckReport
) -> None:
    trans = spec.transitions_for("master-dispatch")
    machines: Dict[object, _DispatchState] = {}
    retired: Dict[int, str] = {}
    for ev in stream:
        kind = str(getattr(ev, "kind"))
        _w = getattr(ev, "worker", -1)
        worker = -1 if _w is None else int(_w)
        if kind in _RETIRE_KINDS:
            if worker >= 0:
                retired.setdefault(worker, kind)
            continue
        if kind not in _DISPATCH_KINDS:
            continue
        task = getattr(ev, "task_id", None)
        if task is None:
            continue
        epoch = int(getattr(ev, "epoch", -1))
        key = tuple(task) if isinstance(task, (list, tuple)) else task
        m = machines.setdefault(key, _DispatchState())
        report.checked += 1
        if kind == "assign" and worker in retired:
            report.add(
                D.PROTOCOL_ILLEGAL_TRANSITION,
                f"task {key} epoch {epoch} assigned to worker {worker} after "
                f"its {retired[worker]} (seq {getattr(ev, 'seq', '?')})",
                subject=f"worker:{worker}",
            )
        chosen: Optional[Transition] = None
        for t in trans:
            if t.source != m.state or t.event != kind:
                continue
            if _guard_holds(t.guard, epoch, m):
                chosen = t
                break
        if chosen is None:
            report.add(
                D.PROTOCOL_ILLEGAL_TRANSITION,
                f"no legal transition for event {kind!r} (epoch {epoch}) in "
                f"state {m.state!r} of task {key} (machine epoch {m.epoch}, "
                f"seq {getattr(ev, 'seq', '?')})",
                subject=f"task:{key}",
            )
            continue
        m.state = chosen.target
        if kind == "assign":
            m.epoch = epoch
            m.max_epoch = max(m.max_epoch, epoch)


def _conform_relaxed(stream: Sequence[object], report: CheckReport) -> None:
    assigned: Set[Tuple[object, int]] = set()
    redistributed: Set[Tuple[object, int]] = set()
    committed_at: Dict[object, int] = {}
    invalidated_after: Set[object] = set()
    for ev in stream:
        kind = str(getattr(ev, "kind"))
        task = getattr(ev, "task_id", None)
        if task is None:
            continue
        key = tuple(task) if isinstance(task, (list, tuple)) else task
        epoch = int(getattr(ev, "epoch", -1))
        if kind == "assign":
            assigned.add((key, epoch))
        elif kind == "redistribute":
            redistributed.add((key, epoch))
        elif kind == "taint-invalidate":
            invalidated_after.add(key)
    for ev in stream:
        kind = str(getattr(ev, "kind"))
        task = getattr(ev, "task_id", None)
        if kind == "taint-invalidate" and task is not None:
            committed_at.pop(
                tuple(task) if isinstance(task, (list, tuple)) else task, None
            )
            continue
        if kind != "commit" or task is None:
            continue
        key = tuple(task) if isinstance(task, (list, tuple)) else task
        epoch = int(getattr(ev, "epoch", -1))
        _w = getattr(ev, "worker", -1)
        worker = -1 if _w is None else int(_w)
        report.checked += 1
        if worker >= 0 and (key, epoch) not in assigned:
            report.add(
                D.PROTOCOL_ILLEGAL_TRANSITION,
                f"task {key} epoch {epoch} committed by worker {worker} but "
                "was never assigned at that epoch",
                subject=f"task:{key}",
            )
        if (key, epoch) in redistributed:
            report.add(
                D.PROTOCOL_ILLEGAL_TRANSITION,
                f"task {key} epoch {epoch} committed after the same epoch "
                "was redistributed — the register-table cancel/finish "
                "exclusivity was violated",
                subject=f"task:{key}",
            )
        if key in committed_at:
            report.add(
                D.PROTOCOL_ILLEGAL_TRANSITION,
                f"task {key} committed twice (epochs {committed_at[key]} and "
                f"{epoch}) with no taint invalidation between",
                subject=f"task:{key}",
            )
        committed_at[key] = epoch


# -- conformance of real observed runs -------------------------------------------


def conformance_cases(size: int = 24, seed: int = 0) -> List[Tuple[str, CheckReport]]:
    """Run small observed instances and replay their streams at the spec.

    The simulated backend is single-threaded, so its record order is the
    true event order and the full strict machine applies; the threads
    backend records some pairs racily across service/FT threads, so it
    gets the order-insensitive relaxed rules. Both on one wavefront
    instance sized for seconds, not minutes. ``repro check --protocol``
    runs these after the static spec analyses.
    """
    from repro import EasyHPS
    from repro.algorithms.edit_distance import EditDistance
    from repro.runtime.config import RunConfig

    problem = EditDistance.random(size, seed=seed)
    block = max(2, size // 4)
    out: List[Tuple[str, CheckReport]] = []
    for backend, strict in (("simulated", True), ("threads", False)):
        config = RunConfig(
            nodes=3,
            threads_per_node=2,
            backend=backend,
            process_partition=block,
            observe=True,
        )
        run = EasyHPS(config).run(problem)
        events = run.report.events or ()
        out.append(
            (
                f"protocol:conformance:{backend}",
                check_protocol_conformance(
                    events,
                    strict=strict,
                    title=f"conformance:{backend}",
                ),
            )
        )
    return out
