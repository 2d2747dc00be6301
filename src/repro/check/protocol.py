"""Machine-checked specification of the EasyHPS wire protocol.

What the dispatch core (``runtime/dispatch.py``) does not own of the
master↔slave protocol (paper Figs 9-12) — the two message loops and the
message vocabulary — is specified here as typed state machines, data not
prose, and analysed statically (:func:`check_protocol_spec`): unreachable
states, (state, message) pairs with no handler and no explicit ignore,
conflicting (nondeterministic) transitions, and drift between the spec's
message vocabulary and the real message classes in
:mod:`repro.comm.messages`.

Roles:

``slave``
    The slave service loop: announce idle, await an assignment, compute,
    report, repeat (heartbeats emitted from the side thread in every
    serving state).
``master-control``
    The master's session machine: serve protocol messages, drain with
    ``EndSignal`` once the DAG completes, stop.

The per-dispatch register table, the per-worker standing and the
fault-tolerance scan are *not* described here: they are the core's, and a
recorded run is held to them by replaying it into the core itself
(:func:`repro.check.trace_check.check_trace`; :func:`conformance_cases`
does so for one observed run per backend).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.check import diagnostics as D
from repro.check.diagnostics import CheckReport


@dataclass(frozen=True)
class Transition:
    """One guarded edge of a role's state machine.

    ``event`` is a role-local event name: a received message kind or an
    internal occurrence (``compute-done``). ``message`` names the wire message
    whose send/receipt the event corresponds to, if any — this is what
    ties the spec back to :mod:`repro.comm.messages`. ``guard`` is a
    comma-separated conjunction of guard atoms; empty means
    unconditional. ``action`` is a free-form effect tag the analyses
    match on (``reject``, ``send:EndSignal``).
    """

    role: str
    source: str
    event: str
    target: str
    guard: str = ""
    action: str = ""
    message: Optional[str] = None


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

    def transitions_for(self, role: str) -> Tuple[Transition, ...]:
        return tuple(t for t in self.transitions if t.role == role)


def wire_message_kinds() -> Tuple[str, ...]:
    """The real wire vocabulary: every concrete ``Message`` subclass the
    master and slave loops exchange — signals and envelopes. An
    envelope's elements (``TaskAssign`` / ``TaskResult``) are payload,
    not vocabulary: no loop receives a bare one."""
    from repro.comm import messages as M

    found: List[str] = []
    stack = list(M.Message.__subclasses__())
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls is not M.Envelope and not issubclass(cls, M.Element):
            found.append(cls.__name__)
    return tuple(sorted(found))


def build_protocol_spec() -> ProtocolSpec:
    """The protocol as decided by ``runtime/dispatch.py`` and performed by
    its shells ``runtime/master.py``, ``runtime/slave.py`` and
    ``backends/simulated.py``."""
    slave = RoleSpec(
        name="slave",
        initial="announcing",
        states=("announcing", "awaiting", "computing", "reporting", "stopped"),
        receivable=(("awaiting", ("BatchAssign", "EndSignal")),),
    )
    master_control = RoleSpec(
        name="master-control",
        initial="serving",
        states=("serving", "draining", "stopped"),
        receivable=(
            ("serving", ("IdleSignal", "BatchResult", "Heartbeat", "WorkerLeave")),
            ("draining", ("IdleSignal", "BatchResult", "Heartbeat", "WorkerLeave")),
        ),
        ignores=(
            # Shutdown tail: late results/heartbeats after the DAG is done
            # are dropped on the floor by design (the journal has ended).
            ("draining", "BatchResult"),
            ("draining", "Heartbeat"),
        ),
    )
    transitions = (
        # -- slave service loop (Fig 9/11) --------------------------------
        Transition("slave", "announcing", "announce", "awaiting",
                   action="send:IdleSignal", message="IdleSignal"),
        # One envelope holds a wave: one sub-task, or under ``batch_wave``
        # a whole anti-diagonal. Digest verification is per-element — a
        # mismatched element is rejected individually while the rest of
        # the wave still computes (a wave all of whose elements are
        # rejected computes nothing and reports nothing), so both guards
        # lead to ``computing``.
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
                   action="send:BatchResult", message="BatchResult"),
        # Heartbeat side thread: emits in every serving state.
        Transition("slave", "awaiting", "heartbeat-tick", "awaiting",
                   action="send:Heartbeat", message="Heartbeat"),
        Transition("slave", "computing", "heartbeat-tick", "computing",
                   action="send:Heartbeat", message="Heartbeat"),
        # -- master session loop ------------------------------------------
        Transition("master-control", "serving", "IdleSignal", "serving",
                   action="dispatch-or-park", message="IdleSignal"),
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
    )
    return ProtocolSpec(
        roles=(slave, master_control),
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

    return report


# -- conformance of real observed runs -------------------------------------------


def conformance_configs(size: int = 24) -> List[Tuple[str, Any]]:
    """The observed runs ``repro check --protocol`` replays: one clean run
    per backend, and one threads run whose link duplicates a result (the
    copy lands while the first is accepted and awaiting commit, or just
    committed) and loses another (overtime check, redistribute, re-run)."""
    from repro.cluster.faults import MessageFaultPlan, MessageFaultRule
    from repro.runtime.config import RunConfig

    base = RunConfig(
        nodes=3, threads_per_node=2, process_partition=max(2, size // 4), observe=True
    )
    faults = MessageFaultPlan(
        (
            MessageFaultRule("duplicate", "recv", "BatchResult", task_id=(1, 1)),
            # Each slave's second message: the first result of whoever
            # was handed block (0, 0).
            MessageFaultRule("drop", "recv", "BatchResult", index=1),
        )
    )
    return [
        *((b, replace(base, backend=b)) for b in ("simulated", "threads", "processes")),
        ("threads-faulted", replace(base, message_fault_plan=faults, task_timeout=0.5)),
    ]


def conformance_cases(size: int = 24, seed: int = 0) -> List[Tuple[str, CheckReport]]:
    """Run small observed instances and replay each recorded stream into
    a fresh dispatch core — every backend the same way, one wavefront
    instance sized for seconds. ``repro check --protocol`` runs these
    after the static spec analyses."""
    from repro import EasyHPS
    from repro.algorithms.edit_distance import EditDistance
    from repro.check.trace_check import check_trace

    problem = EditDistance.random(size, seed=seed)
    out: List[Tuple[str, CheckReport]] = []
    for name, config in conformance_configs(size):
        run = EasyHPS(config).run(problem)
        pattern = problem.build_partition(config.partitions_for(problem)[0]).abstract
        report = check_trace(run.report.events or (), pattern, title=f"conformance:{name}")
        out.append((f"protocol:conformance:{name}", report))
    return out
