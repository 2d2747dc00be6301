"""Systematic interleaving exploration of the master/slave protocol.

What is explored is the code that runs: the simulated backend is a shell
around the same :class:`~repro.runtime.dispatch.DispatchCore` the real
master takes every decision from (``docs/fault_tolerance.md`` §Dispatch
core), and the state fingerprint reads protocol state only through
``core.fingerprint()``. What is *not* explored: thread interleavings
inside the master shell itself (see ``docs/static_analysis.md``).

The simulated backend is a deterministic discrete-event program: every
protocol step (assignment arrival, result arrival, overtime check, idle
announcement) is an event on one queue. Under a *zero-cost* cluster
model — zero link latency/bandwidth cost, zero master/slave overheads,
unit compute per sub-task — every protocol event triggered by the same
wave of completions lands at the same simulated instant. Choosing which
of those simultaneous events fires next is then exactly choosing the
delivery order of concurrently in-flight messages, which is the only
nondeterminism the real distributed system has. This module enumerates
those choices.

Search strategy (stateless replay DFS):

- The run executes under a :class:`~repro.cluster.simcore.ControlledEventQueue`
  whose chooser replays a recorded *choice prefix* (a list of tie-set
  indices) and defaults to index 0 past the prefix, recording every
  decision. After the run, each un-taken alternative at each
  post-prefix decision becomes a new prefix on the DFS stack, so the
  search visits every delivery order reachable within the bounds.
- **Partial-order reduction, part 1 (forced no-ops):** a tie-set member
  that is provably behaviour-free in the current state — an overtime
  check for an epoch that already completed, an idle announcement of a
  dead node — commutes with every other event (it only *reads* state
  and returns). Such events are executed eagerly without recording a
  branch point, a persistent-set-style reduction that removes the
  factorially many orderings of dead timers.
- **Partial-order reduction, part 2 (state merging):** before every
  recorded decision past the prefix the explorer fingerprints the full
  scheduler state (master tables, node states, pending event set with
  relative times). A fingerprint seen on any earlier interleaving of
  the same scenario means every continuation from here was already
  explored — the run is cut short. Invariants are still checked on the
  truncated event trace, so pruning never hides a violation that
  happened *before* the merge point.
- **Bounded fault injection:** each *scenario* pairs the fault-free
  base run with at most one targeted message fault (drop or
  timeout-tied delay, addressed by endpoint/direction/index) and at
  most one worker death, enumerated over endpoints and early message
  indices. Faults beyond the enumeration horizon hit states the
  horizon's faults already cover (later waves repeat the same protocol
  situations with different block ids). Further scenarios re-run a
  reduced fault set under batched wavefront dispatch (envelope faults),
  kill a journaled master mid-wave and resume it (one chooser spans
  both phases), tie a result to its own lease expiry behind a lost
  heartbeat, convict a lying worker under full audit (taint closure
  and recompute; once more on a grid larger than the audit lag, where a
  closure spans several blocks) and under majority voting (replica
  dispatches, escalation, the master's arbiter vote), corrupt a result
  past its digest check, and hang a block on a one-strike blacklist with
  retry backoff.

Every completed interleaving is checked for: clean termination (no
deadlock, no unexpected abort), an oracle-identical result (every block
committed exactly once, zero surviving taint), the replay of its recorded
stream into a fresh dispatch core with the happens-before rules
(:func:`repro.check.trace_check.check_trace`) — which also holds it to
the chaos and integrity invariants. What the campaign *reaches* is
measured, not declared: :class:`ExplorationResult` carries the ledger
kinds and audit / vote verdicts the explored runs recorded. A violating
interleaving is exported as a replayable counterexample: the standard
obs-trace JSON with the choice prefix in its ``meta``, so
``replay_counterexample`` (or ``repro check --explore --replay``) can
re-execute exactly that delivery order under a debugger.

Everything here imports the heavy runtime lazily — ``repro.check``
must stay importable before ``repro.comm``/``repro.obs`` (see
:mod:`repro.check.trace_check`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.check import diagnostics as D
from repro.check.diagnostics import CheckReport, merge_reports
from repro.check.trace_check import LEDGER_KINDS, check_trace
from repro.cluster.faults import (
    FaultPlan,
    FaultRule,
    Faults,
    MessageFaultPlan,
    MessageFaultRule,
    WorkerFaultPlan,
    WorkerFaultRule,
)
from repro.cluster.network import LinkModel
from repro.cluster.simcore import ControlledEventQueue, SimulationError

#: What the reach census counts: the ledger kinds, plus the audit and vote
#: verdicts the landing step records (the replay does not read them).
CENSUS_KINDS = (*LEDGER_KINDS, "audit-pass", "audit-convict", "vote-cast", "vote-divergence")

__all__ = [
    "ExploreConfig",
    "Scenario",
    "Counterexample",
    "ExplorationResult",
    "TargetedFaultRule",
    "TargetedFaultPlan",
    "default_scenarios",
    "run_exploration",
    "check_exploration",
    "replay_counterexample",
    "reorder_double_commit_model",
]


# -- configuration ------------------------------------------------------------------


@dataclass(frozen=True)
class ExploreConfig:
    """Bounds of one exploration campaign.

    The defaults are the acceptance workload: a 3x3 wavefront on two
    workers with at most one injected fault, exhaustively explored.
    """

    #: Block grid of the wavefront instance (blocks, not cells).
    rows: int = 3
    cols: int = 3
    #: Cells per block edge (the instance is ``rows*block`` x ``cols*block``).
    block: int = 2
    #: Computing nodes (the master is implicit).
    workers: int = 2
    #: Problem seed (any value works — the simulator never computes cells).
    seed: int = 0
    #: Overtime threshold. Unit compute makes any value > 1.0 safe; the
    #: timeout-tied delay scenarios schedule a result at exactly this time.
    task_timeout: float = 8.0
    max_retries: int = 2
    #: Fault budget: at most this many message drops / worker deaths per
    #: scenario (the issue's "<= 1 drop, <= 1 worker death").
    max_drops: int = 1
    max_deaths: int = 1
    #: Per-endpoint message indices to target with a drop/delay fault.
    drop_indices: int = 2
    #: ``after_tasks`` values for the worker-death scenarios.
    death_points: Tuple[int, ...] = (1, 2)
    #: Include the one-drop-plus-one-death combination scenarios.
    combine_faults: bool = True
    #: Safety caps; hitting either clears ``ExplorationResult.exhaustive``.
    max_interleavings_per_scenario: int = 4000
    max_total_interleavings: int = 40000


@dataclass(frozen=True)
class Scenario:
    """One fault assignment to explore all interleavings under."""

    name: str
    #: The faults this scenario injects; ``kill_after`` journals the run,
    #: kills the master after that many commits, then recovers the
    #: journal and explores the resumed run to completion.
    faults: Faults = Faults()
    #: False for scenarios *designed* to abort (fault budget exceeded by
    #: construction); a clean FaultToleranceExhausted is then not a violation.
    expect_complete: bool = True
    #: ``RunConfig`` overrides (``batch_wave``, ``heartbeat_interval`` …).
    config: Tuple[Tuple[str, Any], ...] = ()
    #: Block grid override, for scenarios whose extra events (a lease
    #: check per dispatch) would make the campaign grid intractable.
    grid: Optional[Tuple[int, int]] = None


# -- targeted fault plan -------------------------------------------------------------


@dataclass(frozen=True)
class TargetedFaultRule:
    """One fault addressed at a specific (endpoint, direction, index).

    :class:`~repro.cluster.faults.MessageFaultRule` deliberately has no
    endpoint field (chaos campaigns fault *classes* of messages); the
    explorer needs to name exactly one wire transfer, so this rule keys
    on the per-endpoint counters the simulator already maintains.
    """

    kind: str  # "drop", "delay" or "corrupt"
    direction: str  # "send" (assigns) or "recv" (results, heartbeats)
    endpoint: int
    index: int
    delay: float = 0.0
    #: ``"Heartbeat"`` addresses the node's lease-renewal beacons, which
    #: the simulator counts on their own per-node index.
    message_type: Optional[str] = None


class TargetedFaultPlan(MessageFaultPlan):
    """A :class:`MessageFaultPlan` that faults exactly the named transfers.

    Subclassing (rather than a new class) keeps ``RunConfig``'s
    ``check_type`` validation and the backend's ``decide(...)`` call
    sites untouched.
    """

    def __init__(self, targets: Sequence[TargetedFaultRule]) -> None:
        super().__init__(())
        self.targets = tuple(targets)

    def decide_all(
        self,
        direction: str,
        message_type: str,
        task_id: Any,
        index: int,
        endpoint: int = 0,
    ) -> Tuple[MessageFaultRule, ...]:
        out = []
        for t in self.targets:
            if (
                t.direction == direction
                and t.endpoint == endpoint
                and t.index == index
                # An untyped rule names a task-carrying transfer, never a
                # heartbeat (those count on their own index).
                and t.message_type == (None if message_type != "Heartbeat" else message_type)
            ):
                out.append(MessageFaultRule(t.kind, direction=direction, delay=t.delay))
        return tuple(out)

    def __bool__(self) -> bool:
        return bool(self.targets)

    def __repr__(self) -> str:
        return f"TargetedFaultPlan({list(self.targets)!r})"


class _ZeroCostLink(LinkModel):
    """A link that moves any payload instantly (keeps LinkModel's
    positivity validation satisfied while zeroing transfer times)."""

    def transfer_time(self, nbytes: float) -> float:
        return 0.0


# -- scenario enumeration ------------------------------------------------------------


def default_scenarios(cfg: ExploreConfig) -> List[Scenario]:
    """The bounded fault matrix: fault-free, single drops, timeout-tied
    delays, single deaths, and (optionally) one drop+death pair."""
    scenarios = [Scenario("fault-free")]
    drops: List[Scenario] = []
    if cfg.max_drops >= 1:
        for k in range(cfg.workers):
            for direction, mname in (("send", "assign"), ("recv", "result")):
                for i in range(cfg.drop_indices):
                    plan = TargetedFaultPlan(
                        (TargetedFaultRule("drop", direction, k, i),)
                    )
                    drops.append(Scenario(f"drop-{mname}-n{k}-i{i}", Faults(message=plan)))
            # A result delayed to land exactly at its overtime check: the
            # delivery race randomized chaos essentially never hits
            # (delay 0.05 vs timeout 30), but the stale-drop path's
            # correctness depends on it.
            delay = cfg.task_timeout - 1.0  # unit compute => ties the timeout
            plan = TargetedFaultPlan(
                (TargetedFaultRule("delay", "recv", k, 0, delay=delay),)
            )
            drops.append(Scenario(f"delay-result-n{k}-i0", Faults(message=plan)))
    scenarios.extend(drops)
    if cfg.max_deaths >= 1:
        for k in range(cfg.workers):
            for after in cfg.death_points:
                plan = WorkerFaultPlan(
                    (WorkerFaultRule("die", worker_id=k, after_tasks=after),)
                )
                scenarios.append(Scenario(f"death-n{k}-after{after}", Faults(worker=plan)))
    if cfg.combine_faults and cfg.max_drops >= 1 and cfg.max_deaths >= 1 and cfg.workers >= 2:
        # One representative of the two-fault frontier: lose a result
        # *and* a different worker. Still within the <=1-drop/<=1-death
        # budget per category.
        mplan = TargetedFaultPlan((TargetedFaultRule("drop", "recv", 0, 0),))
        wplan = WorkerFaultPlan(
            (WorkerFaultRule("die", worker_id=1, after_tasks=cfg.death_points[0]),)
        )
        scenarios.append(Scenario("drop-result-n0+death-n1", Faults(message=mplan, worker=wplan)))
    delay = cfg.task_timeout - 1.0
    # Batched wavefront dispatch: the same faults now hit a whole
    # BatchAssign / BatchResult envelope while every element keeps its own
    # registration. (Index 0 only: later envelopes repeat the situation.)
    batch = (("batch_wave", True),)
    scenarios.append(Scenario("batch-fault-free", config=batch))
    if cfg.max_drops >= 1:
        for k in range(cfg.workers):
            for kind, direction, mname, d in (
                ("drop", "send", "drop-assign", 0.0),
                ("drop", "recv", "drop-result", 0.0),
                ("delay", "recv", "delay-result", delay),
            ):
                plan = TargetedFaultPlan((TargetedFaultRule(kind, direction, k, 0, delay=d),))
                scenarios.append(
                    Scenario(f"batch-{mname}-n{k}-i0", Faults(message=plan), config=batch)
                )
    # A journaled master killed between two elements of one BatchResult
    # (the second commit is the first that can share an envelope), then
    # recovered from the journal and explored to completion.
    scenarios.append(Scenario("batch-kill-resume-c2", Faults(kill_after=2), config=batch))
    if cfg.max_drops >= 1:
        # Lease == unit compute, and the node's first heartbeat lost: the
        # result lands in the very instant its own lease expires.
        lease = (("heartbeat_interval", 0.5), ("lease_factor", 2.0))
        for k in range(cfg.workers):
            plan = TargetedFaultPlan(
                (TargetedFaultRule("drop", "recv", k, 0, message_type="Heartbeat"),)
            )
            scenarios.append(
                Scenario(f"lease-race-n{k}", Faults(message=plan), config=lease, grid=(2, 2))
            )
    # A worker that lies from its second block on, every commit audited:
    # conviction, taint closure, recompute — the one path on which a
    # committed block leaves the ledger again.
    lie = WorkerFaultRule("liar", worker_id=cfg.workers - 1, after_tasks=1)
    liar = Faults(worker=WorkerFaultPlan((lie,)))
    audit = (("integrity", "audit"), ("audit_fraction", 1.0))
    scenarios.append(Scenario("liar-audit", liar, config=audit, grid=(2, 2)))
    # The same liar on a grid with more blocks than the audit lag: a
    # conviction arrives after the convicted block's dependents committed,
    # so the taint closure revokes more than one block.
    scenarios.append(Scenario("liar-audit-lagged", liar, config=audit, grid=(3, 3)))
    # The same liar under majority voting: replicas are real dispatches, a
    # split tally escalates, and with no fresh voter left the master's own
    # recompute arbitrates as worker -1.
    vote = (("integrity", "vote"),)
    scenarios.append(Scenario("liar-vote", liar, config=vote, grid=(2, 2)))
    if cfg.max_drops >= 1:
        # A result whose payload no longer matches its digest: the master
        # rejects it and re-offers the task on the charged budget.
        plan = TargetedFaultPlan((TargetedFaultRule("corrupt", "recv", 0, 0),))
        scenarios.append(Scenario("corrupt-result-n0-i0", Faults(message=plan)))
    # A block that hangs past its timeout on a one-strike blacklist: the
    # worker is retired and the retry waits out its backoff.
    hang = Faults(task=FaultPlan([FaultRule("hang", (0, 0), 0)]))
    strike = (("blacklist_threshold", 1), ("retry_backoff", 0.5))
    scenarios.append(Scenario("hang-blacklist", hang, config=strike))
    return scenarios


# -- run construction ---------------------------------------------------------------


def _make_problem(cfg: ExploreConfig) -> Any:
    from repro.algorithms.edit_distance import EditDistance

    return EditDistance.random(cfg.rows * cfg.block, cfg.cols * cfg.block, seed=cfg.seed)


def _make_config(cfg: ExploreConfig, scenario: Scenario) -> Any:
    from repro.cluster.machine import NodeSpec
    from repro.cluster.topology import ClusterSpec
    from repro.runtime.config import RunConfig

    cluster = ClusterSpec(
        compute_nodes=tuple(NodeSpec(threads=1) for _ in range(cfg.workers)),
        link=_ZeroCostLink(latency=0.0, bandwidth=1.0),
        master_overhead=0.0,
        slave_overhead=0.0,
    )
    kwargs: Dict[str, Any] = dict(
        nodes=cfg.workers + 1,
        threads_per_node=1,
        backend="simulated",
        scheduler="dynamic",
        process_partition=cfg.block,
        thread_partition=cfg.block,
        task_timeout=cfg.task_timeout,
        max_retries=cfg.max_retries,
        retry_backoff=0.0,
        observe=True,
        verify=False,  # the explorer replays the obs stream itself
        cluster=cluster,
        faults=scenario.faults,
    )
    # A scenario's own settings override the explorer's defaults.
    kwargs.update(scenario.config)
    return RunConfig(**kwargs)


def _make_instance(cfg: ExploreConfig, scenario: Scenario) -> Tuple[Any, Any]:
    """The (problem, RunConfig) pair one scenario explores."""
    if scenario.grid is not None:
        from dataclasses import replace

        cfg = replace(cfg, rows=scenario.grid[0], cols=scenario.grid[1])
    return _make_problem(cfg), _make_config(cfg, scenario)


def _make_run(
    problem: Any,
    config: Any,
    chooser: "_ReplayChooser",
    model_factory: Optional[Callable[[], type[Any]]],
    resume: Any = None,
) -> Any:
    from repro.backends.simulated import _SimulatedRun

    cls: type[Any] = model_factory() if model_factory is not None else _SimulatedRun
    run = cls(problem, config, resume, evq=ControlledEventQueue(chooser))
    # Unit compute: every sub-task takes exactly 1.0 sim-seconds, so the
    # events of one dependency wave collide at the same instant (the tie
    # sets the chooser enumerates) while successive waves stay layered —
    # zero compute would collapse the whole run into one intractable tie.
    run._inner = lambda bid, spec: (1.0, 1.0, 1)
    chooser.bind(run)
    return run


# -- state fingerprinting ------------------------------------------------------------


def _rel(t: float, now: float) -> float:
    return round(t - now, 9)


def _fingerprint(run: Any) -> Tuple[Any, ...]:
    """Canonical digest of everything that can influence future behaviour.

    Two interleavings reaching the same fingerprint have identical
    continuations (the simulator is deterministic given the chooser), so
    the DFS only needs to extend one of them. Times are folded in
    relative to ``now`` — two states differing only by a clock shift
    behave identically. Order matters where the scheduler reads order
    (``ready`` feeds the policy's scan); sets/dicts are canonicalized.
    """
    evq = run.evq
    now = evq.now
    nodes = tuple(
        (
            n.dead,
            n.tasks_done,
            n.parked_since is not None,
            n.sent_index,
            n.recv_index,
            n.beacon_index,
            _rel(n.busy_until, now) if n.busy_until > now else 0.0,
            _rel(n.nic_free, now) if n.nic_free > now else 0.0,
        )
        for n in run.nodes
    )
    pending = tuple((_rel(w, now), repr(lbl)) for w, lbl in run.evq.pending_labels())
    return (
        nodes,
        pending,
        tuple(run.ready),
        # All protocol state — the dispatch ledger, worker standing and
        # commit ledger — is the core's, and read only through it.
        run.core.fingerprint(now),
        tuple(sorted(run.live_taint.items())),
        tuple(sorted(run.tainted_commits.items())),
        tuple(frozenset(s) for s in run.node_done),
        _rel(run.master_nic_free, now) if run.master_nic_free > now else 0.0,
        _rel(run.master_cpu_free, now) if run.master_cpu_free > now else 0.0,
        run.failure is not None,
    )


# -- the replaying chooser -----------------------------------------------------------


class _Pruned(Exception):
    """Internal: this interleaving merged into an already-explored state."""


class _ReplayChooser:
    """Chooser that replays a choice prefix, then walks first-alternative.

    Records every *branchable* decision (its chosen index and tie-set
    width) so the driver can enumerate the untaken alternatives, and the
    state fingerprint before each decision so convergent interleavings
    merge. Forced no-op events — see the module docstring — are executed
    eagerly without recording.
    """

    def __init__(self, prefix: Sequence[int], visited: Set[Tuple[Any, ...]]) -> None:
        self.prefix = tuple(prefix)
        self.visited = visited
        self.choices: List[int] = []
        self.widths: List[int] = []
        self.fingerprints: List[Tuple[Any, ...]] = []
        self.pruned = False
        self.run: Any = None
        #: 0 until a killed master is resumed, 1 after: equal scheduler
        #: states on either side of the crash have different futures (the
        #: kill switch is only armed before it).
        self.phase = 0

    def bind(self, run: Any) -> None:
        self.run = run

    def _is_noop(self, label: object) -> bool:
        run = self.run
        if not isinstance(label, tuple) or not label:
            return False
        if label[0] in ("timeout", "lease"):
            # Overtime / lease check of an epoch that already completed
            # (or was already redistributed): reads the ledger, returns.
            return not run.core.is_live(label[1], label[2])
        if label[0] == "idle":
            # Idle announcement of a dead node: returns immediately.
            return bool(run.nodes[label[1]].dead)
        return False

    def choose(self, ties: Sequence[Tuple[int, object]]) -> int:
        for i, (_h, label) in enumerate(ties):
            if self._is_noop(label):
                return i
        depth = len(self.choices)
        fp = (self.phase, *_fingerprint(self.run))
        self.fingerprints.append(fp)
        if depth < len(self.prefix):
            idx = self.prefix[depth]
            if not 0 <= idx < len(ties):
                raise SimulationError(
                    f"replay diverged: prefix[{depth}]={idx} for a tie set of {len(ties)}"
                )
        else:
            if fp in self.visited:
                self.pruned = True
                raise _Pruned()
            idx = 0
        self.choices.append(idx)
        self.widths.append(len(ties))
        return idx


# -- invariant checking --------------------------------------------------------------


def _check_interleaving(
    run: Any,
    scenario: Scenario,
    error: Optional[BaseException],
    reached: Set[str],
    *,
    partial: bool = False,
    journaled: Optional[Dict[Any, int]] = None,
) -> CheckReport:
    """All per-interleaving invariants on one (possibly truncated) run.
    ``journaled`` is the committed prefix a resumed run started from;
    ``reached`` collects the census kinds the run recorded."""
    from repro.utils.errors import FaultToleranceExhausted

    report = CheckReport(title=f"explore:{scenario.name}")
    clean_abort = isinstance(error, FaultToleranceExhausted) and not scenario.expect_complete
    if error is not None and not clean_abort:
        report.add(
            D.EXPLORE_DEADLOCK,
            f"interleaving ended in {type(error).__name__}: {error}",
            scenario.name,
        )
    complete = error is None and not partial
    if complete:
        report.checked += 1
        missing = run.partition.n_blocks - len(run.core.committed)
        if missing:
            report.add(
                D.EXPLORE_ORACLE_MISMATCH,
                f"{missing} of {run.partition.n_blocks} blocks never committed",
                scenario.name,
            )
        if run.tainted_commits:
            report.add(
                D.EXPLORE_ORACLE_MISMATCH,
                f"result differs from the oracle: tainted commits {sorted(run.tainted_commits)}",
                scenario.name,
            )
    events = run.obs.events() if run.obs is not None else ()
    reached.update(e.kind for e in events if e.kind in CENSUS_KINDS and e.scope == "task")
    # Primed with the journaled prefix, the replay holds a resumed stream
    # to the resume invariants too (no journaled task commits again); a
    # truncated or aborted run is not held to finishing what it started.
    report.extend(
        check_trace(
            events,
            run.partition.abstract,
            require_complete=complete,
            journaled=journaled,
            title=f"explore-trace:{scenario.name}",
        )
    )
    return report


# -- results -------------------------------------------------------------------------


@dataclass
class Counterexample:
    """One violating interleaving, replayable from its choice prefix."""

    scenario: str
    choices: Tuple[int, ...]
    codes: Tuple[str, ...]
    report: CheckReport
    trace_path: Optional[str] = None


@dataclass
class ExplorationResult:
    """Outcome of one exploration campaign."""

    scenarios: int = 0
    interleavings: int = 0
    pruned: int = 0
    violations: List[Counterexample] = field(default_factory=list)
    #: True when every scenario's DFS drained within the caps.
    exhaustive: bool = True
    per_scenario: Dict[str, int] = field(default_factory=dict)
    #: Census kinds (:data:`CENSUS_KINDS`) some explored run recorded —
    #: what the campaign reaches, measured.
    reached: Set[str] = field(default_factory=set)

    def report(self, title: str = "explore") -> CheckReport:
        out = merge_reports(title, [ce.report for ce in self.violations])
        out.title = title
        # "checked" counts explored interleavings, not sub-diagnostic
        # probes: callers read it as "how much was actually searched".
        out.checked = self.interleavings
        return out

    def summary(self) -> str:
        status = "OK" if not self.violations else f"{len(self.violations)} violating"
        tail = "exhaustive" if self.exhaustive else "CAPPED"
        never = [k for k in CENSUS_KINDS if k not in self.reached]
        return (
            f"{self.scenarios} scenarios, {self.interleavings} interleavings "
            f"({self.pruned} merged, {tail}): {status}; reached "
            f"{', '.join(k for k in CENSUS_KINDS if k in self.reached)}; "
            f"never reached {', '.join(never) or 'nothing'}"
        )


# -- driver --------------------------------------------------------------------------


def _export_counterexample(
    artifact_dir: str,
    cfg: ExploreConfig,
    scenario: Scenario,
    choices: Sequence[int],
    run: Any,
    report: CheckReport,
    n: int,
) -> str:
    import os

    from repro.obs.export import write_trace

    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(artifact_dir, f"counterexample-{n:03d}-{scenario.name}.json")
    events = run.obs.events() if run.obs is not None else ()
    write_trace(
        path,
        events,
        meta={
            "kind": "explore-counterexample",
            "scenario": scenario.name,
            "choices": list(choices),
            "diagnostics": [str(d) for d in report.errors()],
            "explore_config": {
                "rows": cfg.rows,
                "cols": cfg.cols,
                "block": cfg.block,
                "workers": cfg.workers,
                "seed": cfg.seed,
                "task_timeout": cfg.task_timeout,
                "max_retries": cfg.max_retries,
            },
        },
    )
    return path


def _run_once(
    problem: Any,
    config: Any,
    scenario: Scenario,
    prefix: Sequence[int],
    visited: Set[Tuple[Any, ...]],
    model_factory: Optional[Callable[[], type[Any]]],
    reached: Set[str],
) -> Tuple[Any, _ReplayChooser, CheckReport]:
    """Execute one interleaving and check its invariants. A ``kill_after``
    scenario journals into a scratch directory, and when the kill switch
    fires recovers the journal and carries the same chooser on into the
    resumed run; both halves are checked. Returns the (last) run."""
    import tempfile
    from contextlib import nullcontext
    from dataclasses import replace

    from repro.durable import recover
    from repro.utils.errors import FaultToleranceExhausted, MasterCrash, SchedulerError

    chooser = _ReplayChooser(prefix, visited)
    error: Optional[BaseException] = None
    journaled: Optional[Dict[Any, int]] = None
    reports: List[CheckReport] = []
    journaling = scenario.faults.kill_after is not None
    with tempfile.TemporaryDirectory(prefix="explore-") if journaling else nullcontext() as tmp:
        if journaling:
            config = replace(
                config,
                journal_path=f"{tmp}/master.journal",
                journal_fsync=False,
            )
        run = _make_run(problem, config, chooser, model_factory)
        try:
            try:
                run.execute()
            except MasterCrash:
                reports.append(_check_interleaving(run, scenario, None, reached, partial=True))
                rec = recover(config.journal_path)
                journaled = dict(rec.committed)
                chooser.phase = 1
                run = _make_run(problem, config, chooser, model_factory, resume=rec)
                run.execute()
        except _Pruned:
            pass
        except (FaultToleranceExhausted, SchedulerError, SimulationError) as exc:
            error = exc
    reports.append(
        _check_interleaving(
            run, scenario, error, reached, partial=chooser.pruned, journaled=journaled
        )
    )
    return run, chooser, merge_reports(f"explore:{scenario.name}", reports)


def run_exploration(
    cfg: Optional[ExploreConfig] = None,
    *,
    scenarios: Optional[Sequence[Scenario]] = None,
    model_factory: Optional[Callable[[], type[Any]]] = None,
    artifact_dir: Optional[str] = None,
    max_counterexamples_per_scenario: int = 1,
) -> ExplorationResult:
    """Explore every delivery order of every scenario within the bounds.

    ``model_factory`` swaps the simulated-run class, which is how the
    seeded-defect fixtures check the explorer actually *catches* the
    bugs it exists for (see :func:`reorder_double_commit_model`).
    Violations stop that scenario's DFS after
    ``max_counterexamples_per_scenario`` counterexamples — one witness
    per defect is what a person debugs, and a broken protocol tends to
    break *every* remaining interleaving.
    """
    cfg = cfg or ExploreConfig()
    scens = list(scenarios) if scenarios is not None else default_scenarios(cfg)
    result = ExplorationResult(scenarios=len(scens))
    for scenario in scens:
        problem, config = _make_instance(cfg, scenario)
        visited: Set[Tuple[Any, ...]] = set()
        stack: List[Tuple[int, ...]] = [()]
        explored = 0
        found = 0
        while stack:
            if (
                explored >= cfg.max_interleavings_per_scenario
                or result.interleavings >= cfg.max_total_interleavings
            ):
                result.exhaustive = False
                break
            prefix = stack.pop()
            run, chooser, report = _run_once(
                problem, config, scenario, prefix, visited, model_factory, result.reached
            )
            explored += 1
            result.interleavings += 1
            if chooser.pruned:
                result.pruned += 1
            # Untaken alternatives at every decision this run made beyond
            # its replayed prefix become new DFS roots.
            for depth in range(len(prefix), len(chooser.choices)):
                base = tuple(chooser.choices[:depth])
                for alt in range(1, chooser.widths[depth]):
                    stack.append(base + (alt,))
            visited.update(chooser.fingerprints)
            if not report.ok:
                ce = Counterexample(
                    scenario=scenario.name,
                    choices=tuple(chooser.choices),
                    codes=report.codes(),
                    report=report,
                )
                if artifact_dir is not None:
                    ce.trace_path = _export_counterexample(
                        artifact_dir, cfg, scenario, chooser.choices, run,
                        report, len(result.violations),
                    )
                result.violations.append(ce)
                found += 1
                if found >= max_counterexamples_per_scenario:
                    break
        result.per_scenario[scenario.name] = explored
    return result


def replay_counterexample(
    cfg: ExploreConfig,
    scenario: Scenario,
    choices: Sequence[int],
    *,
    model_factory: Optional[Callable[[], type[Any]]] = None,
) -> CheckReport:
    """Re-execute one recorded interleaving and re-check its invariants.

    Determinism guarantee: the same (config, scenario, choices) triple
    always reproduces the same event trace, which is what makes exported
    counterexamples debuggable artifacts rather than one-off logs.
    """
    problem, config = _make_instance(cfg, scenario)
    # An over-long prefix (e.g. a hand-edited file) diverges loudly via
    # the chooser's bounds check rather than silently exploring.
    return _run_once(problem, config, scenario, choices, set(), model_factory, set())[2]


def scenario_by_name(cfg: ExploreConfig, name: str) -> Scenario:
    """Look one of the default scenarios up by name (replay entry point)."""
    for s in default_scenarios(cfg):
        if s.name == name:
            return s
    raise KeyError(f"unknown scenario {name!r}")


def check_exploration(
    cfg: Optional[ExploreConfig] = None,
    *,
    artifact_dir: Optional[str] = None,
    model_factory: Optional[Callable[[], type[Any]]] = None,
    title: str = "protocol-explore",
) -> Tuple[CheckReport, ExplorationResult]:
    """CLI-facing wrapper: run the campaign, fold it into a CheckReport."""
    result = run_exploration(
        cfg, artifact_dir=artifact_dir, model_factory=model_factory
    )
    report = result.report(title)
    if not result.exhaustive:
        report.add(
            "explore-capped",
            "exploration hit its interleaving cap before draining "
            f"({result.summary()})",
            severity="warning",
        )
    return report, result


# -- seeded defect models ------------------------------------------------------------


def reorder_double_commit_model() -> type[Any]:
    """A simulated run with a reordering-dependent double-commit defect.

    The broken master merges a result whose epoch went stale — but only
    when the overtime check fired *before* the (delayed) result arrived.
    If the result is delivered first, the run is flawless. Randomized
    chaos campaigns essentially never tie a result's arrival to its own
    overtime check (delay 0.05 s against a 30 s timeout), so only
    systematic delivery-order enumeration exposes the bug; the
    ``delay-result-*`` scenarios construct exactly that tie.
    """
    from repro.backends.simulated import _SimulatedRun

    class _ReorderDoubleCommitRun(_SimulatedRun):
        def _accept(self, bid: Any, epoch: int, k: int, envelope: int) -> bool:
            core = self.core
            stale = not core.is_live(bid, epoch)
            if stale and core.attempts(bid) and core.committed.get(bid) != epoch:
                # Defect: merge the stale result instead of dropping it,
                # behind the ledger's back (the core would refuse the
                # second commit).
                if self.sched.enabled:
                    self.sched.record("commit", bid, epoch, k)
                return False
            return super()._accept(bid, epoch, k, envelope)

    return _ReorderDoubleCommitRun
