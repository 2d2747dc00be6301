"""Seeded defect fixtures — known-bad inputs every check pass must catch.

Eighteen fixtures, one per diagnostic family the verifier exists for:

1.  a cyclic "pattern"                          -> ``pattern-cycle``
2.  a pattern with an out-of-bounds dependency  -> ``dep-out-of-bounds``
3.  a pattern whose data deps drop a topo dep   -> ``data-superset-violation``
4.  a trace committing a block too early        -> ``early-commit``
5.  a trace committing a block twice            -> ``duplicate-commit``
6.  a deliberate ABBA lock inversion            -> ``lock-cycle``
7.  a liar worker re-dispatched after its
    quarantine                                  -> ``protocol-illegal-transition``
8.  a tainted commit never recomputed           -> ``lost-update``
9.  more worker commits than digest checks      -> ``commit-without-verify``
10. an event stream committing an epoch whose
    digest check failed                         -> ``protocol-commit-without-verify``
11. an event stream re-dispatching at a
    cancelled dispatch's epoch                  -> ``protocol-illegal-transition``
12. a master that merges reordering-delayed
    stale results — caught only by systematic
    interleaving exploration                    -> ``duplicate-commit``
13. a raw ``threading.Lock()`` construction     -> ``raw-lock-construction``
14. a direct ``time.monotonic()`` read in
    scheduling code                             -> ``uninjected-clock``
15. a dispatch core that reads the clock and
    takes a lock itself                         -> ``sans-io-violation``
16. a ``RunConfig`` field only its own validator
    mentions                                    -> ``config-field-unread``
17. a slave loop with no ``EndSignal`` branch,
    beside the real master loop                 -> ``protocol-unhandled-message``
18. a data mapping whose ``top`` input reaches
    into a block the DAG does not order first   -> ``mapping-reads-non-ancestor``

They serve two purposes: negative-path tests (each must be *rejected*,
with the named diagnostic), and the ``repro check --selftest`` CLI verb,
which proves in CI that the verifier still has teeth. The broken
patterns subclass :class:`DAGPattern` directly because the public
constructors (by design) refuse to build them; fixtures 4, 5, 7-11 are
recorded streams — lists of :class:`~repro.obs.recorder.ObsEvent`, the
one event type — each judged by one replay into the dispatch core
(:func:`repro.check.trace_check.check_trace`); fixture 12 re-runs the
bounded explorer against a seeded-defect master
(:func:`repro.check.explore.reorder_double_commit_model`) whose bug a
randomized chaos campaign provably cannot time; fixtures 13-17 are
source snippets fed to the AST lints.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.check import diagnostics as D
from repro.check.ast_lint import (
    MESSAGE_DISPATCH_LOOPS,
    lint_clock_discipline,
    lint_config_fields,
    lint_lock_discipline,
    lint_message_dispatch,
    lint_sans_io,
    source_root,
    wire_message_kinds,
)
from repro.check.diagnostics import CheckReport
from repro.check.lock_lint import lock_lint_session, make_lock
from repro.check.pattern_check import check_pattern
from repro.check.trace_check import check_trace
from repro.dag.library import WavefrontPattern
from repro.dag.pattern import DAGPattern, VertexId
from repro.obs.recorder import ObsEvent

#: One recorded step: ``(kind, task, epoch, worker)``.
Step = Tuple[str, Optional[VertexId], int, int]


def stream(*steps: Step) -> List[ObsEvent]:
    """A recorded stream, ``seq`` in the order given."""
    return [
        ObsEvent(kind, 0.0, task, epoch, worker=worker, seq=seq)
        for seq, (kind, task, epoch, worker) in enumerate(steps)
    ]


class _ListPattern(DAGPattern):
    """Minimal adjacency-backed pattern that skips all validation."""

    def __init__(self, preds: Dict[VertexId, Tuple[VertexId, ...]]) -> None:
        self._preds = {k: tuple(v) for k, v in preds.items()}
        self._succs: Dict[VertexId, List[VertexId]] = {k: [] for k in self._preds}
        for v, ps in self._preds.items():
            for p in ps:
                if p in self._succs:
                    self._succs[p].append(v)

    def vertices(self) -> Iterator[VertexId]:
        return iter(sorted(self._preds))

    def n_vertices(self) -> int:
        return len(self._preds)

    def contains(self, vid: VertexId) -> bool:
        return tuple(vid) in self._preds

    def predecessors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        return self._preds[tuple(vid)]

    def successors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        return tuple(self._succs[tuple(vid)])


def cyclic_pattern() -> DAGPattern:
    """Three vertices chasing each other: (0,) -> (1,) -> (2,) -> (0,)."""
    return _ListPattern({(0,): [(2,)], (1,): [(0,)], (2,): [(1,)]})


def out_of_bounds_pattern() -> DAGPattern:
    """A 2-chain whose head also 'depends' on a vertex that does not exist."""
    return _ListPattern({(0,): [(9, 9)], (1,): [(0,)]})


class _DataGapPattern(_ListPattern):
    """Chain whose data-communication level forgets the topological edge."""

    def __init__(self) -> None:
        super().__init__({(0,): [], (1,): [(0,)]})

    def data_predecessors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        return ()  # violates the Fig 7 containment invariant


def data_gap_pattern() -> DAGPattern:
    return _DataGapPattern()


def early_commit_trace() -> Tuple[List[ObsEvent], DAGPattern]:
    """A 2x2 wavefront trace where (1, 1) commits before (0, 1)/(1, 0)."""
    events = stream(
        ("assign", (0, 0), 0, 0),
        ("commit", (0, 0), 0, 0),
        ("assign", (0, 1), 0, 0),
        ("assign", (1, 0), 0, 0),
        ("commit", (1, 1), 0, 0),  # neither (0, 1) nor (1, 0) landed yet
        ("commit", (0, 1), 0, 0),
        ("commit", (1, 0), 0, 0),
    )
    return events, WavefrontPattern(2, 2)


def duplicate_commit_trace() -> Tuple[List[ObsEvent], DAGPattern]:
    """A fault-tolerance race: both epochs of (0, 1) commit."""
    events = stream(
        ("assign", (0, 0), 0, 0),
        ("commit", (0, 0), 0, 0),
        ("assign", (0, 1), 0, 0),
        ("redistribute", (0, 1), 0, -1),
        ("assign", (0, 1), 1, 1),
        ("commit", (0, 1), 1, 1),
        # The timed-out epoch-0 result lands anyway and is wrongly merged:
        ("commit", (0, 1), 0, 0),
    )
    return events, WavefrontPattern(1, 2)


def abba_lock_report() -> CheckReport:
    """Two threads acquiring the same pair of locks in opposite orders."""
    with lock_lint_session() as lint:
        lock_a = make_lock("fixture.A")
        lock_b = make_lock("fixture.B")

        def a_then_b() -> None:
            with lock_a:
                with lock_b:
                    pass

        def b_then_a() -> None:
            with lock_b:
                with lock_a:
                    pass

        # Run sequentially on two threads: the *order* graph still records
        # the inversion, without risking an actual deadlock in the fixture.
        for fn in (a_then_b, b_then_a):
            t = threading.Thread(target=fn, name=f"fixture-{fn.__name__}")
            t.start()
            t.join()
        return lint.report()


def liar_quarantine_trace() -> Tuple[List[ObsEvent], DAGPattern]:
    """A liar worker convicted, quarantined — then wrongly re-dispatched.

    Worker 1 lies about (0, 1); the audit convicts it, the taint
    recompute lands on worker 0, and the quarantine retires worker 1.
    The defect: the master assigns (0, 3) to the quarantined worker
    anyway (an eligibility check that forgot the quarantine set) — the
    core, fed the same quarantine, refuses that dispatch.
    """
    events = stream(
        ("assign", (0, 0), 0, 0),
        ("commit", (0, 0), 0, 0),
        ("assign", (0, 1), 0, 1),
        ("commit", (0, 1), 0, 1),
        ("audit-convict", (0, 1), 0, 1),
        ("taint-invalidate", (0, 1), 0, -1),
        ("quarantine", None, 0, 1),
        ("assign", (0, 1), 1, 0),
        ("commit", (0, 1), 1, 0),
        ("assign", (0, 2), 0, 0),
        ("commit", (0, 2), 0, 0),
        ("assign", (0, 3), 0, 1),  # the defect: worker 1 is quarantined
        ("commit", (0, 3), 0, 1),
    )
    return events, WavefrontPattern(1, 4)


def taint_without_recompute_trace() -> Tuple[List[ObsEvent], DAGPattern]:
    """A conviction whose invalidated block is never recomputed: the run
    'finishes' with the tainted region simply missing from the state."""
    events = stream(
        ("assign", (0, 0), 0, 0),
        ("commit", (0, 0), 0, 0),
        ("audit-convict", (0, 0), 0, 0),
        ("taint-invalidate", (0, 0), 0, -1),
        # No later commit of (0, 0): the frontier push was dropped.
    )
    return events, WavefrontPattern(1, 1)


def unverified_commit_report() -> CheckReport:
    """Three worker commits but only two receive-side digest checks."""
    events = stream(
        ("assign", (0, 0), 0, 0),
        ("commit", (0, 0), 0, 0),
        ("assign", (0, 1), 0, 1),
        ("commit", (0, 1), 0, 1),
        ("assign", (0, 2), 0, 0),
        ("commit", (0, 2), 0, 0),
    )
    return check_trace(events, WavefrontPattern(1, 3), verified=2)


def _one_task_stream_report(title: str, *steps: Tuple[str, int, int]) -> CheckReport:
    """Replay ``(kind, epoch, worker)`` steps about the one task of a 1x1
    wavefront into the dispatch core."""
    events = stream(*((kind, (0, 0), epoch, worker) for kind, epoch, worker in steps))
    return check_trace(events, WavefrontPattern(1, 1), require_complete=False, title=title)


def unverified_commit_stream_report() -> CheckReport:
    """An observed stream that merges a payload the receive-side digest
    check had refused: the epoch the core ``digest-reject``ed commits."""
    return _one_task_stream_report(
        "fixture:unverified-commit",
        ("assign", 0, 0),
        ("digest-reject", 0, 0),
        ("redistribute", 0, -1),
        ("commit", 0, 0),  # the corrupt result lands anyway
    )


def reused_epoch_stream_report() -> CheckReport:
    """An observed stream that re-dispatches a cancelled task at the
    epoch it already used — a late result of the first dispatch would
    then pass the epoch check. The core hands out epoch 1 here."""
    return _one_task_stream_report(
        "fixture:reused-epoch",
        ("assign", 0, 0),
        ("redistribute", 0, -1),
        ("assign", 0, 1),  # same epoch, another worker
    )


def reorder_double_commit_report() -> CheckReport:
    """Exhaustively explore a 1x1 instance under a result delayed onto
    its own overtime check, against the seeded broken master. One of the
    two delivery orders double-commits; randomized chaos (delay 0.05 s
    vs. a 30 s timeout) can essentially never construct the tie."""
    from repro.check.explore import (
        ExploreConfig,
        Scenario,
        TargetedFaultPlan,
        TargetedFaultRule,
        reorder_double_commit_model,
        run_exploration,
    )
    from repro.cluster.faults import Faults

    cfg = ExploreConfig(rows=1, cols=1, workers=1)
    scenario = Scenario(
        "delay-result-n0-i0",
        Faults(
            message=TargetedFaultPlan(
                (TargetedFaultRule("delay", "recv", 0, 0, delay=cfg.task_timeout - 1.0),)
            )
        ),
    )
    result = run_exploration(
        cfg, scenarios=[scenario], model_factory=reorder_double_commit_model
    )
    return result.report("fixture:reorder-double-commit")


_RAW_LOCK_SNIPPET = """\
import threading

class Recorder:
    def __init__(self):
        self._lock = threading.Lock()  # invisible to the lock-order lint
"""

_RAW_CLOCK_SNIPPET = """\
import time

def overtime(deadline):
    return time.monotonic() > deadline  # breaks under simulated time
"""

_IO_IN_CORE_SNIPPET = """\
import time
from repro.check.lock_lint import make_lock

class DispatchCore:
    def deadline(self, task, epoch):
        with make_lock("core"):
            return time.monotonic() > self._live[task].deadline
"""


_DEAD_KNOB_CONFIG = """\
class RunConfig:
    task_timeout: float = 30.0
    stall_timeout: float = None
    linger: float = 0.5

    def __post_init__(self):
        assert self.linger >= 0  # validated, never used

    @property
    def effective_stall_timeout(self):
        return self.stall_timeout or 2 * self.task_timeout + 1
"""

_DEAD_KNOB_READER = """\
def watchdog(config, idle_for):
    return idle_for > config.effective_stall_timeout
"""

_NO_END_SIGNAL_SLAVE = """\
class SlavePart:
    def run(self):
        while True:
            self._send(IdleSignal(self.slave_id))
            msg = self._recv()
            if not isinstance(msg, BatchAssign):
                continue  # an EndSignal is never told apart: the slave spins
            self._send(self._compute_wave(msg))
"""


def raw_lock_snippet_report() -> CheckReport:
    report = CheckReport(title="fixture:raw-lock")
    for line, what in lint_lock_discipline(_RAW_LOCK_SNIPPET, "<fixture>"):
        report.checked += 1
        report.add(D.RAW_LOCK_CONSTRUCTION, f"raw {what} at <fixture>:{line}")
    return report


def raw_clock_snippet_report() -> CheckReport:
    report = CheckReport(title="fixture:raw-clock")
    for line, what in lint_clock_discipline(_RAW_CLOCK_SNIPPET, "<fixture>"):
        report.checked += 1
        report.add(D.UNINJECTED_CLOCK, f"direct {what} at <fixture>:{line}")
    return report


def io_in_core_snippet_report() -> CheckReport:
    report = CheckReport(title="fixture:io-in-core")
    for line, what in lint_sans_io(_IO_IN_CORE_SNIPPET, "<fixture>"):
        report.checked += 1
        report.add(D.SANS_IO_VIOLATION, f"{what} at <fixture>:{line}")
    return report


def dead_knob_snippet_report() -> CheckReport:
    report = CheckReport(title="fixture:dead-knob")
    for line, name in lint_config_fields(_DEAD_KNOB_CONFIG, [_DEAD_KNOB_READER]):
        report.checked += 1
        report.add(D.CONFIG_FIELD_UNREAD, f"RunConfig.{name} at <fixture>:{line}")
    return report


def unhandled_end_signal_report() -> CheckReport:
    """The real master loop beside a slave loop that never tests for
    ``EndSignal``: only that kind is left without a handler."""
    report = CheckReport(title="fixture:unhandled-end-signal")
    (master_path, _, _), (slave_path, _, _) = MESSAGE_DISPATCH_LOOPS
    with open(f"{source_root()}/{master_path}", encoding="utf-8") as fh:
        sources = {master_path: fh.read(), slave_path: _NO_END_SIGNAL_SLAVE}
    for subject, what in lint_message_dispatch(sources, wire_message_kinds()):
        report.checked += 1
        report.add(D.PROTOCOL_UNHANDLED_MESSAGE, what, subject)
    return report


def overreaching_mapping_report() -> CheckReport:
    """An edit distance whose ``top`` input is declared one cell too wide:
    its last cell is the bottom-left cell of block ``(I-1, J+1)``, which
    the wavefront DAG runs *concurrently* with ``(I, J)``."""
    from repro.algorithms import EditDistance
    from repro.check.pattern_check import check_data_mapping

    class Overreaching(EditDistance):
        def input_regions(self, partition, bid):
            regions = super().input_regions(partition, bid)
            key, r0, r1, c0, c1, holder = regions["top"]
            regions["top"] = (key, r0, r1, c0, c1 + 1, holder)
            return regions

    problem = Overreaching.random(12, 12, seed=0)
    return check_data_mapping(problem, problem.build_partition(4))


#: name -> (expected diagnostic code, runner returning the CheckReport).
SELFTEST: Dict[str, Tuple[str, Callable[[], CheckReport]]] = {
    "cyclic-pattern": (D.PATTERN_CYCLE, lambda: check_pattern(cyclic_pattern())),
    "out-of-bounds-dep": (D.DEP_OUT_OF_BOUNDS, lambda: check_pattern(out_of_bounds_pattern())),
    "data-deps-gap": (D.DATA_SUPERSET_VIOLATION, lambda: check_pattern(data_gap_pattern())),
    "early-commit-trace": (
        D.EARLY_COMMIT,
        lambda: check_trace(*early_commit_trace(), require_complete=False),
    ),
    "duplicate-commit-trace": (
        D.DUPLICATE_COMMIT,
        lambda: check_trace(*duplicate_commit_trace(), require_complete=False),
    ),
    "abba-lock-cycle": (D.LOCK_CYCLE, abba_lock_report),
    "liar-quarantine-dispatch": (
        D.PROTOCOL_ILLEGAL_TRANSITION,
        lambda: check_trace(*liar_quarantine_trace()),
    ),
    "taint-never-recomputed": (
        D.LOST_UPDATE,
        lambda: check_trace(*taint_without_recompute_trace()),
    ),
    "commit-without-verify": (D.COMMIT_WITHOUT_VERIFY, unverified_commit_report),
    "protocol-unverified-commit": (
        D.PROTOCOL_COMMIT_WITHOUT_VERIFY,
        unverified_commit_stream_report,
    ),
    "protocol-reused-epoch-stream": (
        D.PROTOCOL_ILLEGAL_TRANSITION,
        reused_epoch_stream_report,
    ),
    "explore-reorder-double-commit": (
        D.DUPLICATE_COMMIT,
        reorder_double_commit_report,
    ),
    "raw-lock-construction": (D.RAW_LOCK_CONSTRUCTION, raw_lock_snippet_report),
    "uninjected-clock": (D.UNINJECTED_CLOCK, raw_clock_snippet_report),
    "io-in-dispatch-core": (D.SANS_IO_VIOLATION, io_in_core_snippet_report),
    "dead-config-knob": (D.CONFIG_FIELD_UNREAD, dead_knob_snippet_report),
    "unhandled-end-signal": (D.PROTOCOL_UNHANDLED_MESSAGE, unhandled_end_signal_report),
    "overreaching-data-mapping": (D.MAPPING_READS_NON_ANCESTOR, overreaching_mapping_report),
}


def run_selftest() -> List[Tuple[str, str, bool]]:
    """Run every seeded defect; returns (name, expected code, detected)."""
    results: List[Tuple[str, str, bool]] = []
    for name, (code, runner) in SELFTEST.items():
        report = runner()
        results.append((name, code, report.has(code)))
    return results
