"""DAG Pattern Model — the core abstraction of the DAG Data Driven Model.

A DAG Pattern Model is ``D = {V, E}`` (paper Section IV-A): vertices are
sub-tasks, unidirectional edges are precedence plus communication
dependencies. Patterns here are *implicit*: instead of materializing the
(possibly enormous) cell-level graph, a pattern answers neighborhood
queries (``predecessors``/``successors``/``data_predecessors``) so that the
runtime only materializes the coarse, partitioned DAG it actually
schedules (paper Fig 6).

Two dependency views exist per Fig 7:

- the **topological level** (``predecessors``) is the transitively reduced
  precedence used for parsing and scheduling;
- the **data-communication level** (``data_predecessors``) is the full set
  of vertices whose *data* must be shipped to a sub-task before it runs —
  a superset of (or equal to) the topological predecessors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Tuple

from repro.utils.errors import PatternError, SchedulerError

#: Vertex identifier. Grid patterns use ``(row, col)`` tuples, chain
#: patterns use ``(index,)``; any hashable tuple works for custom patterns.
VertexId = Tuple[int, ...]


class PatternType(enum.Enum):
    """Classification of built-in DAG Pattern Models.

    Mirrors the ``dag_pattern_type`` enum of Table I, using the tD/eD
    taxonomy of Galil & Park that the paper adopts (Section IV-C): a
    ``tD/eD`` DP problem has an ``O(n^t)`` matrix whose cells each depend
    on ``O(n^e)`` others.
    """

    WAVEFRONT_2D0D = "wavefront-2d/0d"
    ROWCOL_PREFIX_2D1D = "rowcol-prefix-2d/1d"
    TRIANGULAR_2D1D = "triangular-2d/1d"
    FULL_2D2D = "full-2d/2d"
    CHAIN_1D = "chain-1d"
    CUSTOM = "custom"


@dataclass
class DAGVertex:
    """Materialized per-vertex record, mirroring Table I's ``DAGElements``.

    Attributes map one-to-one onto the paper's C struct:

    - ``pre_cnt`` — prefix (in-)degree at the topological level;
    - ``pos_cnt`` — postfix (out-)degree at the topological level;
    - ``data_pre_cnt`` — prefix degree at the data-communication level;
    - ``posfix_id`` — successor vertex ids (the paper's linked list);
    - ``data_prefix_id`` — data-dependency vertex ids;
    - ``process`` — the task function to run for this vertex, if bound.
    """

    vid: VertexId
    pre_cnt: int
    pos_cnt: int
    data_pre_cnt: int
    posfix_id: Tuple[VertexId, ...]
    data_prefix_id: Tuple[VertexId, ...]
    process: Optional[Callable[..., object]] = field(default=None, compare=False)


class DAGPattern:
    """Abstract DAG Pattern Model.

    Subclasses implement the neighborhood queries; this base class provides
    derived operations (sources, element materialization, validation,
    adjacency export) on top of them. Patterns are immutable value objects:
    two patterns of the same class and parameters compare equal.
    """

    pattern_type: PatternType = PatternType.CUSTOM

    # -- required interface -------------------------------------------------

    def vertices(self) -> Iterator[VertexId]:
        """Iterate all vertex ids in a deterministic order."""
        raise NotImplementedError

    def n_vertices(self) -> int:
        """Total number of vertices."""
        raise NotImplementedError

    def contains(self, vid: VertexId) -> bool:
        """Whether ``vid`` is a vertex of this pattern."""
        raise NotImplementedError

    def predecessors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        """Topological-level predecessors of ``vid`` (reduced precedence)."""
        raise NotImplementedError

    def successors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        """Topological-level successors of ``vid``."""
        raise NotImplementedError

    # -- optional interface --------------------------------------------------

    def data_predecessors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        """Data-communication-level predecessors; defaults to topological."""
        return self.predecessors(vid)

    # -- derived operations ---------------------------------------------------

    def sources(self) -> Iterator[VertexId]:
        """Vertices with no predecessors — the initially computable set."""
        for vid in self.vertices():
            if not self.predecessors(vid):
                yield vid

    def sinks(self) -> Iterator[VertexId]:
        """Vertices with no successors."""
        for vid in self.vertices():
            if not self.successors(vid):
                yield vid

    def element(self, vid: VertexId, process: Optional[Callable[..., object]] = None) -> DAGVertex:
        """Materialize the Table I record for one vertex."""
        if not self.contains(vid):
            raise PatternError(f"{vid!r} is not a vertex of {self!r}")
        preds = self.predecessors(vid)
        succs = self.successors(vid)
        data_preds = self.data_predecessors(vid)
        return DAGVertex(
            vid=vid,
            pre_cnt=len(preds),
            pos_cnt=len(succs),
            data_pre_cnt=len(data_preds),
            posfix_id=succs,
            data_prefix_id=data_preds,
            process=process,
        )

    def as_adjacency(self) -> dict:
        """Export ``{vid: predecessors}`` — handy for tests and custom patterns."""
        return {vid: self.predecessors(vid) for vid in self.vertices()}

    def validate(self) -> None:
        """Check every vertex; raise :class:`PatternError` on any defect.

        The raising form of :func:`~repro.check.pattern_check.check_pattern`,
        run exhaustively: every edge endpoint and data dependency is a
        vertex, the predecessor and successor views agree, data
        dependencies include topological ones, and the graph is acyclic.
        The message lists every error diagnostic with its code
        (``pattern-cycle``, ``view-mismatch``, ...). Cost is O(V + E); call
        it on coarse patterns, not on hundred-megavertex cell-level grids.
        """
        errors = self.check(max_exhaustive=self.n_vertices()).errors()
        if errors:
            raise PatternError("; ".join(str(d) for d in errors))

    def check(self, **kwargs):
        """Run the :mod:`repro.check` pattern verifier over this pattern.

        Unlike :meth:`validate`, which is this verifier run exhaustively,
        this returns a :class:`~repro.check.diagnostics.CheckReport`
        instead of raising, and by default it scales to huge cell-level
        patterns by sampling (``samples``/``seed`` keywords).
        """
        from repro.check.pattern_check import check_pattern

        return check_pattern(self, **kwargs)

    def topological_order(self) -> Iterator[VertexId]:
        """Iterate vertices in one topological order: smallest computable id first.

        This is :meth:`~repro.dag.parser.DAGParser.run_all` keyed by the
        vertex id itself, so the serial drain, journals and traces follow
        one deterministic order. Raises :class:`PatternError` on a cycle.
        The pattern is immutable, so the order is drained once per
        instance and kept.
        """
        return iter(self._topological_order)

    @cached_property
    def _topological_order(self) -> Tuple[VertexId, ...]:
        from repro.dag.parser import DAGParser

        try:
            return tuple(DAGParser(self, order_key=lambda vid: vid).run_all())
        except SchedulerError as exc:
            raise PatternError(str(exc)) from None

    # -- misc ------------------------------------------------------------------

    def __iter__(self) -> Iterator[VertexId]:
        return self.vertices()

    def __len__(self) -> int:
        return self.n_vertices()

    def __contains__(self, vid: object) -> bool:
        return isinstance(vid, tuple) and self.contains(vid)


def edges_of(pattern: DAGPattern) -> Iterable[Tuple[VertexId, VertexId]]:
    """Iterate all topological edges ``(pred, succ)`` of a pattern."""
    for vid in pattern.vertices():
        for p in pattern.predecessors(vid):
            yield (p, vid)
