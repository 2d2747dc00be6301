"""DAG parsing — discovering computable sub-tasks (paper Section IV-E).

Parsing is incremental topological sorting (Fig 8): a vertex becomes
*computable* when it has no unfinished predecessors; completing a vertex
"removes" it and its outgoing edges, possibly making successors
computable. This is the section's reference parser and the package's one
topological peel: :meth:`DAGPattern.topological_order
<repro.dag.pattern.DAGPattern.topological_order>` is :meth:`DAGParser.run_all`
keyed by vertex id, and :func:`critical_path`, the one longest-chain fold
(``repro perf`` reads it too), walks that order. The scheduling threads
of Figs 9 and 11 ask the dispatch core instead
(:class:`~repro.runtime.dispatch.DispatchCore`), which derives the same
frontier from its commit ledger, in this module's schedule order
(:func:`_default_order_key`); the parser serves the simulator's
thread-level list scheduler, :mod:`repro.dag.visualize` and the tests
that hold the core to it. Pattern *validation* is
:func:`~repro.check.pattern_check.check_pattern`'s, which must also
diagnose edges that leave the pattern.

The parser is not thread-safe, and it is strict: completing an unknown,
not-yet-computable, or already-finished vertex raises
:class:`SchedulerError`.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.dag.pattern import DAGPattern, VertexId
from repro.utils.errors import SchedulerError


class VertexState(enum.Enum):
    """Lifecycle of a vertex during parsing (grey/black vertices of Fig 8)."""

    BLOCKED = "blocked"
    COMPUTABLE = "computable"
    DONE = "done"


class DAGParser:
    """Incremental topological parser over a DAG pattern.

    ``order_key`` controls the order in which simultaneously computable
    vertices are reported (and therefore pushed onto the computable
    sub-task stack). The default sorts grid vertices by anti-diagonal then
    row, which mirrors wavefront progression.

    The pattern is compiled once, at construction, into integer-indexed
    tables: :attr:`vertex_ids` (index -> id, in the pattern's vertex
    order), each vertex's successor indices, its initial in-degree and its
    rank in schedule order (vertices with equal keys share a rank, so
    sorting by rank is sorting by key). A :meth:`reset` copies one list,
    so a caller that parses the same pattern many times — the simulator's
    thread level, once per block cost class — compiles it once.
    :meth:`computable_indices` and :meth:`complete_index` are the
    index-level view of :meth:`computable` and :meth:`complete`.
    """

    def __init__(
        self,
        pattern: DAGPattern,
        order_key: Optional[Callable[[VertexId], object]] = None,
    ) -> None:
        self.pattern = pattern
        self._order_key = order_key or _default_order_key
        index: Dict[VertexId, int] = {}
        for vid in pattern.vertices():
            index.setdefault(vid, len(index))
        self._index = index
        self.vertex_ids: Tuple[VertexId, ...] = tuple(index)
        self._succ = tuple(
            tuple(index[s] for s in pattern.successors(vid)) for vid in self.vertex_ids
        )
        #: In-degree left per vertex: > 0 blocked, 0 computable, -1 done.
        self._initial = [len(pattern.predecessors(vid)) for vid in self.vertex_ids]
        keys = [self._order_key(vid) for vid in self.vertex_ids]
        self._rank = [0] * len(keys)
        prev: object = None
        rank = -1
        for i in sorted(range(len(keys)), key=keys.__getitem__):
            if rank < 0 or keys[i] != prev:
                rank, prev = rank + 1, keys[i]
            self._rank[i] = rank
        self.reset()

    def reset(self) -> None:
        """Forget all completions."""
        self._indegree = list(self._initial)
        self._n_done = 0

    # -- queries -----------------------------------------------------------

    @property
    def n_total(self) -> int:
        return len(self._initial)

    @property
    def n_done(self) -> int:
        return self._n_done

    @property
    def n_remaining(self) -> int:
        return self.n_total - self._n_done

    def is_done(self) -> bool:
        """True once every vertex (and hence edge) has been removed."""
        return self._n_done == self.n_total

    def _index_of(self, vid: VertexId) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise SchedulerError(f"{vid!r} is not a vertex of the parsed pattern") from None

    def state(self, vid: VertexId) -> VertexState:
        left = self._indegree[self._index_of(vid)]
        if left < 0:
            return VertexState.DONE
        return VertexState.COMPUTABLE if left == 0 else VertexState.BLOCKED

    def computable(self) -> List[VertexId]:
        """Snapshot of all currently computable vertices, in schedule order."""
        return [self.vertex_ids[i] for i in self.computable_indices()]

    def computable_indices(self) -> List[int]:
        """:meth:`computable` by compiled index."""
        ready = [i for i, left in enumerate(self._indegree) if left == 0]
        ready.sort(key=self._rank.__getitem__)
        return ready

    # -- transitions --------------------------------------------------------

    def complete(self, vid: VertexId) -> List[VertexId]:
        """Remove a finished vertex; return successors that just became computable.

        The returned list is sorted with ``order_key`` so callers can push
        it straight onto the computable stack deterministically.
        """
        return [self.vertex_ids[s] for s in self.complete_index(self._index_of(vid))]

    def complete_index(self, i: int) -> List[int]:
        """:meth:`complete` by compiled index: the indices released, in
        schedule order."""
        indegree = self._indegree
        if indegree[i]:
            vid = self.vertex_ids[i]
            if indegree[i] < 0:
                raise SchedulerError(f"{vid!r} completed twice")
            raise SchedulerError(f"{vid!r} completed while still blocked on predecessors")
        indegree[i] = -1
        self._n_done += 1
        fresh: List[int] = []
        for s in self._succ[i]:
            left = indegree[s] - 1
            indegree[s] = left
            if left == 0:
                fresh.append(s)
            elif left < 0:
                raise SchedulerError(
                    f"indegree of {self.vertex_ids[s]!r} went negative — duplicate edge removal"
                )
        if len(fresh) > 1:
            fresh.sort(key=self._rank.__getitem__)
        return fresh

    def run_all(self) -> List[VertexId]:
        """Drain the whole DAG serially; returns the completion order.

        This is the reference "parse until no vertices remain" loop of
        Section IV-E and doubles as an acyclicity check at runtime.
        """
        rank = self._rank.__getitem__
        order: List[VertexId] = []
        stack = self.computable_indices()
        while stack:
            i = stack.pop(0)
            order.append(self.vertex_ids[i])
            stack.extend(self.complete_index(i))
            stack.sort(key=rank)
        if not self.is_done():
            raise SchedulerError(
                f"parse stalled with {self.n_remaining} vertices left — the pattern has a cycle"
            )
        return order


def _default_order_key(vid: VertexId) -> Tuple:
    """Anti-diagonal-major order for numeric grids; stable repr order for
    custom vertex ids (which may mix strings and integers)."""
    if len(vid) == 2 and isinstance(vid[0], int) and isinstance(vid[1], int):
        i, j = vid
        return (0, i + j, i, j)
    return (1, tuple(repr(part) for part in vid))


def critical_path(
    pattern: DAGPattern, cost: Callable[[VertexId], Optional[float]]
) -> Tuple[float, List[VertexId]]:
    """Length and one witness path of the weighted critical path.

    ``cost`` returns ``None`` for a vertex no chain passes through (a task
    a partial trace never committed); a chain restarts past it. The
    witness follows each vertex's first maximal predecessor. Used by the
    analysis layer and ``repro perf`` to report how close a schedule's
    makespan is to the DAG's intrinsic lower bound.
    """
    longest: Dict[VertexId, float] = {}
    parent: Dict[VertexId, Optional[VertexId]] = {}
    best_tail: Optional[VertexId] = None
    for vid in pattern.topological_order():
        c = cost(vid)
        if c is None:
            continue
        preds = [p for p in pattern.predecessors(vid) if p in longest]
        best_pred = max(preds, key=longest.__getitem__, default=None)
        base = 0.0 if best_pred is None else longest[best_pred]
        longest[vid] = base + float(c)
        parent[vid] = best_pred
        if best_tail is None or longest[vid] > longest[best_tail]:
            best_tail = vid
    if best_tail is None:
        return (0.0, [])
    path: List[VertexId] = []
    cursor: Optional[VertexId] = best_tail
    while cursor is not None:
        path.append(cursor)
        cursor = parent[cursor]
    path.reverse()
    return (longest[best_tail], path)
