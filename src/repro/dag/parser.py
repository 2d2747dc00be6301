"""DAG parsing — discovering computable sub-tasks (paper Section IV-E).

Parsing is incremental topological sorting (Fig 8): a vertex becomes
*computable* when it has no unfinished predecessors; completing a vertex
"removes" it and its outgoing edges, possibly making successors
computable. This is the section's reference parser. The scheduling
threads of Figs 9 and 11 ask the dispatch core instead
(:class:`~repro.runtime.dispatch.DispatchCore`), which derives the same
frontier from its commit ledger, in this module's schedule order
(:func:`_default_order_key`); the parser serves the simulator's
thread-level list scheduler, :mod:`repro.dag.visualize` and the tests
that hold the core to it.

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
    """

    def __init__(
        self,
        pattern: DAGPattern,
        order_key: Optional[Callable[[VertexId], object]] = None,
    ) -> None:
        self.pattern = pattern
        self._order_key = order_key or _default_order_key
        self._indegree: Dict[VertexId, int] = {}
        self._state: Dict[VertexId, VertexState] = {}
        self.reset()

    def reset(self) -> None:
        """Rebuild parser state from the pattern; forgets all completions."""
        self._indegree = {
            vid: len(self.pattern.predecessors(vid)) for vid in self.pattern.vertices()
        }
        self._state = {
            vid: VertexState.COMPUTABLE if deg == 0 else VertexState.BLOCKED
            for vid, deg in self._indegree.items()
        }
        self._n_done = 0

    # -- queries -----------------------------------------------------------

    @property
    def n_total(self) -> int:
        return len(self._indegree)

    @property
    def n_done(self) -> int:
        return self._n_done

    @property
    def n_remaining(self) -> int:
        return self.n_total - self._n_done

    def is_done(self) -> bool:
        """True once every vertex (and hence edge) has been removed."""
        return self._n_done == self.n_total

    def state(self, vid: VertexId) -> VertexState:
        try:
            return self._state[vid]
        except KeyError:
            raise SchedulerError(f"{vid!r} is not a vertex of the parsed pattern") from None

    def computable(self) -> List[VertexId]:
        """Snapshot of all currently computable vertices, in schedule order."""
        ready = [v for v, s in self._state.items() if s is VertexState.COMPUTABLE]
        ready.sort(key=self._order_key)
        return ready

    # -- transitions --------------------------------------------------------

    def complete(self, vid: VertexId) -> List[VertexId]:
        """Remove a finished vertex; return successors that just became computable.

        The returned list is sorted with ``order_key`` so callers can push
        it straight onto the computable stack deterministically.
        """
        state = self.state(vid)
        if state is VertexState.DONE:
            raise SchedulerError(f"{vid!r} completed twice")
        if state is VertexState.BLOCKED:
            raise SchedulerError(f"{vid!r} completed while still blocked on predecessors")
        self._state[vid] = VertexState.DONE
        self._n_done += 1
        fresh: List[VertexId] = []
        for s in self.pattern.successors(vid):
            self._indegree[s] -= 1
            if self._indegree[s] == 0:
                self._state[s] = VertexState.COMPUTABLE
                fresh.append(s)
            elif self._indegree[s] < 0:
                raise SchedulerError(f"indegree of {s!r} went negative — duplicate edge removal")
        fresh.sort(key=self._order_key)
        return fresh

    def run_all(self) -> List[VertexId]:
        """Drain the whole DAG serially; returns the completion order.

        This is the reference "parse until no vertices remain" loop of
        Section IV-E and doubles as an acyclicity check at runtime.
        """
        order: List[VertexId] = []
        stack = self.computable()
        while stack:
            vid = stack.pop(0)
            order.append(vid)
            for fresh in self.complete(vid):
                stack.append(fresh)
            stack.sort(key=self._order_key)
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
    pattern: DAGPattern, cost: Callable[[VertexId], float]
) -> Tuple[float, List[VertexId]]:
    """Length and one witness path of the weighted critical path.

    Used by the analysis layer to report how close a schedule's makespan is
    to the DAG's intrinsic lower bound.
    """
    longest: Dict[VertexId, float] = {}
    parent: Dict[VertexId, Optional[VertexId]] = {}
    best_tail: Optional[VertexId] = None
    for vid in pattern.topological_order():
        c = float(cost(vid))
        preds = pattern.predecessors(vid)
        if preds:
            best_pred = max(preds, key=lambda p: longest[p])
            longest[vid] = longest[best_pred] + c
            parent[vid] = best_pred
        else:
            longest[vid] = c
            parent[vid] = None
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
