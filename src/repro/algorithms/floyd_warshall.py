"""Blocked Floyd-Warshall all-pairs shortest paths — a staged DP family.

The paper closes with "DAG Data Driven Model can be also improved to
adopt more kinds of algorithms"; this module does that. Floyd-Warshall's
dependency structure is *staged*: round ``t`` relaxes every path through
pivot block ``t``, so the schedulable DAG lives over 3-index vertices
``(t, I, J)`` — not a blocked version of any 2D cell grid. It therefore
exercises the :meth:`DPProblem.build_partition` extension point with its
own :class:`FWPartition` instead of the built-in family rules.

Blocked algorithm (Venkataraman et al.): per round ``t``

1. *pivot*   block ``(t, t)``: in-block FW over the pivot index range;
2. *row/col* blocks ``(t, J)`` / ``(I, t)``: relax against the pivot;
3. *phase-3* blocks ``(I, J)``: relax against the round's row and column
   blocks — every cell independent, hence thread-parallel
   (:class:`IndependentGridPattern` inner DAGs). Pivot/row/col blocks
   carry a loop dependence over the pivot index and run as single
   sub-sub-tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.algorithms.problem import BlockEvaluator, DPProblem, InputRegion, Region
from repro.dag.library import IndependentGridPattern
from repro.dag.partition import BlockGrid, Partition, _as_pair, partition_pattern
from repro.dag.pattern import DAGPattern, VertexId
from repro.utils.errors import InconsistentMatrix, PatternError


class FloydWarshallPattern(DAGPattern):
    """The staged blocked-FW DAG: vertices ``(t, i, j)`` over a B x B grid.

    Dependencies:

    - every vertex needs its previous-round self ``(t-1, i, j)``;
    - phase-3 vertices (``i != t and j != t``) need the round's row block
      ``(t, t, j)`` and column block ``(t, i, t)``;
    - row/column vertices need the round's pivot ``(t, t, t)``;
    - **anti-dependence (WAR) edges**: a vertex that overwrites a strip
      region other round-``t-1`` vertices read in place — the round's
      pivot block ``(t, t-1, t-1)``, row blocks ``(t, t-1, j)``, column
      blocks ``(t, i, t-1)`` — waits for every round-``t-1`` reader of
      that region. Without these edges an in-place state store lets a
      round-``t`` write land while a round-``t-1`` reader is still
      queued, which keeps min-plus *correct* (relaxation is monotone)
      but makes the committed bits schedule-dependent; with them, every
      backend commits bit-identical regions in any execution order.
    """

    def __init__(self, b: int) -> None:
        if b <= 0:
            raise PatternError(f"block-grid size must be positive, got {b}")
        self.b = int(b)

    def vertices(self) -> Iterator[VertexId]:
        for t in range(self.b):
            for i in range(self.b):
                for j in range(self.b):
                    yield (t, i, j)

    def n_vertices(self) -> int:
        return self.b ** 3

    def contains(self, vid: VertexId) -> bool:
        if len(vid) != 3:
            return False
        return all(0 <= x < self.b for x in vid)

    def predecessors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        t, i, j = vid
        preds: List[VertexId] = []
        if t > 0:
            preds.append((t - 1, i, j))
            p = t - 1
            if i == p and j == p:
                # Overwrites round p's pivot region: wait for its readers,
                # the round-p row and column blocks.
                preds.extend((p, p, jj) for jj in range(self.b) if jj != p)
                preds.extend((p, ii, p) for ii in range(self.b) if ii != p)
            elif i == p:
                # Overwrites row strip R(p, j): read by phase-3 column j.
                preds.extend((p, ii, j) for ii in range(self.b) if ii != p)
            elif j == p:
                # Overwrites column strip R(i, p): read by phase-3 row i.
                preds.extend((p, i, jj) for jj in range(self.b) if jj != p)
        if i != t and j != t:
            preds.append((t, t, j))
            preds.append((t, i, t))
        elif (i == t) != (j == t):
            preds.append((t, t, t))
        return tuple(preds)

    def successors(self, vid: VertexId) -> Tuple[VertexId, ...]:
        t, i, j = vid
        succs: List[VertexId] = []
        if t + 1 < self.b:
            succs.append((t + 1, i, j))
        if i == t and j == t:
            succs.extend((t, t, jj) for jj in range(self.b) if jj != t)
            succs.extend((t, ii, t) for ii in range(self.b) if ii != t)
        elif i == t:  # row block (t, t, j): feeds phase 3 of column j
            succs.extend((t, ii, j) for ii in range(self.b) if ii != t)
        elif j == t:  # column block (t, i, t): feeds phase 3 of row i
            succs.extend((t, i, jj) for jj in range(self.b) if jj != t)
        if t + 1 < self.b:
            # Mirror of the WAR edges: this vertex's in-place strip reads
            # gate the round-(t+1) writers of those strips.
            if i != t and j != t:
                succs.append((t + 1, t, j))
                succs.append((t + 1, i, t))
            elif (i == t) != (j == t):
                succs.append((t + 1, t, t))
        return tuple(succs)

    def _key(self) -> tuple:
        return (type(self).__name__, self.b)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FloydWarshallPattern) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FloydWarshallPattern(b={self.b})"


def fw_block_type(bid: VertexId) -> str:
    """Classify a blocked-FW vertex: pivot, row, col, or phase3."""
    t, i, j = bid
    if i == t and j == t:
        return "pivot"
    if i == t:
        return "row"
    if j == t:
        return "col"
    return "phase3"


class FWPartition(Partition):
    """Partition of a blocked FW instance: the abstract DAG is staged."""

    def __init__(self, n: int, block: int) -> None:
        b = math.ceil(n / block)
        grid = BlockGrid(shape=(n, n), block_shape=(block, block))
        super().__init__(
            base=FloydWarshallPattern(n),
            abstract=FloydWarshallPattern(b),
            grid=grid,
            kind="floyd-warshall",
        )

    def block_ranges(self, bid: VertexId) -> Tuple[range, range]:
        _, i, j = bid
        return (self.grid.row_range(i), self.grid.col_range(j))

    def is_diagonal_block(self, bid: VertexId) -> bool:
        return False

    def cell_count(self, bid: VertexId) -> int:
        rows, cols = self.block_ranges(bid)
        return len(rows) * len(cols)

    def block_pattern(self, bid: VertexId) -> DAGPattern:
        rows, cols = self.block_ranges(bid)
        return IndependentGridPattern(len(rows), len(cols))

    def build_sub_partition(self, bid: VertexId, thread_block_shape) -> Partition:
        rows, cols = self.block_ranges(bid)
        h, w = len(rows), len(cols)
        if fw_block_type(bid) == "phase3":
            return partition_pattern(IndependentGridPattern(h, w), thread_block_shape)
        # Pivot/row/col blocks carry a loop dependence over the pivot
        # index: one monolithic sub-sub-task.
        return partition_pattern(IndependentGridPattern(h, w), (h, w))

    def inner_shape_key(self, bid: VertexId) -> Tuple:
        rows, cols = self.block_ranges(bid)
        return (len(rows), len(cols), fw_block_type(bid) == "phase3")


@dataclass(frozen=True)
class FWResult:
    """All-pairs distances plus basic reachability statistics."""

    dist: np.ndarray
    n_reachable_pairs: int

    def distance(self, u: int, v: int) -> float:
        return float(self.dist[u, v])


def reconstruct_path(weights: np.ndarray, dist: np.ndarray, u: int, v: int) -> List[int]:
    """One shortest path ``u -> v`` from the distance matrix alone.

    Greedy next-hop search: ``w`` is the next hop iff
    ``weights[u, w] + dist[w, v] == dist[u, v]``.
    """
    if not np.isfinite(dist[u, v]):
        raise ValueError(f"{v} unreachable from {u}")
    path = [u]
    cur = u
    guard = 0
    while cur != v:
        nxt = None
        for w in range(weights.shape[0]):
            if w != cur and np.isfinite(weights[cur, w]):
                if np.isclose(weights[cur, w] + dist[w, v], dist[cur, v]):
                    nxt = w
                    break
        if nxt is None:
            raise InconsistentMatrix("path reconstruction stuck", cell=(cur, v))
        path.append(nxt)
        cur = nxt
        guard += 1
        if guard > weights.shape[0]:
            raise InconsistentMatrix("path reconstruction loops", cell=(u, v))
    return path


class _FWEvaluator(BlockEvaluator):
    """Relaxes one block for one round, by block type."""

    def __init__(self, kind: str, inputs: Dict[str, np.ndarray]) -> None:
        self._kind = kind
        self._W = inputs["self"].copy()
        self._row = inputs.get("row")
        self._col = inputs.get("col")
        self._pivot = inputs.get("pivot")

    def run_subblock(self, local_rows: range, local_cols: range) -> None:
        W = self._W
        if self._kind == "pivot":
            for k in range(W.shape[0]):
                np.minimum(W, W[:, k : k + 1] + W[k : k + 1, :], out=W)
        elif self._kind == "row":
            # W[r, c] = min(W[r, c], pivot[r, k] + W[k, c]), in-place over k.
            for k in range(self._pivot.shape[1]):
                np.minimum(W, self._pivot[:, k : k + 1] + W[k : k + 1, :], out=W)
        elif self._kind == "col":
            for k in range(self._pivot.shape[0]):
                np.minimum(W, W[:, k : k + 1] + self._pivot[k : k + 1, :], out=W)
        else:  # phase3: cells independent; relax only the sub-rectangle
            sub = W[local_rows.start : local_rows.stop, local_cols.start : local_cols.stop]
            row = self._col[local_rows.start : local_rows.stop, :]  # W[i, k] strip
            col = self._row[:, local_cols.start : local_cols.stop]  # W[k, j] strip
            for k in range(row.shape[1]):
                np.minimum(sub, row[:, k : k + 1] + col[k : k + 1, :], out=sub)

    def outputs(self) -> Dict[str, np.ndarray]:
        return {"block": self._W}


class FloydWarshall(DPProblem):
    """All-pairs shortest paths under EasyHPS (staged blocked algorithm)."""

    name = "floyd-warshall"

    def __init__(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError(f"weights must be square, got {weights.shape}")
        if np.any(np.diag(weights) != 0):
            raise ValueError("diagonal must be zero (distance to self)")
        if np.any(weights < 0):
            raise ValueError("negative edge weights are not supported")
        self.weights = weights
        self.n = weights.shape[0]

    @classmethod
    def random(cls, n: int, density: float = 0.25, seed: int | None = None) -> "FloydWarshall":
        """A random directed graph: ``density`` fraction of edges present,
        uniform weights in [1, 10), ``inf`` elsewhere, zero diagonal."""
        rng = np.random.default_rng(seed)
        W = np.where(rng.random((n, n)) < density, rng.uniform(1, 10, (n, n)), np.inf)
        np.fill_diagonal(W, 0.0)
        return cls(W)

    # -- structure --------------------------------------------------------------

    def pattern(self) -> FloydWarshallPattern:
        """The cell-granularity staged DAG (block size 1) — conceptual
        only; the runtime always schedules :meth:`build_partition`."""
        return FloydWarshallPattern(self.n)

    def build_partition(self, process_partition) -> FWPartition:
        block, _ = _as_pair(process_partition)
        return FWPartition(self.n, block)

    def default_partition_sizes(self, threads=1, process_partition=None):
        proc = process_partition or max(1, self.n // 4)
        return super().default_partition_sizes(threads, proc)

    # -- data flow -----------------------------------------------------------------

    def make_state(self) -> Dict[str, np.ndarray]:
        return {"W": self.weights.copy()}

    def input_regions(self, partition: Partition, bid: VertexId) -> Dict[str, InputRegion]:
        rows, cols = partition.block_ranges(bid)
        pivot = partition.grid.row_range(bid[0])
        r, c, p = (rows.start, rows.stop), (cols.start, cols.stop), (pivot.start, pivot.stop)
        regions = {"self": ("W", *r, *c, None)}
        kind = fw_block_type(bid)
        if kind in ("row", "col"):
            regions["pivot"] = ("W", *p, *p, None)
        elif kind == "phase3":
            # W[i, k] strip: this block's rows against the pivot columns.
            regions["col"] = ("W", *r, *p, None)
            # W[k, j] strip: the pivot rows against this block's columns.
            regions["row"] = ("W", *p, *c, None)
        return regions

    def output_regions(self, partition: Partition, bid: VertexId) -> Dict[str, Region]:
        rows, cols = partition.block_ranges(bid)
        return {"block": ("W", rows.start, rows.stop, cols.start, cols.stop)}

    def evaluator(
        self, partition: Partition, bid: VertexId, inputs: Dict[str, np.ndarray]
    ) -> _FWEvaluator:
        return _FWEvaluator(fw_block_type(bid), inputs)

    def finalize(self, state: Dict[str, np.ndarray]) -> FWResult:
        dist = state["W"]
        return FWResult(dist=dist.copy(), n_reachable_pairs=int(np.isfinite(dist).sum()))

    # -- reference --------------------------------------------------------------------

    def reference(self) -> np.ndarray:
        """Independent unblocked Floyd-Warshall (vectorized per pivot)."""
        D = self.weights.copy()
        for k in range(self.n):
            np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :], out=D)
        return D

    # -- cost model ---------------------------------------------------------------------

    def _pivot_width(self, partition: Partition, t: int) -> int:
        return len(partition.grid.row_range(t))

    def block_flops(self, partition: Partition, bid: VertexId) -> float:
        rows, cols = partition.block_ranges(bid)
        return float(len(rows) * len(cols) * self._pivot_width(partition, bid[0]))

    def subblock_costs(
        self, partition: Partition, bid: VertexId, local_ranges: Sequence[Tuple[range, range]]
    ) -> List[float]:
        k = self._pivot_width(partition, bid[0])
        return [float(len(lr) * len(lc) * k) for lr, lc in local_ranges]

    def block_cost_class(self, partition: Partition, bid: VertexId) -> object:
        rows, cols = partition.block_ranges(bid)
        return (len(rows), len(cols), self._pivot_width(partition, bid[0]), fw_block_type(bid))

    def __repr__(self) -> str:
        return f"FloydWarshall(n={self.n})"
