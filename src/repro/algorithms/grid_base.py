"""Shared plumbing for pairwise-sequence grid DP problems.

Edit distance and LCS are both 2D/0D wavefront problems over an
``(m+1) x (n+1)`` matrix with unit boundary data dependencies: a block
needs only the matrix row above it (including the NW corner) and the
matrix column to its left. This module factors that common block I/O; the
subclasses supply the recurrence kernel and boundary conditions.

Coordinate convention: DP *cell* ``(i, j)`` (0-based over the sequence
characters) lives at matrix entry ``D[i+1, j+1]``; matrix row/column 0
hold the boundary conditions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np

from repro.algorithms.compaction import BoundaryStore, CompactScoreResult
from repro.algorithms.problem import ELEMENT_BYTES, BlockEvaluator, DPProblem, InputRegion, Region
from repro.dag.library import WavefrontPattern
from repro.dag.partition import Partition
from repro.dag.pattern import VertexId


class GridBlockEvaluator(BlockEvaluator):
    """Evaluator over a local ``(h+1, w+1)`` matrix with shipped boundaries."""

    def __init__(
        self,
        top: np.ndarray,
        left: np.ndarray,
        cell_data: np.ndarray,
        kernel: Callable[[np.ndarray, np.ndarray, range, range], None],
    ) -> None:
        h, w = cell_data.shape
        if top.shape != (w + 1,):
            raise ValueError(f"top boundary must have shape {(w + 1,)}, got {top.shape}")
        if left.shape != (h,):
            raise ValueError(f"left boundary must have shape {(h,)}, got {left.shape}")
        self._local = np.empty((h + 1, w + 1), dtype=np.float64)
        self._local[0, :] = top
        self._local[1:, 0] = left
        self._cell_data = cell_data
        self._kernel = kernel

    def run_subblock(self, local_rows: range, local_cols: range) -> None:
        self._kernel(self._local, self._cell_data, local_rows, local_cols)

    def outputs(self) -> Dict[str, np.ndarray]:
        return {"block": self._local[1:, 1:]}


class PairwiseGridProblem(DPProblem):
    """Base class for 2D/0D problems over two sequences ``a`` (rows) and ``b`` (cols)."""

    #: Cell-update operation count charged per cell by the cost model.
    FLOPS_PER_CELL = 3.0

    def __init__(self, a: str, b: str, *, retain: str = "full") -> None:
        if not a or not b:
            raise ValueError("both sequences must be non-empty")
        if retain not in ("full", "boundary"):
            raise ValueError(f"retain must be 'full' or 'boundary', got {retain!r}")
        self.a = a
        self.b = b
        self.m = len(a)
        self.n = len(b)
        #: "full" keeps the dense DP matrix (tracebacks available);
        #: "boundary" keeps only live block boundaries (score-only results,
        #: O(wavefront) master memory — see repro.algorithms.compaction).
        self.retain = retain

    @property
    def recomputable(self) -> bool:
        return self.retain == "full"

    # -- structure --------------------------------------------------------

    def pattern(self) -> WavefrontPattern:
        return WavefrontPattern(self.m, self.n)

    # -- hooks for subclasses ------------------------------------------------

    def boundary_row(self) -> np.ndarray:
        """Matrix row 0 (length ``n + 1``)."""
        raise NotImplementedError

    def boundary_col(self) -> np.ndarray:
        """Matrix column 0 (length ``m + 1``)."""
        raise NotImplementedError

    def cell_data(self, rows: range, cols: range) -> np.ndarray:
        """Per-cell data (match/mismatch) for a block of cells."""
        raise NotImplementedError

    def kernel(self) -> Callable[[np.ndarray, np.ndarray, range, range], None]:
        """The region kernel filling the local matrix."""
        raise NotImplementedError

    # -- DPProblem interface -----------------------------------------------------

    def make_state(self) -> Dict[str, np.ndarray]:
        if self.retain == "boundary":
            return {"boundary": BoundaryStore()}
        D = np.zeros((self.m + 1, self.n + 1), dtype=np.float64)
        D[0, :] = self.boundary_row()
        D[:, 0] = self.boundary_col()
        return {"D": D}

    def input_regions(self, partition: Partition, bid: VertexId) -> Dict[str, InputRegion]:
        rows, cols = partition.block_ranges(bid)
        return {
            "top": ("D", rows.start, None, cols.start, cols.stop + 1, None),
            "left": ("D", rows.start + 1, rows.stop + 1, cols.start, None, None),
        }

    def output_regions(self, partition: Partition, bid: VertexId) -> Dict[str, Region]:
        rows, cols = partition.block_ranges(bid)
        return {"block": ("D", rows.start + 1, rows.stop + 1, cols.start + 1, cols.stop + 1)}

    # Boundary retention is a different *store*, not a different mapping:
    # these two overrides return / accept exactly the declared regions' arrays.

    def extract_inputs(
        self, state: Dict[str, np.ndarray], partition: Partition, bid: VertexId
    ) -> Dict[str, np.ndarray]:
        if self.retain == "boundary":
            return self._extract_from_boundary(state["boundary"], partition, bid)
        return super().extract_inputs(state, partition, bid)

    def _extract_from_boundary(
        self, store: BoundaryStore, partition: Partition, bid: VertexId
    ) -> Dict[str, np.ndarray]:
        """Assemble the top/left inputs from retained block boundaries."""
        I, J = bid
        rows, cols = partition.block_ranges(bid)
        h, w = len(rows), len(cols)
        top = np.empty(w + 1, dtype=np.float64)
        if I == 0:
            top[:] = self.boundary_row()[cols.start : cols.stop + 1]
        else:
            top[1:] = store.rows[(I - 1, J)]
            if J == 0:
                top[0] = self.boundary_col()[rows.start]
            else:
                top[0] = store.corners[(I - 1, J - 1)]
        if J == 0:
            left = self.boundary_col()[rows.start + 1 : rows.stop + 1].copy()
        else:
            left = store.cols[(I, J - 1)].copy()
        assert left.shape == (h,)
        return {"top": top, "left": left}

    def evaluator(
        self, partition: Partition, bid: VertexId, inputs: Dict[str, np.ndarray]
    ) -> GridBlockEvaluator:
        rows, cols = partition.block_ranges(bid)
        return GridBlockEvaluator(
            top=inputs["top"],
            left=inputs["left"],
            cell_data=self.cell_data(rows, cols),
            kernel=self.kernel(),
        )

    def apply_result(
        self,
        state: Dict[str, np.ndarray],
        partition: Partition,
        bid: VertexId,
        outputs: Dict[str, np.ndarray],
    ) -> None:
        if self.retain == "boundary":
            store: BoundaryStore = state["boundary"]
            store.put(bid, outputs["block"])
            last = (partition.grid.n_block_rows - 1, partition.grid.n_block_cols - 1)
            if bid == last:
                store.final = float(outputs["block"][-1, -1])
            store.mark_complete(partition, bid)
            return
        super().apply_result(state, partition, bid, outputs)

    def dense_bytes(self) -> int:
        """What the full DP matrix costs — the compaction baseline."""
        return ELEMENT_BYTES * (self.m + 1) * (self.n + 1)

    def boundary_result(self, state: Dict[str, np.ndarray]) -> CompactScoreResult:
        """Score-only result of a boundary-mode run (subclass finalize hook)."""
        store: BoundaryStore = state["boundary"]
        if store.final is None:
            raise RuntimeError("boundary run incomplete: final block missing")
        return CompactScoreResult(
            score=store.final,
            peak_bytes=store.peak_bytes,
            dense_bytes=self.dense_bytes(),
        )

    def finalize(self, state: Dict[str, np.ndarray]) -> Any:
        raise NotImplementedError

    def reference(self) -> Any:
        raise NotImplementedError

    # -- cost model --------------------------------------------------------------

    def region_flops(self, rows: range, cols: range, diagonal: bool = False) -> float:
        return self.FLOPS_PER_CELL * len(rows) * len(cols)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, n={self.n})"
