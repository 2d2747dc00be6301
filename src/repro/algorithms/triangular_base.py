"""Shared plumbing for upper-triangular (2D/1D) DP problems.

Nussinov and matrix-chain-order both fill the upper triangle of an
``n x n`` matrix where cell ``(i, j)`` combines solutions of every split
``(i, k) / (k+1, j)``. A block ``(I, J)`` therefore needs the *row strip*
of blocks to its left (``F[rows(I), r0:c0]``) and the *column strip* of
blocks below it (``F[r1:c1, cols(J)]``) — paper Fig 5's dependency fan.

The evaluator assembles a square working *window* over the index range
``[r0, c1)``: entries below the diagonal stay 0 (the value of an empty
span), which keeps the split recurrence branch-free at the edges.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np

from repro.algorithms.problem import BlockEvaluator, DPProblem, InputRegion, Region
from repro.dag.library import TriangularPattern
from repro.dag.partition import Partition
from repro.dag.pattern import VertexId

#: Kernel signature: (window, cell_data, offset, global_rows, global_cols).
TriangularKernel = Callable[[np.ndarray, np.ndarray, int, range, range], None]


class TriangularBlockEvaluator(BlockEvaluator):
    """Evaluator over the square window of one triangular block."""

    def __init__(
        self,
        row_strip: np.ndarray,
        col_strip: np.ndarray,
        rows: range,
        cols: range,
        cell_data: np.ndarray,
        kernel: TriangularKernel,
        corner: np.ndarray | None = None,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        r0, r1 = rows.start, rows.stop
        c0, c1 = cols.start, cols.stop
        L = c1 - r0
        self._W = np.zeros((L, L), dtype=dtype)
        if row_strip.size:
            self._W[0 : r1 - r0, 0 : c0 - r0] = row_strip
        if col_strip.size:
            self._W[r1 - r0 : L, c0 - r0 : L] = col_strip
        if corner is not None and corner.size:
            self._W[r1 - r0, c0 - r0 - 1] = corner[0, 0]
        self._rows = rows
        self._cols = cols
        self._cell_data = cell_data
        self._kernel = kernel

    def seed_cell(self, global_i: int, global_j: int, value) -> None:
        """Pre-seed one window cell before the kernel runs.

        Used by grammars (CYK) to place terminal-rule masks on the
        diagonal of diagonal blocks, which the span kernels never compute.
        """
        offset = self._rows.start
        self._W[global_i - offset, global_j - offset] = value

    def run_subblock(self, local_rows: range, local_cols: range) -> None:
        rows_g = range(self._rows.start + local_rows.start, self._rows.start + local_rows.stop)
        cols_g = range(self._cols.start + local_cols.start, self._cols.start + local_cols.stop)
        self._kernel(self._W, self._cell_data, self._rows.start, rows_g, cols_g)

    def outputs(self) -> Dict[str, np.ndarray]:
        r0, r1 = self._rows.start, self._rows.stop
        c0, c1 = self._cols.start, self._cols.stop
        return {"block": self._W[0 : r1 - r0, c0 - r0 : c1 - r0]}


class TriangularProblem(DPProblem):
    """Base class for upper-triangular span DP over ``n`` elements."""

    #: Cost charged per cell is ``span_cost_scale * (j - i + 1)`` work units.
    span_cost_scale = 1.0
    #: Element dtype of the DP matrix (CYK uses uint64 bitmasks).
    matrix_dtype: np.dtype | type = np.float64

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"problem size must be positive, got {n}")
        self.n = int(n)

    # -- hooks for subclasses ---------------------------------------------------

    def cell_data_window(self, lo: int, hi: int) -> np.ndarray:
        """Per-cell data for the window over global indices ``[lo, hi)``."""
        raise NotImplementedError

    def kernel(self) -> TriangularKernel:
        raise NotImplementedError

    # -- structure ------------------------------------------------------------------

    def pattern(self) -> TriangularPattern:
        return TriangularPattern(self.n)

    def make_state(self) -> Dict[str, np.ndarray]:
        return {"F": np.zeros((self.n, self.n), dtype=self.matrix_dtype)}

    def input_regions(self, partition: Partition, bid: VertexId) -> Dict[str, InputRegion]:
        """Strip reuse: the W neighbor's executor holds this row strip,
        the S neighbor's executor holds this column strip (a diagonal
        block's strips are empty, its "neighbors" outside the triangle)."""
        rows, cols = partition.block_ranges(bid)
        r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
        i, j = bid
        regions = {
            "row_strip": ("F", r0, r1, r0, c0, (i, j - 1)),
            "col_strip": ("F", r1, c1, c0, c1, (i + 1, j)),
        }
        if i != j:
            # The inward-diagonal corner F[r1, c0-1]: needed by the paired
            # term of the block's bottom-left cell, covered by neither strip.
            regions["corner"] = ("F", r1, r1 + 1, c0 - 1, c0, None)
        return regions

    def output_regions(self, partition: Partition, bid: VertexId) -> Dict[str, Region]:
        rows, cols = partition.block_ranges(bid)
        return {"block": ("F", rows.start, rows.stop, cols.start, cols.stop)}

    def evaluator(
        self, partition: Partition, bid: VertexId, inputs: Dict[str, np.ndarray]
    ) -> TriangularBlockEvaluator:
        rows, cols = partition.block_ranges(bid)
        return TriangularBlockEvaluator(
            row_strip=inputs["row_strip"],
            col_strip=inputs["col_strip"],
            rows=rows,
            cols=cols,
            cell_data=self.cell_data_window(rows.start, cols.stop),
            kernel=self.kernel(),
            corner=inputs.get("corner"),
            dtype=self.matrix_dtype,
        )

    def finalize(self, state: Dict[str, np.ndarray]) -> Any:
        raise NotImplementedError

    def reference(self) -> Any:
        raise NotImplementedError

    # -- cost model -------------------------------------------------------------------

    def region_flops(self, rows: range, cols: range, diagonal: bool = False) -> float:
        """Each cell's split scan costs ≈ its span length ``j - i + 1``."""
        h, w = len(rows), len(cols)
        if diagonal:
            return self.span_cost_scale * h * (h + 1) * (h + 2) / 6.0
        mean_span = (cols.start + cols.stop - 1) / 2.0 - (rows.start + rows.stop - 1) / 2.0 + 1.0
        return self.span_cost_scale * h * w * mean_span

    def block_cost_class(self, partition: Partition, bid: VertexId) -> object:
        """Per-cell cost is the span ``j - i``, so blocks at one diagonal
        offset of the block grid share their inner cost structure."""
        rows, cols = partition.block_ranges(bid)
        return (len(rows), len(cols), cols.start - rows.start, partition.is_diagonal_block(bid))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"
