"""Smith-Waterman with a general gap function (SWGG) — paper workload #1.

The general-gap recurrence is

``H[i,j] = max(0, H[i-1,j-1] + s(a_i, b_j),
              max_{0<=k<j} H[i,k] - w(j-k),
              max_{0<=k<i} H[k,j] - w(i-k))``

with arbitrary gap penalty ``w``. Unlike the affine (Gotoh) special case
there is no O(1) incremental form, so every cell scans its full row and
column prefix — the 2D/1D :class:`RowColPrefixPattern` dependency that
makes SWGG the paper's stress workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.algorithms.kernels import swgg_region
from repro.algorithms.problem import BlockEvaluator, DPProblem, InputRegion, Region
from repro.dag.library import RowColPrefixPattern
from repro.dag.partition import Partition
from repro.dag.pattern import VertexId
from repro.utils.errors import InconsistentMatrix


@dataclass(frozen=True)
class SWGGResult:
    """Final answer: best local-alignment score, its endpoint, and the
    aligned subsequences ('-' marks gaps)."""

    score: float
    end: Tuple[int, int]
    aligned_a: str
    aligned_b: str


class _SWGGEvaluator(BlockEvaluator):
    """Slave-side evaluator holding the shipped prefix strips."""

    def __init__(
        self,
        inputs: Dict[str, np.ndarray],
        sub: np.ndarray,
        gap: np.ndarray,
        matrix_r0: int,
        matrix_c0: int,
    ) -> None:
        self._Hrow = inputs["row_prefix"]
        self._Hcol = inputs["col_prefix"]
        h, w = sub.shape
        self._Hloc = np.empty((h + 1, w + 1), dtype=np.float64)
        self._Hloc[0, :] = inputs["top"]
        self._Hloc[1:, 0] = self._Hrow[:, -1]
        self._sub = sub
        self._gap = gap
        self._r0 = matrix_r0
        self._c0 = matrix_c0

    def run_subblock(self, local_rows: range, local_cols: range) -> None:
        swgg_region(
            self._Hloc,
            self._Hrow,
            self._Hcol,
            self._sub,
            self._gap,
            self._c0,
            self._r0,
            local_rows,
            local_cols,
        )

    def outputs(self) -> Dict[str, np.ndarray]:
        return {"block": self._Hloc[1:, 1:]}


class SmithWatermanGG(DPProblem):
    """Smith-Waterman General Gap local alignment under EasyHPS.

    ``gap_fn`` maps a gap length ``d >= 1`` to its penalty; the default is
    the affine ``gap_open + gap_extend * d`` evaluated *generally* (the
    runtime never exploits affinity, exactly as the paper's SWGG does).
    """

    name = "swgg"

    def __init__(
        self,
        a: str,
        b: str,
        *,
        match: float = 2.0,
        mismatch: float = -1.0,
        gap_open: float = 2.0,
        gap_extend: float = 0.5,
        gap_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        if not a or not b:
            raise ValueError("both sequences must be non-empty")
        self.a = a
        self.b = b
        self.m = len(a)
        self.n = len(b)
        self.match = float(match)
        self.mismatch = float(mismatch)
        d = np.arange(max(self.m, self.n) + 1, dtype=np.float64)
        if gap_fn is None:
            self.gap = gap_open + gap_extend * d
        else:
            self.gap = np.asarray(gap_fn(d), dtype=np.float64)
            if self.gap.shape != d.shape:
                raise ValueError("gap_fn must map the length vector elementwise")
        # gap[0] corresponds to a zero-length gap, which cannot occur; park
        # a huge penalty there so an indexing slip can never win the max.
        self.gap[0] = 1e30

    @classmethod
    def random(cls, m: int, n: int | None = None, seed: int | None = None, **kw) -> "SmithWatermanGG":
        """Instance over random DNA sequences of lengths ``m`` and ``n``."""
        from repro.algorithms.sequences import random_dna

        n = m if n is None else n
        return cls(
            random_dna(m, seed=seed),
            random_dna(n, seed=None if seed is None else seed + 1),
            **kw,
        )

    # -- structure ------------------------------------------------------------

    def pattern(self) -> RowColPrefixPattern:
        return RowColPrefixPattern(self.m, self.n)

    def _score(self, x: str, y: str) -> float:
        return self.match if x == y else self.mismatch

    def _sub_block(self, rows: range, cols: range) -> np.ndarray:
        a = np.frombuffer(self.a.encode(), dtype=np.uint8)[rows.start : rows.stop]
        b = np.frombuffer(self.b.encode(), dtype=np.uint8)[cols.start : cols.stop]
        return np.where(a[:, None] == b[None, :], self.match, self.mismatch)

    # -- DPProblem interface ---------------------------------------------------

    def make_state(self) -> Dict[str, np.ndarray]:
        return {"H": np.zeros((self.m + 1, self.n + 1), dtype=np.float64)}

    def input_regions(self, partition: Partition, bid: VertexId) -> Dict[str, InputRegion]:
        """Prefix reuse: a node that computed the W (resp. N) neighbor
        already holds this block's full row (resp. column) prefix."""
        rows, cols = partition.block_ranges(bid)
        I, J = bid
        R0, R1 = rows.start + 1, rows.stop + 1  # matrix rows R0..R1-1
        C0, C1 = cols.start + 1, cols.stop + 1
        return {
            "row_prefix": ("H", R0, R1, 0, C0, (I, J - 1) if J else None),
            "col_prefix": ("H", 0, R0, C0, C1, (I - 1, J) if I else None),
            "top": ("H", R0 - 1, None, C0 - 1, C1, None),
        }

    def output_regions(self, partition: Partition, bid: VertexId) -> Dict[str, Region]:
        rows, cols = partition.block_ranges(bid)
        return {"block": ("H", rows.start + 1, rows.stop + 1, cols.start + 1, cols.stop + 1)}

    def evaluator(
        self, partition: Partition, bid: VertexId, inputs: Dict[str, np.ndarray]
    ) -> _SWGGEvaluator:
        rows, cols = partition.block_ranges(bid)
        return _SWGGEvaluator(
            inputs,
            sub=self._sub_block(rows, cols),
            gap=self.gap,
            matrix_r0=rows.start + 1,
            matrix_c0=cols.start + 1,
        )

    def finalize(self, state: Dict[str, np.ndarray]) -> SWGGResult:
        H = state["H"]
        flat = int(np.argmax(H))
        i, j = divmod(flat, H.shape[1])
        aligned = self._traceback(H, i, j)
        return SWGGResult(score=float(H[i, j]), end=(i, j), aligned_a=aligned[0], aligned_b=aligned[1])

    def _traceback(self, H: np.ndarray, i: int, j: int) -> Tuple[str, str]:
        """Walk back from the maximum, re-deriving which case produced each cell."""
        out_a: list[str] = []
        out_b: list[str] = []
        while i > 0 and j > 0 and H[i, j] > 0:
            here = H[i, j]
            if here == H[i - 1, j - 1] + self._score(self.a[i - 1], self.b[j - 1]):
                out_a.append(self.a[i - 1])
                out_b.append(self.b[j - 1])
                i, j = i - 1, j - 1
                continue
            # H[i, k] - w(j - k) for k = 0..j-1 pairs with gap[j:0:-1].
            row_hits = np.nonzero(np.isclose(H[i, :j] - self.gap[j:0:-1], here))[0]
            if row_hits.size:
                k = int(row_hits[-1])
                out_a.extend("-" * (j - k))
                out_b.extend(reversed(self.b[k:j]))
                j = k
                continue
            col_hits = np.nonzero(np.isclose(H[:i, j] - self.gap[i:0:-1], here))[0]
            if col_hits.size:
                k = int(col_hits[-1])
                out_a.extend(reversed(self.a[k:i]))
                out_b.extend("-" * (i - k))
                i = k
                continue
            raise InconsistentMatrix("traceback stuck", cell=(i, j))
        return "".join(reversed(out_a)), "".join(reversed(out_b))

    def reference(self) -> float:
        """Independent pure-Python O(m·n·(m+n)) implementation of the score."""
        return float(np.max(self.reference_matrix()))

    def reference_matrix(self) -> np.ndarray:
        """Pure-loop reference H matrix (use only for small instances)."""
        H = np.zeros((self.m + 1, self.n + 1))
        for i in range(1, self.m + 1):
            for j in range(1, self.n + 1):
                best = 0.0
                best = max(best, H[i - 1, j - 1] + self._score(self.a[i - 1], self.b[j - 1]))
                for k in range(j):
                    best = max(best, H[i, k] - self.gap[j - k])
                for k in range(i):
                    best = max(best, H[k, j] - self.gap[i - k])
                H[i, j] = best
        return H

    # -- cost model -----------------------------------------------------------------

    def region_flops(self, rows: range, cols: range, diagonal: bool = False) -> float:
        """Each cell scans its row and column prefixes: cost ≈ i + j."""
        h, w = len(rows), len(cols)
        mean_i = (rows.start + 1 + rows.stop) / 2.0
        mean_j = (cols.start + 1 + cols.stop) / 2.0
        return h * w * (mean_i + mean_j)

    def block_cost_class(self, partition: Partition, bid: VertexId) -> object:
        """Per-cell cost is i + j, so blocks on one anti-diagonal of the
        block grid share their inner cost structure exactly."""
        rows, cols = partition.block_ranges(bid)
        return (len(rows), len(cols), rows.start + cols.start)

    def __repr__(self) -> str:
        return f"SmithWatermanGG(m={self.m}, n={self.n})"
