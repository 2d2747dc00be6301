"""Optimal binary search tree — triangular 2D/1D DP (Knuth's problem).

Named in the paper's introduction ("optimal static search tree
construction") as a motivating DP application. For keys ``0..n-1`` with
access frequencies ``freq``:

``c[i,j] = w(i,j) + min_{i<=r<=j} (c[i,r-1] + c[r+1,j])``

where ``w(i,j) = sum(freq[i..j])`` and empty ranges cost 0 — exactly the
paper's Algorithm 4.2 shape, on the same triangular machinery as matrix
chain and Nussinov.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.algorithms.triangular_base import TriangularProblem
from repro.utils.errors import InconsistentMatrix


def obst_region(W: np.ndarray, prefix: np.ndarray, offset: int, rows, cols) -> None:
    """Fill one region of the OBST window in place.

    ``prefix`` is the frequency prefix-sum vector (``prefix[k]`` = sum of
    the first ``k`` frequencies), so ``w(i, j) = prefix[j+1] - prefix[i]``.
    Window layout as in :mod:`repro.algorithms.triangular_base`: entries
    below the diagonal are 0 (empty key ranges).
    """
    for i in reversed(rows):
        li = i - offset
        for j in cols:
            if j < i:
                continue
            lj = j - offset
            w_ij = prefix[j + 1] - prefix[i]
            if j == i:
                W[li, lj] = w_ij
                continue
            # Root r = i..j: left subtree (i, r-1) is W[li, r-1-offset]
            # (the r = i case reads the zero below-diagonal cell), right
            # subtree (r+1, j) is W[r+1-offset, lj] (zero when r = j).
            left = np.empty(j - i + 1)
            left[0] = 0.0
            left[1:] = W[li, li : lj]
            right = np.empty(j - i + 1)
            right[:-1] = W[li + 1 : lj + 1, lj]
            right[-1] = 0.0
            W[li, lj] = w_ij + float(np.min(left + right))


@dataclass(frozen=True)
class OBSTResult:
    """Final answer: expected search cost and the chosen tree."""

    cost: float
    #: Nested (key, left_subtree, right_subtree) with None for empty.
    tree: Optional[tuple]

    def depth_of(self, key: int) -> int:
        """1-based depth of ``key`` in the chosen tree."""
        node, depth = self.tree, 1
        while node is not None:
            root, left, right = node
            if key == root:
                return depth
            node = left if key < root else right
            depth += 1
        raise KeyError(key)


class OptimalBST(TriangularProblem):
    """Optimal static search tree under EasyHPS."""

    name = "optimal-bst"

    def __init__(self, freq) -> None:
        freq = np.asarray(freq, dtype=np.float64)
        if freq.ndim != 1 or freq.size == 0:
            raise ValueError("freq must be a non-empty 1D vector")
        if np.any(freq < 0):
            raise ValueError("frequencies must be >= 0")
        super().__init__(freq.size)
        self.freq = freq
        self._prefix = np.concatenate([[0.0], np.cumsum(freq)])

    @classmethod
    def random(cls, n: int, seed: int | None = None) -> "OptimalBST":
        rng = np.random.default_rng(seed)
        return cls(rng.integers(1, 100, size=n).astype(float))

    # -- kernel hooks ------------------------------------------------------------

    def cell_data_window(self, lo: int, hi: int) -> np.ndarray:
        return self._prefix

    def kernel(self):
        return obst_region

    # -- result ----------------------------------------------------------------------

    def w(self, i: int, j: int) -> float:
        """Total frequency of keys ``i..j`` (0 for empty ranges)."""
        if j < i:
            return 0.0
        return float(self._prefix[j + 1] - self._prefix[i])

    def finalize(self, state: Dict[str, np.ndarray]) -> OBSTResult:
        C = state["F"]

        def cost(i: int, j: int) -> float:
            return float(C[i, j]) if i <= j else 0.0

        def build(i: int, j: int) -> Optional[tuple]:
            if j < i:
                return None
            target = cost(i, j) - self.w(i, j)
            for r in range(i, j + 1):
                if np.isclose(cost(i, r - 1) + cost(r + 1, j), target):
                    return (r, build(i, r - 1), build(r + 1, j))
            raise InconsistentMatrix("no root reconstructs the cost", cell=(i, j))

        return OBSTResult(cost=float(C[0, self.n - 1]), tree=build(0, self.n - 1))

    # -- reference --------------------------------------------------------------------

    def reference(self) -> float:
        """Independent bottom-up pure-Python implementation."""
        n = self.n
        c = [[0.0] * n for _ in range(n)]
        for i in range(n):
            c[i][i] = float(self.freq[i])
        for span in range(2, n + 1):
            for i in range(0, n - span + 1):
                j = i + span - 1
                best = min(
                    (c[i][r - 1] if r > i else 0.0) + (c[r + 1][j] if r < j else 0.0)
                    for r in range(i, j + 1)
                )
                c[i][j] = self.w(i, j) + best
        return c[0][n - 1]
