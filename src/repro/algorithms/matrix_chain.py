"""Matrix-chain-order — the classic 2D/1D triangular DP (Algorithm 4.2 family).

``m[i,j] = min_{i<=k<j} m[i,k] + m[k+1,j] + p_i p_{k+1} p_{j+1}`` with
``m[i,i] = 0``: the minimum scalar-multiplication cost of parenthesizing a
chain of ``n`` matrices whose dimensions are ``p_0 x p_1, p_1 x p_2, ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.algorithms.kernels import matrix_chain_region
from repro.algorithms.triangular_base import TriangularProblem
from repro.utils.errors import InconsistentMatrix


@dataclass(frozen=True)
class MatrixChainResult:
    """Final answer: minimum multiplication cost and a parenthesization."""

    cost: float
    parenthesization: str


class MatrixChainOrder(TriangularProblem):
    """Optimal matrix-chain parenthesization under EasyHPS."""

    name = "matrix-chain"

    def __init__(self, dims: Sequence[int]) -> None:
        dims = [int(d) for d in dims]
        if len(dims) < 2:
            raise ValueError("need at least two dimensions (one matrix)")
        if any(d <= 0 for d in dims):
            raise ValueError("all dimensions must be positive")
        super().__init__(len(dims) - 1)
        self.dims = np.asarray(dims, dtype=np.float64)

    @classmethod
    def random(
        cls, n: int, seed: int | None = None, low: int = 5, high: int = 50
    ) -> "MatrixChainOrder":
        """Instance with ``n`` matrices of random dimensions in ``[low, high]``."""
        rng = np.random.default_rng(seed)
        return cls(rng.integers(low, high + 1, size=n + 1).tolist())

    # -- kernel hooks -------------------------------------------------------------

    def cell_data_window(self, lo: int, hi: int) -> np.ndarray:
        # The matrix-chain kernel indexes the full dims vector directly.
        return self.dims

    def kernel(self):
        return matrix_chain_region

    # -- result ----------------------------------------------------------------------

    def finalize(self, state: Dict[str, np.ndarray]) -> MatrixChainResult:
        M = state["F"]
        return MatrixChainResult(
            cost=float(M[0, self.n - 1]),
            parenthesization=self._parenthesize(M, 0, self.n - 1),
        )

    def _parenthesize(self, M: np.ndarray, i: int, j: int) -> str:
        if i == j:
            return f"A{i}"
        for k in range(i, j):
            cost = M[i, k] + M[k + 1, j] + self.dims[i] * self.dims[k + 1] * self.dims[j + 1]
            if np.isclose(M[i, j], cost):
                return f"({self._parenthesize(M, i, k)}{self._parenthesize(M, k + 1, j)})"
        raise InconsistentMatrix("parenthesization stuck", cell=(i, j))

    # -- reference --------------------------------------------------------------------

    def reference(self) -> float:
        """Independent bottom-up pure-Python implementation of the cost."""
        n = self.n
        p = self.dims
        m = [[0.0] * n for _ in range(n)]
        for span in range(2, n + 1):
            for i in range(0, n - span + 1):
                j = i + span - 1
                m[i][j] = min(
                    m[i][k] + m[k + 1][j] + p[i] * p[k + 1] * p[j + 1] for k in range(i, j)
                )
        return float(m[0][n - 1])
