"""Nussinov maximum base-pairing for RNA secondary structure — paper workload #2.

``F[i,j] = max(F[i+1,j], F[i,j-1], F[i+1,j-1] + pair(i,j),
              max_{i<=k<j} F[i,k] + F[k+1,j])``

over the upper triangle, with ``F[i,i] = 0``. The bifurcation term gives
each cell an O(n) dependency — a 2D/1D problem on the paper's
:class:`TriangularPattern` (its Fig 5).
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.algorithms.kernels import nussinov_region
from repro.algorithms.sequences import RNA_ALPHABET, encode, pair_matrix
from repro.algorithms.triangular_base import TriangularProblem
from repro.utils.errors import InconsistentMatrix


@dataclass(frozen=True)
class NussinovResult:
    """Final answer: number of pairs, the pair list, and dot-bracket notation."""

    score: int
    pairs: Tuple[Tuple[int, int], ...]
    dot_bracket: str


class Nussinov(TriangularProblem):
    """Nussinov RNA folding under EasyHPS.

    ``min_sep`` is the minimum hairpin-loop separation: bases ``i`` and
    ``j`` may pair only when ``j - i > min_sep``.
    """

    name = "nussinov"

    def __init__(self, seq: str, *, min_sep: int = 1) -> None:
        super().__init__(len(seq))
        if min_sep < 0:
            raise ValueError(f"min_sep must be >= 0, got {min_sep}")
        self.seq = seq
        self.min_sep = int(min_sep)
        self._code = encode(seq, RNA_ALPHABET)
        self._pairs = pair_matrix(RNA_ALPHABET)

    @classmethod
    def random(cls, n: int, seed: int | None = None, **kw) -> "Nussinov":
        """Instance over a random RNA sequence of length ``n``."""
        from repro.algorithms.sequences import random_rna

        return cls(random_rna(n, seed=seed), **kw)

    # -- kernel hooks ------------------------------------------------------------

    def cell_data_window(self, lo: int, hi: int) -> np.ndarray:
        code = self._code[lo:hi]
        return self._pairs[code[:, None], code[None, :]]

    def kernel(self):
        def _kernel(W, can_pair, offset, rows, cols):
            nussinov_region(W, can_pair, offset, rows, cols, min_sep=self.min_sep)

        return _kernel

    # -- result ---------------------------------------------------------------------

    def can_pair(self, i: int, j: int) -> bool:
        """Whether bases ``i`` and ``j`` may pair under the rule in force."""
        return bool(j - i > self.min_sep and self._pairs[self._code[i], self._code[j]])

    def finalize(self, state: Dict[str, np.ndarray]) -> NussinovResult:
        F = state["F"]
        pairs = tuple(sorted(self._traceback(F)))
        brackets = ["."] * self.n
        for i, j in pairs:
            brackets[i] = "("
            brackets[j] = ")"
        return NussinovResult(
            score=int(F[0, self.n - 1]),
            pairs=pairs,
            dot_bracket="".join(brackets),
        )

    def _traceback(self, F: np.ndarray) -> List[Tuple[int, int]]:
        """Recover one optimal pairing by re-deriving each cell's winning case."""
        pairs: List[Tuple[int, int]] = []
        stack: List[Tuple[int, int]] = [(0, self.n - 1)]
        while stack:
            i, j = stack.pop()
            if i >= j:
                continue
            here = F[i, j]
            if here == 0:
                continue
            if here == F[i + 1, j]:
                stack.append((i + 1, j))
            elif here == F[i, j - 1]:
                stack.append((i, j - 1))
            elif self.can_pair(i, j) and here == F[i + 1, j - 1] + 1:
                pairs.append((i, j))
                stack.append((i + 1, j - 1))
            else:
                for k in range(i + 1, j):
                    if here == F[i, k] + F[k + 1, j]:
                        stack.append((i, k))
                        stack.append((k + 1, j))
                        break
                else:
                    raise InconsistentMatrix("traceback stuck", cell=(i, j))
        return pairs

    # -- reference --------------------------------------------------------------------

    def reference(self) -> int:
        """Independent top-down memoized implementation of the score."""
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * self.n + 100))

        @functools.lru_cache(maxsize=None)
        def best(i: int, j: int) -> int:
            if j <= i:
                return 0
            cands = [best(i + 1, j), best(i, j - 1)]
            if self.can_pair(i, j):
                cands.append(best(i + 1, j - 1) + 1)
            for k in range(i + 1, j):
                cands.append(best(i, k) + best(k + 1, j))
            return max(cands)

        return best(0, self.n - 1)

    def __repr__(self) -> str:
        return f"Nussinov(n={self.n}, min_sep={self.min_sep})"
