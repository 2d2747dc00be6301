"""Unit tests for the numpy DP kernels, against hand-rolled references."""

import numpy as np
import pytest

from repro.algorithms.kernels import (
    edit_distance_region,
    lcs_region,
    matrix_chain_region,
    nussinov_region,
)
from tests.oracle_kernels import antidiagonal_indices


class TestAntidiagonalIndices:
    def test_square(self):
        rows, cols = antidiagonal_indices(3, 3, 2)
        assert list(zip(rows, cols)) == [(0, 2), (1, 1), (2, 0)]

    def test_wide_region_clips(self):
        rows, cols = antidiagonal_indices(2, 5, 4)
        assert list(zip(rows, cols)) == [(0, 4), (1, 3)]

    def test_all_diagonals_cover_region(self):
        h, w = 4, 7
        seen = set()
        for d in range(h + w - 1):
            rows, cols = antidiagonal_indices(h, w, d)
            seen.update(zip(rows.tolist(), cols.tolist()))
        assert len(seen) == h * w


def _ed_reference(a: str, b: str) -> np.ndarray:
    m, n = len(a), len(b)
    D = np.zeros((m + 1, n + 1))
    D[0, :] = np.arange(n + 1)
    D[:, 0] = np.arange(m + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            D[i, j] = min(D[i - 1, j] + 1, D[i, j - 1] + 1, D[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
    return D


class TestEditDistanceRegion:
    def test_whole_block_matches_reference(self):
        a, b = "kitten", "sitting"
        ref = _ed_reference(a, b)
        D = np.zeros((len(a) + 1, len(b) + 1))
        D[0, :] = np.arange(len(b) + 1)
        D[:, 0] = np.arange(len(a) + 1)
        sub = (np.frombuffer(a.encode(), np.uint8)[:, None]
               != np.frombuffer(b.encode(), np.uint8)[None, :]).astype(float)
        edit_distance_region(D, sub, range(len(a)), range(len(b)))
        assert np.array_equal(D, ref)
        assert D[-1, -1] == 3

    def test_region_by_region_equals_whole(self):
        rng = np.random.default_rng(0)
        a = "".join(rng.choice(list("AB"), 9))
        b = "".join(rng.choice(list("AB"), 12))
        ref = _ed_reference(a, b)
        D = np.zeros((10, 13))
        D[0, :] = np.arange(13)
        D[:, 0] = np.arange(10)
        sub = (np.frombuffer(a.encode(), np.uint8)[:, None]
               != np.frombuffer(b.encode(), np.uint8)[None, :]).astype(float)
        # Sweep 3x4 sub-regions in wavefront order.
        for bi in range(3):
            for bj in range(3):
                edit_distance_region(D, sub, range(bi * 3, bi * 3 + 3), range(bj * 4, bj * 4 + 4))
        assert np.array_equal(D, ref)


class TestLCSRegion:
    def test_known_case(self):
        a, b = "ABCBDAB", "BDCABA"
        D = np.zeros((len(a) + 1, len(b) + 1))
        match = (np.frombuffer(a.encode(), np.uint8)[:, None]
                 == np.frombuffer(b.encode(), np.uint8)[None, :])
        lcs_region(D, match, range(len(a)), range(len(b)))
        assert D[-1, -1] == 4  # "BCBA"


class TestNussinovRegion:
    def _brute(self, pairs_ok, n, min_sep=1):
        import functools

        @functools.lru_cache(maxsize=None)
        def best(i, j):
            if j <= i:
                return 0
            cands = [best(i + 1, j), best(i, j - 1)]
            if j - i > min_sep and pairs_ok[i][j]:
                cands.append(best(i + 1, j - 1) + 1)
            for k in range(i + 1, j):
                cands.append(best(i, k) + best(k + 1, j))
            return max(cands)

        return best(0, n - 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_whole_window_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        can = rng.random((n, n)) < 0.4
        can = np.triu(can, 1)
        W = np.zeros((n, n))
        nussinov_region(W, can, 0, range(n), range(n), min_sep=1)
        brute = self._brute(tuple(map(tuple, can)), n)
        assert W[0, n - 1] == brute

    def test_min_sep_zero_allows_adjacent(self):
        can = np.ones((2, 2), dtype=bool)
        W = np.zeros((2, 2))
        nussinov_region(W, can, 0, range(2), range(2), min_sep=0)
        assert W[0, 1] == 1

    def test_min_sep_blocks_adjacent(self):
        can = np.ones((2, 2), dtype=bool)
        W = np.zeros((2, 2))
        nussinov_region(W, can, 0, range(2), range(2), min_sep=1)
        assert W[0, 1] == 0

    def test_offset_window(self):
        """Computing cells (3..5) of a larger problem via a shifted window."""
        n = 6
        can = np.zeros((n, n), dtype=bool)
        can[3, 5] = True
        W = np.zeros((3, 3))
        nussinov_region(W, can[3:, 3:], 3, range(3, 6), range(3, 6))
        assert W[0, 2] == 1  # F[3, 5]


class TestMatrixChainRegion:
    def test_cormen_example(self):
        # CLRS 15.2: dims (30,35,15,5,10,20,25) -> optimal cost 15125.
        dims = np.array([30, 35, 15, 5, 10, 20, 25], dtype=float)
        n = 6
        W = np.zeros((n, n))
        matrix_chain_region(W, dims, 0, range(n), range(n))
        assert W[0, n - 1] == 15125

    def test_two_matrices(self):
        dims = np.array([2, 3, 4], dtype=float)
        W = np.zeros((2, 2))
        matrix_chain_region(W, dims, 0, range(2), range(2))
        assert W[0, 1] == 24
