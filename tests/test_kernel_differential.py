"""Differential tier for the region kernels: production vs the oracle, byte for byte.

``repro.algorithms.kernels`` holds row-scan / span-sweep formulations;
``tests/oracle_kernels.py`` holds the per-cell and per-anti-diagonal
originals. Run digests, journals and the differential backend tier all
hash raw ``float64`` bytes, so the comparison here is ``tobytes()``
equality, never ``allclose``. Regions are poisoned with NaN before a
kernel runs: a cell that is read before it is written, or never written,
shows up as a byte difference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import kernels
from tests import oracle_kernels as oracle


def same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    if got.tobytes() != want.tobytes():
        bad = np.argwhere(~((got == want) | (np.isnan(got) & np.isnan(want))))
        pytest.fail(f"{len(bad)} cells differ, first at {tuple(bad[0])}: "
                    f"{got[tuple(bad[0])]!r} != {want[tuple(bad[0])]!r}")


def codes(rng: np.random.Generator, n: int, k: int = 4) -> np.ndarray:
    return rng.integers(0, k, n)


#: (block h, block w, region rows, region cols): 1x1, 1xw, hx1, non-square
#: regions at zero and non-zero origins inside the block, and whole blocks.
GRID_REGIONS = [
    (1, 1, range(0, 1), range(0, 1)),
    (1, 9, range(0, 1), range(0, 9)),
    (9, 1, range(0, 9), range(0, 1)),
    (7, 11, range(0, 7), range(0, 11)),
    (7, 11, range(3, 4), range(5, 6)),
    (7, 11, range(2, 3), range(1, 10)),
    (7, 11, range(1, 6), range(10, 11)),
    (12, 5, range(4, 12), range(2, 5)),
    (5, 12, range(1, 3), range(3, 12)),
    (16, 16, range(8, 16), range(8, 16)),
]


# -- 2D/0D: edit distance, LCS, Needleman-Wunsch -------------------------------


class Grid:
    """One 2D/0D kernel pair with its boundary conditions and cell data."""

    def __init__(self, name: str, gap: float = 1.0):
        self.name, self.gap = name, gap

    def table(self, a: np.ndarray, b: np.ndarray):
        """The full DP table by the oracle, and the per-cell data."""
        m, n = len(a), len(b)
        D = np.zeros((m + 1, n + 1))
        eq = a[:, None] == b[None, :]
        if self.name == "ed":
            D[0, :], D[:, 0] = np.arange(n + 1.0), np.arange(m + 1.0)
            data = (~eq).astype(np.float64)
        elif self.name == "lcs":
            data = eq
        else:
            D[0, :], D[:, 0] = -self.gap * np.arange(n + 1.0), -self.gap * np.arange(m + 1.0)
            data = np.where(eq, 1.0, -1.0)
        self.run(oracle, D, data, range(m), range(n))
        return D, data

    def run(self, mod, D, data, rows, cols) -> None:
        if self.name == "ed":
            mod.edit_distance_region(D, data, rows, cols)
        elif self.name == "lcs":
            mod.lcs_region(D, data, rows, cols)
        else:
            mod.needleman_wunsch_region(D, data, self.gap, rows, cols)


GRIDS = [Grid("ed"), Grid("lcs"), Grid("nw", 1.0), Grid("nw", 0.5), Grid("nw", 0.3)]
grid_ids = [f"{g.name}-gap{g.gap}" if g.name == "nw" else g.name for g in GRIDS]


def cut_block(D, data, R, C, h, w):
    """The local matrix and cell data of the block whose cells are table
    rows ``R+1..R+h``, cols ``C+1..C+w``: boundaries cut from the real
    table at an interior offset, exactly what a slave is shipped."""
    return D[R : R + h + 1, C : C + w + 1].copy(), np.ascontiguousarray(data[R : R + h, C : C + w])


@pytest.mark.parametrize("grid", GRIDS, ids=grid_ids)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", GRID_REGIONS, ids=lambda s: f"{s[0]}x{s[1]}-{s[2].start}:{s[2].stop},{s[3].start}:{s[3].stop}")
def test_grid_region_matches_oracle(grid, seed, shape):
    bh, bw, rows, cols = shape
    rng = np.random.default_rng(seed)
    R, C = int(rng.integers(0, 9)), int(rng.integers(0, 9))
    D, data = grid.table(codes(rng, R + bh + 3), codes(rng, C + bw + 2))
    local, cells = cut_block(D, data, R, C, bh, bw)
    local[rows.start + 1 : rows.stop + 1, cols.start + 1 : cols.stop + 1] = np.nan
    want, got = local.copy(), local.copy()
    grid.run(oracle, want, cells, rows, cols)
    grid.run(kernels, got, cells, rows, cols)
    same_bytes(got, want)
    assert not np.isnan(got).any()
    same_bytes(got, D[R : R + bh + 1, C : C + bw + 1])


@pytest.mark.parametrize("grid", GRIDS, ids=grid_ids)
@pytest.mark.parametrize("seed", range(3))
def test_grid_block_by_regions_equals_one_call(grid, seed):
    rng = np.random.default_rng(100 + seed)
    bh, bw = 13, 17
    D, data = grid.table(codes(rng, 20, 3), codes(rng, 25, 3))
    local, cells = cut_block(D, data, 4, 6, bh, bw)
    local[1:, 1:] = np.nan
    want, got = local.copy(), local.copy()
    grid.run(oracle, want, cells, range(bh), range(bw))
    for a in range(0, bh, 4):  # row-major over 4x5 sub-regions is a wavefront order
        for b in range(0, bw, 5):
            grid.run(kernels, got, cells, range(a, min(a + 4, bh)), range(b, min(b + 5, bw)))
    same_bytes(got, want)


@pytest.mark.parametrize("grid", GRIDS, ids=grid_ids)
@pytest.mark.parametrize("rows,cols", [(range(0), range(5)), (range(5), range(0)), (range(2, 2), range(3, 3))])
def test_grid_empty_region_is_a_noop(grid, rows, cols):
    local = np.full((6, 6), np.nan)
    before = local.tobytes()
    grid.run(kernels, local, np.zeros((5, 5), dtype=bool if grid.name == "lcs" else float), rows, cols)
    assert local.tobytes() == before


def test_nw_rejects_a_non_contiguous_matrix():
    D = np.zeros((6, 12))[:, ::2]
    with pytest.raises(ValueError, match="contiguous"):
        kernels.needleman_wunsch_region(D, np.zeros((5, 5)), 1.0, range(5), range(5))


def test_edit_distance_large_values_stay_exact():
    """The shift by the column index is exact far beyond any table size."""
    rng = np.random.default_rng(5)
    D, data = Grid("ed").table(codes(rng, 12), codes(rng, 15))
    local, cells = cut_block(D, data, 2, 3, 8, 9)
    local += 2.0**40
    local[1:, 1:] = np.nan
    want, got = local.copy(), local.copy()
    oracle.edit_distance_region(want, cells, range(8), range(9))
    kernels.edit_distance_region(got, cells, range(8), range(9))
    same_bytes(got, want)


#: Region widths across the bit packing's byte (8) and word (64) edges.
ED_WIDTHS = [1, 2, 7, 8, 9, 63, 64, 65, 128, 250]


def unit_walk(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n + 1`` values from 0 by steps in {-1, 0, +1}, with a mix drawn per
    walk, so long falling and flat runs occur as well as rising ones."""
    steps = rng.choice([-1.0, 0.0, 1.0], size=n, p=rng.dirichlet([0.5, 0.5, 0.5]))
    return np.concatenate([[0.0], np.cumsum(steps)])


@pytest.mark.parametrize("offset", [0.0, 2.0**40])
@pytest.mark.parametrize("width", ED_WIDTHS)
@pytest.mark.parametrize("seed", range(4))
def test_edit_distance_on_any_unit_step_boundary(seed, width, offset):
    """The kernel's whole precondition and no more: any boundary row and
    column that step by -1, 0 or +1 from a shared corner, any 0/1 ``sub``,
    heights 1 to 70, at an interior origin of a NaN-poisoned block."""
    rng = np.random.default_rng(1000 * seed + width)
    h = (1, 70)[seed] if seed < 2 else int(rng.integers(2, 70))
    R, C = int(rng.integers(0, 4)), int(rng.integers(0, 4))
    local = np.full((R + h + 3, C + width + 2), np.nan)
    corner = offset + float(rng.integers(0, 300))
    local[R, C : C + width + 1] = corner + unit_walk(rng, width)
    local[R : R + h + 1, C] = corner + unit_walk(rng, h)
    sub = (rng.random((R + h + 2, C + width + 1)) < rng.random()).astype(np.float64)
    rows, cols = range(R, R + h), range(C, C + width)
    want, got = local.copy(), local.copy()
    oracle.edit_distance_region(want, sub, rows, cols)
    kernels.edit_distance_region(got, sub, rows, cols)
    same_bytes(got, want)
    assert not np.isnan(got[R + 1 : R + h + 1, C + 1 : C + width + 1]).any()


# -- 2D/1D rectangular: general-gap Smith-Waterman -------------------------------


#: Gap shapes ``gap(d)``. A subadditive gap (affine, constant, concave
#: sqrt) closes a row's dependency on itself in two sweeps; a
#: superadditive quadratic gap, a negative reward and a linear gap with a
#: non-dyadic slope (its sums round, so subadditivity can fail by an ulp)
#: may not, and then the push loop finishes the row.
GAPS = {
    "affine": lambda d: 2.0 + 0.5 * d,
    "constant": lambda d: np.full_like(d, 1.5),
    "sqrt": lambda d: 0.3 + 0.1 * np.sqrt(d),
    "quadratic": lambda d: 0.05 * d * d,
    "negative": lambda d: -0.01 * d,
    "linear-0.1": lambda d: 0.1 * d,
}


def make_gap(shape: str, n: int) -> np.ndarray:
    gap = GAPS[shape](np.arange(n + 1.0))
    gap[0] = 1e30
    return gap


def swgg_table(scores: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Full H by the oracle, as the one block starting at matrix cell (1, 1)."""
    m, n = scores.shape
    H = np.zeros((m + 1, n + 1))
    Hloc = np.zeros((m + 1, n + 1))
    oracle.swgg_region(Hloc, H[1:, 0:1], H[0:1, 1:], scores, gap, 1, 1, range(m), range(n))
    H[1:, 1:] = Hloc[1:, 1:]
    return H


def swgg_cut(H, scores, R0, C0, h, w):
    """Strips of the block at matrix rows ``R0..``, cols ``C0..`` as
    ``SmithWatermanGG.extract_inputs`` ships them."""
    Hloc = np.empty((h + 1, w + 1))
    Hloc[:] = H[R0 - 1 : R0 + h, C0 - 1 : C0 + w]
    return (
        Hloc,
        H[R0 : R0 + h, 0:C0].copy(),
        H[0:R0, C0 : C0 + w].copy(),
        np.ascontiguousarray(scores[R0 - 1 : R0 - 1 + h, C0 - 1 : C0 - 1 + w]),
    )


@pytest.mark.parametrize("gap_shape", list(GAPS))
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("shape", GRID_REGIONS, ids=lambda s: f"{s[0]}x{s[1]}-{s[2].start}:{s[2].stop},{s[3].start}:{s[3].stop}")
def test_swgg_region_on_a_real_table(gap_shape, seed, shape):
    bh, bw, rows, cols = shape
    rng = np.random.default_rng(seed)
    R0, C0 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    m, n = R0 + bh + 1, C0 + bw + 2
    scores = rng.choice([2.0, -1.0], size=(m, n))
    gap = make_gap(gap_shape, max(m, n))
    H = swgg_table(scores, gap)
    Hloc, Hrow, Hcol, sub = swgg_cut(H, scores, R0, C0, bh, bw)
    Hloc[rows.start + 1 : rows.stop + 1, cols.start + 1 : cols.stop + 1] = np.nan
    want, got = Hloc.copy(), Hloc.copy()
    oracle.swgg_region(want, Hrow, Hcol, sub, gap, C0, R0, rows, cols)
    kernels.swgg_region(got, Hrow, Hcol, sub, gap, C0, R0, rows, cols)
    same_bytes(got, want)
    same_bytes(got, H[R0 - 1 : R0 + bh, C0 - 1 : C0 + bw])


#: Region rows / cols inside a 6 x 8 block of random strips.
STRIPS = [
    (range(0, 6), range(0, 8)), (range(2, 6), range(3, 8)), (range(5, 6), range(7, 8)),
    (range(0, 1), range(0, 8)), (range(0, 6), range(4, 5)),
]


def swgg_on_strips(r0, c0, rows, cols, gap_shape):
    """The kernel as a pure function of its arrays (what ``bench/probes.py``
    times): random strips, and ``gap[0]`` left at whatever the shape gives
    (0.3 for sqrt, 0 for the quadratic): the kernel must never read it."""
    h, w = 6, 8
    rng = np.random.default_rng(1000 * r0 + c0)
    Hloc = rng.random((h + 1, w + 1)) * 5
    Hrow, Hcol = rng.random((h, c0)) * 5, rng.random((r0, w)) * 5
    sub = rng.choice([2.0, -1.0], size=(h, w))
    gap = GAPS[gap_shape](np.arange(max(r0, c0) + max(h, w) + 2.0))
    Hloc[rows.start + 1 : rows.stop + 1, cols.start + 1 : cols.stop + 1] = np.nan
    want, got = Hloc.copy(), Hloc.copy()
    oracle.swgg_region(want, Hrow, Hcol, sub, gap, c0, r0, rows, cols)
    kernels.swgg_region(got, Hrow, Hcol, sub, gap, c0, r0, rows, cols)
    same_bytes(got, want)
    assert not np.isnan(got).any()


@pytest.mark.parametrize("r0", [0, 1, 37])
@pytest.mark.parametrize("c0", [0, 1, 41])
@pytest.mark.parametrize("rows,cols", STRIPS)
def test_swgg_origins_on_arbitrary_strips(r0, c0, rows, cols):
    """Origins 0 / 1 / deep in the matrix, under the concave sqrt gap."""
    swgg_on_strips(r0, c0, rows, cols, "sqrt")


@pytest.mark.parametrize("gap_shape", [shape for shape in GAPS if shape != "sqrt"])
@pytest.mark.parametrize("r0,c0", [(0, 0), (1, 41), (37, 0), (37, 41)])
@pytest.mark.parametrize("rows,cols", STRIPS)
def test_swgg_strips_under_every_gap_shape(r0, c0, rows, cols, gap_shape):
    swgg_on_strips(r0, c0, rows, cols, gap_shape)


@pytest.mark.parametrize("seed", range(3))
def test_swgg_block_by_regions_equals_one_call(seed):
    rng = np.random.default_rng(200 + seed)
    m = n = 24
    scores = rng.choice([2.0, -1.0], size=(m, n))
    gap = make_gap("affine", n)
    H = swgg_table(scores, gap)
    R0, C0, bh, bw = 6, 9, 10, 13
    Hloc, Hrow, Hcol, sub = swgg_cut(H, scores, R0, C0, bh, bw)
    Hloc[1:, 1:] = np.nan
    want, got = Hloc.copy(), Hloc.copy()
    oracle.swgg_region(want, Hrow, Hcol, sub, gap, C0, R0, range(bh), range(bw))
    for a in range(0, bh, 3):
        for b in range(0, bw, 4):
            kernels.swgg_region(got, Hrow, Hcol, sub, gap, C0, R0,
                                range(a, min(a + 3, bh)), range(b, min(b + 4, bw)))
    same_bytes(got, want)


@pytest.mark.parametrize("rows,cols", [
    (range(0, 3), range(0, 10)), (range(1, 3), range(3, 10)), (range(2, 3), range(6, 10)),
])
def test_swgg_row_two_sweeps_cannot_close(rows, cols):
    """A row whose answer is a chain of ``w - 1`` one-column gaps: with
    ``gap(d) = d**2`` the region's first row is ``10 - b``, and a sweep
    from ``best`` only lengthens its chains by one gap, so two sweeps leave
    it unfinished and the push loop has to complete it."""
    h, w, r0, c0 = 3, 10, 2, 3
    Hloc = np.zeros((h + 1, w + 1))
    Hrow, Hcol = np.zeros((h, c0)), np.zeros((r0, w))
    sub = np.full((h, w), -5.0)
    sub[:, cols.start] = 10.0
    gap = np.arange(r0 + h + c0 + w + 1.0) ** 2
    gap[0] = 0.3
    Hloc[rows.start + 1 : rows.stop + 1, cols.start + 1 : cols.stop + 1] = np.nan
    want, got = Hloc.copy(), Hloc.copy()
    oracle.swgg_region(want, Hrow, Hcol, sub, gap, c0, r0, rows, cols)
    kernels.swgg_region(got, Hrow, Hcol, sub, gap, c0, r0, rows, cols)
    same_bytes(got, want)
    first = got[rows.start + 1, cols.start + 1 : cols.stop + 1]
    assert first.tolist() == (10.0 - np.arange(len(cols))).tolist()
    assert not np.isnan(got).any()


def test_swgg_empty_region_is_a_noop():
    Hloc = np.full((4, 4), np.nan)
    args = (np.zeros((3, 2)), np.zeros((2, 3)), np.zeros((3, 3)), make_gap("affine", 8), 2, 2)
    for rows, cols in [(range(0), range(3)), (range(3), range(0)), (range(1, 1), range(2, 2))]:
        kernels.swgg_region(Hloc, *args, rows, cols)
    assert np.isnan(Hloc).all()


# -- 2D/1D triangular: Nussinov, matrix-chain ----------------------------------


class Nussinov:
    def __init__(self, min_sep: int):
        self.min_sep = min_sep

    def data(self, rng, n):
        return np.triu(rng.random((n, n)) < 0.45, 1)

    def window_data(self, data, lo, hi):
        return data[lo:hi, lo:hi]  # a non-contiguous view, as a caller may pass

    def run(self, mod, W, data, offset, rows, cols):
        mod.nussinov_region(W, data, offset, rows, cols, min_sep=self.min_sep)


class MatrixChain:
    def data(self, rng, n):
        return rng.integers(5, 50, n + 1).astype(np.float64)

    def window_data(self, data, lo, hi):
        return data  # the kernel indexes the full dims vector by global index

    def run(self, mod, W, data, offset, rows, cols):
        mod.matrix_chain_region(W, data, offset, rows, cols)


TRIANGULAR = [Nussinov(0), Nussinov(1), Nussinov(3), MatrixChain()]
tri_ids = ["nussinov-sep0", "nussinov-sep1", "nussinov-sep3", "matrix-chain"]

#: (block rows, block cols, region rows, region cols) in *global* indices of
#: an n = 30 problem: diagonal blocks (regions straddle i == j), off-diagonal
#: blocks far from and touching the diagonal, single cells, single rows.
TRI_REGIONS = [
    (range(0, 30), range(0, 30), range(0, 30), range(0, 30)),
    (range(8, 16), range(8, 16), range(8, 16), range(8, 16)),
    (range(8, 16), range(8, 16), range(12, 16), range(8, 12)),  # wholly below the diagonal
    (range(8, 16), range(8, 16), range(10, 13), range(11, 15)),
    (range(8, 16), range(8, 16), range(9, 10), range(9, 10)),
    (range(8, 16), range(8, 16), range(9, 10), range(10, 11)),
    (range(4, 11), range(11, 23), range(4, 11), range(11, 23)),
    (range(4, 11), range(11, 23), range(7, 11), range(11, 14)),
    (range(4, 11), range(11, 23), range(5, 6), range(13, 22)),
    (range(4, 11), range(11, 23), range(4, 9), range(20, 21)),
    (range(4, 11), range(11, 23), range(6, 7), range(17, 18)),
    (range(0, 5), range(22, 30), range(1, 4), range(24, 29)),
]


def tri_table(kind, data, n):
    F = np.zeros((n, n))
    kind.run(oracle, F, data, 0, range(n), range(n))
    return F


def tri_window(F, brows, bcols):
    """The square window over ``[r0, c1)`` of a block, filled from the real
    table (lower triangle 0) as ``TriangularBlockEvaluator`` assembles it."""
    lo, hi = brows.start, bcols.stop
    return np.triu(F[lo:hi, lo:hi]).copy()


@pytest.mark.parametrize("kind", TRIANGULAR, ids=tri_ids)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("region", TRI_REGIONS, ids=lambda r: f"{r[2].start}:{r[2].stop},{r[3].start}:{r[3].stop}")
def test_triangular_region_matches_oracle(kind, seed, region):
    brows, bcols, rows, cols = region
    n = 30
    rng = np.random.default_rng(seed)
    data = kind.data(rng, n)
    F = tri_table(kind, data, n)
    lo, hi = brows.start, bcols.stop
    W = tri_window(F, brows, bcols)
    region_cells = np.zeros_like(W, dtype=bool)
    region_cells[rows.start - lo : rows.stop - lo, cols.start - lo : cols.stop - lo] = True
    W[region_cells & np.triu(np.ones_like(region_cells))] = np.nan
    want, got = W.copy(), W.copy()
    kind.run(oracle, want, kind.window_data(data, lo, hi), lo, rows, cols)
    kind.run(kernels, got, kind.window_data(data, lo, hi), lo, rows, cols)
    same_bytes(got, want)
    same_bytes(got, np.triu(F[lo:hi, lo:hi]))


@pytest.mark.parametrize("kind", TRIANGULAR, ids=tri_ids)
@pytest.mark.parametrize("seed", range(3))
def test_triangular_window_by_regions_equals_one_call(kind, seed):
    n = 23
    rng = np.random.default_rng(300 + seed)
    data = kind.data(rng, n)
    want = tri_table(kind, data, n)
    got = np.full((n, n), np.nan)
    got[np.tril_indices(n, -1)] = 0.0
    for a in reversed(range(0, n, 5)):  # bottom row band first, columns left to right
        for b in range(0, n, 4):
            kind.run(kernels, got, data, 0, range(a, min(a + 5, n)), range(b, min(b + 4, n)))
    same_bytes(got, want)


@pytest.mark.parametrize("kind", TRIANGULAR, ids=tri_ids)
def test_triangular_empty_region_is_a_noop(kind):
    W = np.full((6, 6), np.nan)
    data = kind.data(np.random.default_rng(0), 6)
    for rows, cols in [(range(0), range(6)), (range(6), range(0)), (range(3, 3), range(4, 4)),
                       (range(4, 6), range(0, 3))]:  # the last lies below the diagonal
        kind.run(kernels, W, data, 0, rows, cols)
    assert np.isnan(W).all()


def test_matrix_chain_cormen_example():
    dims = np.array([30, 35, 15, 5, 10, 20, 25], dtype=np.float64)
    want, got = np.zeros((6, 6)), np.zeros((6, 6))
    oracle.matrix_chain_region(want, dims, 0, range(6), range(6))
    kernels.matrix_chain_region(got, dims, 0, range(6), range(6))
    same_bytes(got, want)
    assert got[0, 5] == 15125


def test_matrix_chain_non_integral_dims():
    """Same sums and products in the same association order: identical
    even where float addition is not associative."""
    dims = np.random.default_rng(9).random(13) * 7 + 0.1
    want, got = np.zeros((12, 12)), np.zeros((12, 12))
    oracle.matrix_chain_region(want, dims, 0, range(12), range(12))
    kernels.matrix_chain_region(got, dims, 0, range(12), range(12))
    same_bytes(got, want)


def test_triangular_kernels_reject_a_non_contiguous_window():
    W = np.zeros((6, 12))[:, ::2]
    with pytest.raises(ValueError, match="contiguous"):
        kernels.nussinov_region(W, np.zeros((6, 6), dtype=bool), 0, range(6), range(6))
    with pytest.raises(ValueError, match="contiguous"):
        kernels.matrix_chain_region(W, np.ones(7), 0, range(6), range(6))


# -- stores are final: a kernel may be re-run beside itself --------------------


def _finished_cases():
    """``(name, matrix, run)`` per kernel: ``run()`` re-computes a region of
    ``matrix`` that already holds its final values."""
    rng = np.random.default_rng(77)
    a, b = codes(rng, 40, 3), codes(rng, 40, 3)
    for grid, name in zip(GRIDS[:3], ("edit_distance", "lcs", "needleman_wunsch")):
        D, data = grid.table(a, b)
        local, cells = cut_block(D, data, 3, 5, 30, 30)
        yield name, local, lambda g=grid, m=local, c=cells: g.run(kernels, m, c, range(4, 28), range(2, 29))
    scores = rng.choice([2.0, -1.0], size=(40, 40))
    gap = make_gap("affine", 40)
    Hloc, Hrow, Hcol, sub = swgg_cut(swgg_table(scores, gap), scores, 6, 8, 30, 30)
    yield "swgg", Hloc, lambda: kernels.swgg_region(
        Hloc, Hrow, Hcol, sub, gap, 8, 6, range(3, 27), range(2, 29))
    qgap = make_gap("quadratic", 40)
    Qloc, Qrow, Qcol, qsub = swgg_cut(swgg_table(scores, qgap), scores, 6, 8, 30, 30)
    yield "swgg-quadratic", Qloc, lambda: kernels.swgg_region(
        Qloc, Qrow, Qcol, qsub, qgap, 8, 6, range(3, 27), range(2, 29))
    for kind, name in ((Nussinov(1), "nussinov"), (MatrixChain(), "matrix_chain")):
        data = kind.data(rng, 36)
        F = tri_table(kind, data, 36)
        yield name, F, lambda k=kind, m=F, d=data: k.run(kernels, m, d, 0, range(2, 20), range(10, 34))


@pytest.mark.parametrize("case", list(_finished_cases()), ids=lambda c: c[0])
def test_a_rerun_never_stores_a_non_final_value(case):
    """Fig 12's fault tolerance re-pushes a late sub-sub-task while the
    thread that holds it may still be computing (``SlavePart._run_pool``),
    so a region can be computed twice at once, and once more after its
    successors have started reading it. That is only safe if every store
    into the shared matrix is the cell's final value — no intermediate
    parked in place between two numpy calls. Re-run a finished region in
    one thread and watch the matrix from another."""
    import sys
    import threading
    import time

    _, matrix, run = case
    final = matrix.tobytes()
    run()
    assert matrix.tobytes() == final  # the re-run itself is idempotent
    stop = threading.Event()

    def rerun():
        while not stop.is_set():
            run()

    worker = threading.Thread(target=rerun, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        deadline = time.monotonic() + 0.4
        while time.monotonic() < deadline:
            assert matrix.tobytes() == final, "a non-final value was visible mid-run"
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        worker.join(timeout=10.0)
    assert not worker.is_alive()
