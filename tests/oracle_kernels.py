"""The pre-PR-19 region kernels, kept verbatim as the differential oracle.

These are the anti-diagonal / per-cell formulations that
``repro.algorithms.kernels`` used until the row-scan rewrite: per-diagonal
``antidiagonal_indices`` fancy indexing for the 2D/0D recurrences and one
reduction (plus ``float()`` conversions) per cell for the 2D/1D ones. They
are slow and obviously correct, and ``tests/test_kernel_differential.py``
requires the production kernels to reproduce their output byte for byte.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float(-1e30)


def antidiagonal_indices(h: int, w: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/col index arrays of anti-diagonal ``d`` of an ``h x w`` region."""
    a0 = max(0, d - w + 1)
    a1 = min(h - 1, d)
    rows = np.arange(a0, a1 + 1)
    return rows, d - rows


def edit_distance_region(D: np.ndarray, sub: np.ndarray, rows: range, cols: range) -> None:
    """Fill an edit-distance region of a local matrix in place.

    ``D`` is the block-local matrix with one boundary row/column
    (``D[0, :]`` and ``D[:, 0]`` already hold predecessor data); ``sub`` is
    the 0/1 mismatch matrix for the whole block. ``rows``/``cols`` are
    0-based cell ranges within the block; cell ``(a, b)`` lives at
    ``D[a+1, b+1]``.
    """
    h, w = len(rows), len(cols)
    r0, c0 = rows.start, cols.start
    V = D[r0 : r0 + h + 1, c0 : c0 + w + 1]
    S = sub[r0 : r0 + h, c0 : c0 + w]
    for d in range(h + w - 1):
        a, b = antidiagonal_indices(h, w, d)
        V[a + 1, b + 1] = np.minimum(
            np.minimum(V[a, b + 1] + 1, V[a + 1, b] + 1),
            V[a, b] + S[a, b],
        )


def lcs_region(D: np.ndarray, match: np.ndarray, rows: range, cols: range) -> None:
    """Fill a longest-common-subsequence region in place (same layout as
    :func:`edit_distance_region`, ``match`` boolean)."""
    h, w = len(rows), len(cols)
    r0, c0 = rows.start, cols.start
    V = D[r0 : r0 + h + 1, c0 : c0 + w + 1]
    M = match[r0 : r0 + h, c0 : c0 + w]
    for d in range(h + w - 1):
        a, b = antidiagonal_indices(h, w, d)
        V[a + 1, b + 1] = np.where(
            M[a, b],
            V[a, b] + 1,
            np.maximum(V[a, b + 1], V[a + 1, b]),
        )


def needleman_wunsch_region(
    D: np.ndarray, scores: np.ndarray, gap: float, rows: range, cols: range
) -> None:
    """Global-alignment (Needleman-Wunsch, linear gap) region in place.

    Same layout as :func:`edit_distance_region`; ``scores`` holds the
    per-cell substitution scores and ``gap`` the (positive) per-symbol
    gap penalty. Max-form recurrence.
    """
    h, w = len(rows), len(cols)
    r0, c0 = rows.start, cols.start
    V = D[r0 : r0 + h + 1, c0 : c0 + w + 1]
    S = scores[r0 : r0 + h, c0 : c0 + w]
    for d in range(h + w - 1):
        a, b = antidiagonal_indices(h, w, d)
        V[a + 1, b + 1] = np.maximum(
            np.maximum(V[a, b + 1] - gap, V[a + 1, b] - gap),
            V[a, b] + S[a, b],
        )


def swgg_region(
    Hloc: np.ndarray,
    Hrow: np.ndarray,
    Hcol: np.ndarray,
    sub: np.ndarray,
    gap: np.ndarray,
    c0: int,
    r0: int,
    rows: range,
    cols: range,
) -> None:
    """Smith-Waterman with a *general* gap function, one region in place.

    Layout (all row/col indices refer to the 1-based global DP matrix H of
    shape ``(m+1, n+1)``; the block spans global rows ``r0..r0+h`` and
    cols ``c0..c0+w``):

    - ``Hloc``  — ``(h+1, w+1)`` local matrix; ``Hloc[0, :]`` = global row
      ``r0-1`` over cols ``c0-1..``, ``Hloc[:, 0]`` = global col ``c0-1``;
      cell ``(a, b)`` of the block is ``Hloc[a+1, b+1]``.
    - ``Hrow``  — ``(h, c0)``: full row prefixes ``H[r0.., 0:c0]``.
    - ``Hcol``  — ``(r0, w)``: full column prefixes ``H[0:r0, c0..]``.
    - ``sub``   — ``(h, w)`` substitution scores for the block's cells.
    - ``gap``   — ``gap[d]`` = penalty of a gap of length ``d`` (``gap[0]``
      unused); length must cover ``max(m, n)``.

    Recurrence (paper Section VI's SWGG): ``H[i,j] = max(0, H[i-1,j-1] +
    s(a_i, b_j), max_k H[i,k] - gap(j-k), max_k H[k,j] - gap(i-k))`` — the
    two scans are why the pattern is :class:`RowColPrefixPattern`.
    """
    for a in rows:
        i = r0 + a
        row_local = Hloc[a + 1]
        for b in cols:
            j = c0 + b
            # E: gaps ending in the row, H[i, k] - gap(j - k).
            # Global prefix k = 0..c0-1 maps to gap indices j..b+1, i.e.
            # the reversed slice gap[j:b:-1] (length c0 since j = c0 + b);
            # the local part k = c0..j-1 maps to gap[b:0:-1].
            e = NEG_INF
            if c0 > 0:
                e = float(np.max(Hrow[a, :] - gap[j:b:-1]))
            if b > 0:
                e = max(e, float(np.max(row_local[1 : b + 1] - gap[b:0:-1])))
            # F: gaps ending in the column, H[k, j] - gap(i - k); same
            # split with rows (global stop index a, since i = r0 + a).
            f = NEG_INF
            if r0 > 0:
                f = float(np.max(Hcol[:, b] - gap[i:a:-1]))
            if a > 0:
                f = max(f, float(np.max(Hloc[1 : a + 1, b + 1] - gap[a:0:-1])))
            diag = Hloc[a, b] + sub[a, b]
            row_local[b + 1] = max(0.0, diag, e, f)


def nussinov_region(
    W: np.ndarray,
    can_pair: np.ndarray,
    offset: int,
    rows: range,
    cols: range,
    min_sep: int = 1,
) -> None:
    """Nussinov maximum base-pairing, one region of a window in place.

    ``W`` is the block's working window: ``W[i - offset, j - offset]``
    holds ``F[i, j]``; entries below the diagonal are fixed at 0 (empty
    spans), which makes the recurrence uniform. ``can_pair[i - offset,
    j - offset]`` says whether global bases i, j pair. ``rows``/``cols``
    are *global* index ranges of the region; only cells with ``i <= j``
    are computed. ``min_sep`` is the minimum hairpin separation: bases
    pair only when ``j - i > min_sep``.

    Per cell: ``F[i,j] = max(F[i+1,j], F[i,j-1], F[i+1,j-1] + pair(i,j),
    max_{i<=k<j} F[i,k] + F[k+1,j])`` — the bifurcation max is a single
    vector reduction, which is also the O(n) data dependency that makes
    Nussinov 2D/1D.
    """
    for i in reversed(rows):
        li = i - offset
        for j in cols:
            if j < i:
                continue
            lj = j - offset
            if j == i:
                W[li, lj] = 0.0
                continue
            best = max(W[li + 1, lj], W[li, lj - 1])
            if j - i > min_sep and can_pair[li, lj]:
                best = max(best, W[li + 1, lj - 1] + 1.0)
            # Bifurcation: k from i to j-1 (k == i duplicates the
            # "unpaired i" case harmlessly since W[li, li] == 0).
            if lj > li + 1:
                ks = W[li, li : lj] + W[li + 1 : lj + 1, lj]
                best = max(best, float(np.max(ks)))
            W[li, lj] = best


def matrix_chain_region(
    W: np.ndarray,
    dims: np.ndarray,
    offset: int,
    rows: range,
    cols: range,
) -> None:
    """Matrix-chain-order cost, one region of a window in place.

    Same window layout as :func:`nussinov_region` with min instead of max:
    ``m[i,j] = min_{i<=k<j} m[i,k] + m[k+1,j] + dims[i]*dims[k+1]*dims[j+1]``
    and ``m[i,i] = 0``. ``dims`` is the full dimension vector (length
    ``n + 1`` for ``n`` matrices).
    """
    for i in reversed(rows):
        li = i - offset
        for j in cols:
            if j < i:
                continue
            lj = j - offset
            if j == i:
                W[li, lj] = 0.0
                continue
            ks = np.arange(i, j)
            costs = (
                W[li, li : lj]
                + W[li + 1 : lj + 1, lj]
                + dims[i] * dims[ks + 1] * dims[j + 1]
            )
            W[li, lj] = float(np.min(costs))
