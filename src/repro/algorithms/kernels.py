"""Vectorized DP cell-update kernels.

These are the innermost ``process`` functions bound to DAG vertices. All
kernels operate on *regions* (sub-rectangles of a block's local working
matrix) so the same code serves serial whole-block evaluation and
thread-level sub-block evaluation; callers guarantee the DAG ordering that
makes the reads safe.

Cost per cell is set by how many numpy calls a region takes, not by the
recurrence, so every kernel is written to make a handful of calls per
*row* (or per span-diagonal) over contiguous or strided views, never per
cell and never through index arrays, or none per row at all:

- edit distance has unit costs, so it runs bit-parallel (Myers): a region
  row is one carry step on ``w``-bit Python ints, and the whole region is
  unpacked, summed and stored by a fixed handful of numpy calls;
- LCS scans each row once, its in-row dependency a prefix maximum
  (``np.maximum.accumulate``);
- Needleman-Wunsch keeps the anti-diagonal order (a real-valued gap makes
  the prefix form round differently) but addresses each diagonal as a
  strided slice of the flat local matrix;
- general-gap Smith-Waterman reduces the column scan and the
  left-of-region part of the row scan as one 2-D reduction per source
  array per row, and solves the in-region row dependency as a fixed
  point of whole-row sweeps (two for a subadditive gap), handing a row
  that has not converged after two to the per-cell push loop;
- Nussinov and matrix-chain sweep a region by increasing span ``j - i``:
  the cells of one span-diagonal are independent, and their split scans
  are the rows of two strided windows over the working matrix.

Two rules hold for every kernel. Each store into the shared matrix is the
cell's *final* value — intermediates live in temporaries, never parked in
place between two numpy calls — because the thread level re-pushes a late
sub-sub-task while the thread that holds it may still be computing
(Fig 12; ``SlavePart._run_pool``), so a region can be computed twice at
once and once more after its successors started reading it. And every
formulation reproduces, bit for bit in ``float64``, the per-cell
recurrence it replaces on every input a problem class can produce;
``tests/test_kernel_differential.py`` holds them to that against the
per-cell and per-anti-diagonal originals, and ``docs/algorithms.md``
(section "Region kernels") gives the argument and the precondition for
each.
"""

from __future__ import annotations

import numpy as np


def _windows(buf: np.ndarray, start: int, shape: tuple, steps: tuple) -> np.ndarray:
    """Overlapping-window view of a contiguous array:
    ``out[p, q] = buf.flat[start + p * steps[0] + q * steps[1]]``.

    The ``ndarray`` constructor checks the extent against the buffer and
    refuses a non-contiguous one, so a bad index raises ``ValueError``
    instead of reading foreign memory (and it costs a tenth of
    ``as_strided``, which matters at 1 x 1 regions).
    """
    size = buf.itemsize
    return np.ndarray(shape, buf.dtype, buf, start * size, (steps[0] * size, steps[1] * size))


def _flat(M: np.ndarray) -> np.ndarray:
    """Flat writable view of a C-contiguous working matrix."""
    if not M.flags.c_contiguous:
        raise ValueError("the working matrix must be C-contiguous")
    return M.reshape(-1)


def edit_distance_region(D: np.ndarray, sub: np.ndarray, rows: range, cols: range) -> None:
    """Fill an edit-distance region of a local matrix in place.

    ``D`` is the block-local matrix with one boundary row/column
    (``D[0, :]`` and ``D[:, 0]`` already hold predecessor data); ``sub`` is
    the 0/1 mismatch matrix for the whole block. ``rows``/``cols`` are
    0-based cell ranges within the block; cell ``(a, b)`` lives at
    ``D[a+1, b+1]``.

    Bit-parallel (Myers 1999, in Hyyro's block form with a carry-in): a
    region of ``h`` rows and ``w`` columns is ``h`` steps over ``w``-bit
    Python ints, bit ``b`` standing for column ``b``. ``Pv`` / ``Mv`` hold
    the columns where the current row steps +1 / -1 from its left
    neighbour (the top boundary's steps to start), ``Eq`` a row's matches
    and ``hin`` the left boundary's step into the row, which is the carry
    shifted in at bit 0. Each step yields the row's vertical steps
    ``Ph`` / ``Mh`` (+1 / -1 from the cell above); after the last row they
    are unpacked at once, summed down each column, added to the top
    boundary and stored in one assignment, so every store is the cell's
    final value.

    Precondition: ``sub`` is a 0/1 mismatch matrix, and the boundary row
    and column step by -1, 0 or +1 from one cell to the next. Every
    Levenshtein table meets both (``|D[i][j] - D[i][j-1]| <= 1``), so every
    block and region ``EditDistance`` ships does. Then every step is an
    integer in {-1, 0, +1} and every value an integer below 2**53, and the
    sum equals the cell-by-cell recurrence bit for bit.
    """
    h, w = len(rows), len(cols)
    if h == 0 or w == 0:
        return
    r0, c0 = rows.start, cols.start
    V = D[r0 : r0 + h + 1, c0 : c0 + w + 1]
    # Rows 0..h-1: the matches; row h / h+1: where the top boundary rises /
    # falls. One packbits turns all of them into little-endian bit rows
    # (arguments by position: keywords cost packbits/unpackbits ~0.6 us).
    bits = np.empty((h + 2, w), dtype=bool)
    np.equal(sub[r0 : r0 + h, c0 : c0 + w], 0.0, out=bits[:h])
    np.greater(V[0, 1:], V[0, :-1], out=bits[h])
    np.less(V[0, 1:], V[0, :-1], out=bits[h + 1])
    nb = (w + 7) >> 3
    packed = np.packbits(bits, 1, "little").tobytes()
    from_bytes = int.from_bytes
    Pv = from_bytes(packed[h * nb : (h + 1) * nb], "little")
    Mv = from_bytes(packed[(h + 1) * nb :], "little")
    mask = (1 << w) - 1
    left = V[:, 0].tolist()
    steps = []
    keep = steps.append
    for a in range(h):
        Eq = from_bytes(packed[a * nb : (a + 1) * nb], "little")
        hin = left[a + 1] - left[a]
        Xv = Eq | Mv
        if hin < 0:
            Eq |= 1
        Xh = ((((Eq & Pv) + Pv) & mask) ^ Pv) | Eq
        Ph = Mv | ((Xh | Pv) ^ mask)
        Mh = Pv & Xh
        keep(Ph.to_bytes(nb, "little"))
        keep(Mh.to_bytes(nb, "little"))
        Ph = ((Ph << 1) & mask) | (hin > 0)
        Mh = ((Mh << 1) & mask) | (hin < 0)
        Pv = Mh | ((Xv | Ph) ^ mask)
        Mv = Ph & Xv
    flat = np.frombuffer(b"".join(steps), np.uint8).reshape(h, 2, nb)
    vert = np.unpackbits(flat, 2, w, "little").view(np.int8)
    down = np.add.accumulate(np.subtract(vert[:, 0], vert[:, 1]), axis=0, dtype=np.int32)
    np.add(down, V[:1, 1:], out=V[1:, 1:])


def lcs_region(D: np.ndarray, match: np.ndarray, rows: range, cols: range) -> None:
    """Fill a longest-common-subsequence region in place (same layout as
    :func:`edit_distance_region`, ``match`` boolean).

    One scan per row: ``D[b] = max(D[b-1], up, diag + match)`` as a prefix
    maximum. Precondition: the boundaries come from an LCS table, which is
    monotone with unit steps (``diag <= up, left <= diag + 1``). Then on a
    match ``diag + 1`` dominates and on a mismatch ``diag`` is dominated,
    which is the textbook ``match ? diag + 1 : max(up, left)``; the values
    are integers, so the two agree bit for bit.
    """
    h, w = len(rows), len(cols)
    if h == 0 or w == 0:
        return
    r0, c0 = rows.start, cols.start
    V = D[r0 : r0 + h + 1, c0 : c0 + w + 1]
    M = match[r0 : r0 + h, c0 : c0 + w]
    for a in range(h):
        t = V[a, :-1] + M[a]
        np.maximum(t, V[a, 1:], out=t)
        if V[a + 1, 0] > t[0]:  # the left boundary heads the prefix maximum
            t[0] = V[a + 1, 0]
        np.maximum.accumulate(t, out=V[a + 1, 1:])


def needleman_wunsch_region(
    D: np.ndarray, scores: np.ndarray, gap: float, rows: range, cols: range
) -> None:
    """Global-alignment (Needleman-Wunsch, linear gap) region in place.

    Same layout as :func:`edit_distance_region`; ``scores`` holds the
    per-cell substitution scores and ``gap`` the (positive) per-symbol
    gap penalty. Max-form recurrence. ``D`` must be C-contiguous.

    ``gap`` is any float, so ``accumulate(t + gap * k) - gap * k`` would
    round differently from the recurrence; the region is swept by
    anti-diagonals instead, each one a slice of the flat matrix with step
    ``ncols - 1`` (one cell down, one cell left), and every cell is the
    recurrence's own three operations.
    """
    h, w = len(rows), len(cols)
    if h == 0 or w == 0:
        return
    r0, c0 = rows.start, cols.start
    nd, ns = D.shape[1], scores.shape[1]
    flat, sflat = _flat(D), scores.reshape(-1)
    step, sstep = nd - 1, (ns - 1) or 1  # a one-column block has one-cell diagonals
    for d in range(h + w - 1):
        a0 = max(0, d - w + 1)
        n = min(h - 1, d) - a0 + 1
        # Flat index of D[r0 + a0 + 1, c0 + (d - a0) + 1], the diagonal's top cell.
        cell = (r0 + a0 + 1) * nd + c0 + d - a0 + 1
        span = (n - 1) * step + 1
        score = (r0 + a0) * ns + c0 + d - a0
        up = flat[cell - nd : cell - nd + span : step]
        left = flat[cell - 1 : cell - 1 + span : step]
        diag = flat[cell - nd - 1 : cell - nd - 1 + span : step]
        np.maximum(
            np.maximum(up - gap, left - gap),
            diag + sflat[score : score + (n - 1) * sstep + 1 : sstep],
            out=flat[cell : cell + span : step],
        )


def cyk_region(
    W: np.ndarray,
    rule_masks: np.ndarray,
    offset: int,
    rows: range,
    cols: range,
) -> None:
    """Weighted-boolean CYK over bitmask cells, one region in place.

    ``W`` is a triangular window of ``uint64`` bitmasks: bit ``A`` of
    ``W[i - offset, j - offset]`` says nonterminal ``A`` derives the span
    ``i..j`` (inclusive). Diagonal cells must be pre-seeded with the
    terminal-rule masks. ``rule_masks`` is an ``(R, 3)`` int array of
    ``(A, B, C)`` binary rules. Per cell: for every split ``k`` and rule
    ``A -> B C``, if ``B`` derives ``i..k`` and ``C`` derives ``k+1..j``
    then set bit ``A`` — the split scan is vectorized over ``k``.
    """
    one = np.uint64(1)
    for i in reversed(rows):
        li = i - offset
        for j in cols:
            if j <= i:
                continue
            lj = j - offset
            left = W[li, li:lj]          # spans (i, k), k = i..j-1
            down = W[li + 1 : lj + 1, lj]  # spans (k+1, j)
            bits = W[li, lj]
            for a, b, c in rule_masks:
                if bits & (one << np.uint64(a)):
                    continue  # already derivable; skip the scan
                hit = np.any(
                    ((left >> np.uint64(b)) & one).astype(bool)
                    & ((down >> np.uint64(c)) & one).astype(bool)
                )
                if hit:
                    bits |= one << np.uint64(a)
            W[li, lj] = bits


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
      unused); contiguous, length must cover ``max(m, n)``.

    Recurrence (paper Section VI's SWGG): ``H[i,j] = max(0, H[i-1,j-1] +
    s(a_i, b_j), max_k H[i,k] - gap(j-k), max_k H[k,j] - gap(i-k))`` — the
    two scans are why the pattern is :class:`RowColPrefixPattern`.

    A region row is computed at once. Everything above it and everything
    left of the region is final, so the column scan is one ``(w x rows
    above)`` reduction per source array (``Hcol``, ``Hloc``) and the row
    scan over the columns left of the region one ``(w x columns)``
    reduction per source array (``Hrow``, ``Hloc``) against ``T[b, k] =
    gap[j_b - k]``, Toeplitz views of ``gap`` made once per region.

    What is left is the row's dependency on itself, ``H[b] = max(best[b],
    max_{k<b} H[k] - gap[b-k])``: a triangular system, so its one solution
    is the cell-by-cell one. A sweep ``cur = max(best, max_k cur[k] -
    Tin[b, k])`` (``Tin[b, k] = gap[b-k]`` below the diagonal, ``+inf`` on
    and above it, whatever ``gap[0]`` is) that returns its input satisfies
    the system, so it *is* that solution, bit for bit. From ``cur = best``
    a subadditive gap (affine, concave) needs two sweeps: one closes the
    row, one confirms it. A gap that has not converged after two finishes
    with the push loop (each cell, once final, pushes ``H - gap`` onto the
    cells to its right), which is exact from any start between ``best``
    and the answer because every value it meets is a candidate ``<= H``;
    a cell whose final value is the last sweep's input was pushed by that
    sweep already, so only the others push again. Every candidate is the
    same ``H - gap`` subtraction as cell by cell and ``max`` is exact, so
    the result is identical. Temporaries are one ``(w x prefix)`` array per
    reduction, never a cube over the region's rows, and the row is stored
    once, final.
    """
    h, w = len(rows), len(cols)
    if h == 0 or w == 0:
        return
    cs, ce = cols.start, cols.stop
    # T[b, k] = gap[j_b - k]: region column b (global j_b = c0 + cs + b)
    # against global columns k < c0, then against block columns k < cs.
    if c0:
        Trow = _windows(gap, c0 + cs, (w, c0), (1, -1))
    if cs:
        Tloc = _windows(gap, cs, (w, cs), (1, -1))
    # Tin[b, k] = gap[b - k] for k < b, +inf for k >= b: region columns
    # against each other.
    padded = np.full(2 * w - 1, np.inf)
    padded[w:] = gap[1:w]
    Tin = _windows(padded, w - 1, (w, w), (1, -1))
    above = Hcol.T[cs:ce]
    push = gap[1:w]
    for a in rows:
        i = r0 + a
        best = np.maximum(Hloc[a, cs:ce] + sub[a, cs:ce], 0.0)
        if r0:
            np.maximum(best, (above - gap[i:a:-1]).max(axis=1), out=best)
        if a:
            within = Hloc[1 : a + 1, cs + 1 : ce + 1] - gap[a:0:-1, None]
            np.maximum(best, within.max(axis=0), out=best)
        if c0:
            np.maximum(best, (Hrow[a] - Trow).max(axis=1), out=best)
        if cs:
            np.maximum(best, (Hloc[a + 1, 1 : cs + 1] - Tloc).max(axis=1), out=best)
        cur = best
        for _ in range(2):
            nxt = np.maximum(best, (cur - Tin).max(axis=1))
            if (nxt == cur).all():
                break
            prev, cur = cur, nxt
        else:
            # The last sweep already pushed every prev[k]: a cell whose
            # final value is prev[k] has nothing new to push.
            for b, pushed in enumerate(prev[:-1].tolist(), 1):
                if cur[b - 1] != pushed:
                    right = cur[b:]
                    np.maximum(right, cur[b - 1] - push[: w - b], out=right)
        Hloc[a + 1, cs + 1 : ce + 1] = cur


def _span_sweep(flat: np.ndarray, step: int, offset: int, rows: range, cols: range):
    """Visit the cells ``i <= j`` of a region of a triangular window by
    increasing span ``s = j - i``.

    ``flat`` is the flat view of the ``N x N`` window and ``step = N + 1``
    its diagonal stride. Every cell a span recurrence reads has a smaller
    span, so this order is valid, and the cells of one span are
    independent. Cells with ``s == 0`` are set to 0 here (the empty-span
    value of both recurrences); for each longer span with cells ``(i0 + c,
    i0 + c + s)``, ``c < n``, yields ``(s, i0, first, cells, splits)``:
    ``first`` the flat index of cell 0, ``cells`` the writable slice of
    all ``n`` and ``splits[c, t] = W[i, i+t] + W[i+t+1, j]`` the ``n x s``
    sums of the two halves at every split point ``k = i + t``.
    """
    for s in range(max(0, cols.start - rows.stop + 1), cols.stop - rows.start):
        i0 = max(rows.start, cols.start - s)
        n = min(rows.stop, cols.stop - s) - i0
        if n <= 0:
            continue
        first = (i0 - offset) * step + s
        cells = flat[first : first + (n - 1) * step + 1 : step]
        if s == 0:
            cells[:] = 0.0
            continue
        left = _windows(flat, first - s, (n, s), (step, 1))
        down = _windows(flat, first + step - 1, (n, s), (step, step - 1))
        yield s, i0, first, cells, left + down


def nussinov_region(
    W: np.ndarray,
    can_pair: np.ndarray,
    offset: int,
    rows: range,
    cols: range,
    min_sep: int = 1,
) -> None:
    """Nussinov maximum base-pairing, one region of a window in place.

    ``W`` is the block's working window (C-contiguous): ``W[i - offset,
    j - offset]`` holds ``F[i, j]``; the diagonal and the entries below it
    are 0 (empty spans), which makes the recurrence uniform.
    ``can_pair[i - offset, j - offset]`` (boolean; copied per call unless
    contiguous) says whether global bases i, j pair. ``rows``/``cols`` are
    *global* index ranges of the region; only cells with ``i <= j`` are
    computed. ``min_sep`` is the minimum hairpin separation: bases pair
    only when ``j - i > min_sep``.

    Per cell: ``F[i,j] = max(F[i+1,j], F[i,j-1], F[i+1,j-1] + pair(i,j),
    max_{i<=k<j} F[i,k] + F[k+1,j])`` — the bifurcation max is the O(n)
    data dependency that makes Nussinov 2D/1D. The region is swept by span
    (:func:`_span_sweep`), one row-wise reduction per span-diagonal. The
    two unpaired cases are the splits ``k = i`` and ``k = j - 1`` (the
    other half is an empty span, and ``x + 0.0`` is ``x``), so the scan
    covers them.
    """
    flat = _flat(W)
    step = W.shape[1] + 1
    pairs = can_pair.reshape(-1)
    pstep = can_pair.shape[1] + 1
    for s, i0, first, cells, splits in _span_sweep(flat, step, offset, rows, cols):
        best = splits.max(axis=1)
        if s > min_sep:
            last = len(cells) - 1
            inner = flat[first + step - 2 : first + step - 1 + last * step : step]  # F[i+1, j-1]
            p = (i0 - offset) * pstep + s
            np.maximum(best, inner + 1.0, out=best, where=pairs[p : p + last * pstep + 1 : pstep])
        cells[:] = best


def matrix_chain_region(
    W: np.ndarray,
    dims: np.ndarray,
    offset: int,
    rows: range,
    cols: range,
) -> None:
    """Matrix-chain-order cost, one region of a window in place.

    Same window layout and span sweep as :func:`nussinov_region` with min
    instead of max:
    ``m[i,j] = min_{i<=k<j} m[i,k] + m[k+1,j] + dims[i]*dims[k+1]*dims[j+1]``
    and ``m[i,i] = 0``. ``dims`` is the full dimension vector (contiguous,
    length ``n + 1`` for ``n`` matrices). Sums and products associate as
    written here, cell by cell or diagonal by diagonal.
    """
    for s, i0, _, cells, splits in _span_sweep(_flat(W), W.shape[1] + 1, offset, rows, cols):
        n = len(cells)
        di = dims[i0 : i0 + n, None]
        dk = _windows(dims, i0 + 1, (n, s), (1, 1))  # dims[k + 1] at k = i + t
        dj = dims[i0 + s + 1 : i0 + s + 1 + n, None]
        cells[:] = (splits + di * dk * dj).min(axis=1)
