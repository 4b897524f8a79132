"""Anti-diagonal (wavefront) banded DP kernels for DTW and edit distance.

The row-by-row reference kernels (kept as the oracle in
``tests/oracles/kernels.py``) vectorise across the candidate batch but
still walk the DP matrix cell by cell — ``w · (2·band + 1)`` interpreted
Python steps per chunk.  The kernels below sweep the same matrix along
anti-diagonals ``d = i + j``: every cell on a diagonal depends only on
the two previous diagonals (``up`` and ``left`` on ``d − 1``, ``diag``
on ``d − 2``), so one vectorised operation updates *batch × diagonal*
cells at once and the Python-level loop count drops to ``2·w − 1``
iterations per chunk, independent of the band width.

Bit-identity with the reference kernels is a hard contract, not a
tolerance: each cell performs the identical float64 (or int32)
operations on the identical operands in the identical order —
``gap² + min(up, diag, left)`` for DTW, ``min(diag + cost, up + 1,
left + 1)`` for edit — and every DP value is non-negative (no ``−0.0``
ambiguity in ``minimum``), so results, row minima, early-abandon
decisions, and abandon *counts* all match the reference bit for bit.
Early abandon works because anti-diagonal order completes DP rows in
strictly increasing row index: row ``i`` is fully populated once
diagonal ``i + min(w, i + band)`` is done, at which point its band
minimum is compared against the threshold exactly as the row kernel
would have, in the same row order.

Layout: diagonals are stored *compactly* — ``min(band, w − 1) + 4``
slots per diagonal instead of ``w + 1`` — in ``(slots, batch)``
orientation so every read and write is a contiguous block of rows.
Interior cells of diagonal ``d`` (rows ``lo_d … hi_d``) live at slots
``1 … n``; slots ``0`` and ``n + 1`` hold the boundary / out-of-band
neighbours the next two diagonals will read.  Because ``lo_d`` and
``hi_d`` each advance by at most one per diagonal, all neighbour reads
land inside slots ``[0, n_ref + 1]`` of the referenced buffer.

Abandoned pairs are retired *logically* the moment their row check
fails (sentinel written, counter bumped — identical to the reference)
but *physically* compacted out of the working arrays only once a third
of the batch is dead: per-pair state here spans ``~3·w`` rows, so eager
per-row compaction would copy more than it saves.  Dead columns compute
discardable garbage until the next compaction; pairs are independent,
so live columns are unaffected.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["dtw_chunk_wavefront", "edit_chunk_wavefront"]

# Physically compact the batch once this fraction of columns is dead.
_COMPACT_FRACTION = 0.3


def _diag_range(d: int, w: int, band: int) -> Tuple[int, int]:
    """Interior row range ``[lo, hi]`` of anti-diagonal ``d`` (may be empty).

    A cell ``(i, j = d − i)`` is interior when ``1 ≤ i ≤ w``,
    ``1 ≤ j ≤ w`` and ``|i − j| ≤ band``; solving for ``i`` gives the
    bounds below.  ``lo`` is also the slot base for *empty* diagonals
    (odd ``d`` at ``band = 0``), keeping the slot arithmetic monotone.
    """
    lo = max(1, d - w, (d - band + 1) // 2)
    hi = min(w, d - 1, (d + band) // 2)
    return lo, hi


def dtw_chunk_wavefront(
    a: np.ndarray, b: np.ndarray, band: int, max_dist: float | None
) -> Tuple[np.ndarray, int]:
    """Banded DTW of one aligned chunk -> (distances, abandoned)."""
    k, w = a.shape
    limit_sq = None if max_dist is None else float(max_dist) ** 2
    out = np.empty(k)
    abandoned = 0
    alive = np.arange(k)
    # (w, k) layout: per-diagonal row slices of a/b are contiguous.
    at = np.ascontiguousarray(a.T)
    bt = np.ascontiguousarray(b.T)
    width = min(band, w - 1) + 4
    d2 = np.full((width, k), np.inf)  # diagonal d − 2
    d1 = np.full((width, k), np.inf)  # diagonal d − 1
    cur = np.full((width, k), np.inf)
    gap = np.empty((width, k))
    # Seeds: DP(0,0) = 0 sits on diagonal 0 at slot 0 − lo_0 + 1 = 0;
    # diagonal 1 holds only the boundary cells (0,1)/(1,0), both +inf.
    d2[0] = 0.0
    lo2, _ = _diag_range(0, w, band)
    lo1, _ = _diag_range(1, w, band)
    if limit_sq is not None:
        # Running band minimum per DP row, accumulated diagonal by
        # diagonal; row i is complete (and checked) once diagonal
        # i + min(w, i + band) is done.
        row_min = np.full((w + 1, k), np.inf)
        next_row = 1
        live = np.ones(k, dtype=bool)
        n_dead = 0
    for d in range(2, 2 * w + 1):
        lo, hi = _diag_range(d, w, band)
        n = hi - lo + 1
        if n > 0:
            up = d1[lo - lo1 : lo - lo1 + n]
            left = d1[lo - lo1 + 1 : lo - lo1 + 1 + n]
            diag = d2[lo - lo2 : lo - lo2 + n]
            # a[:, i−1] for i = lo … hi; b[:, j−1] for j = d − i, which
            # *decreases* as i increases — hence the reversed slice.
            g = gap[:n]
            np.subtract(at[lo - 1 : hi], bt[d - hi - 1 : d - lo][::-1], out=g)
            np.multiply(g, g, out=g)
            best = np.minimum(up, diag)
            np.minimum(best, left, out=best)
            np.add(g, best, out=cur[1 : n + 1])
            if limit_sq is not None:
                np.minimum(row_min[lo : hi + 1], cur[1 : n + 1], out=row_min[lo : hi + 1])
        cur[0] = np.inf
        cur[n + 1 if n > 0 else 1] = np.inf
        if limit_sq is not None:
            # Rows complete in strictly increasing order (the completion
            # diagonal i + min(w, i + band) is increasing in i), so this
            # checks and retires pairs in exactly the reference order.
            while next_row <= w and next_row + min(w, next_row + band) <= d:
                dead = (row_min[next_row] > limit_sq) & live
                hits = int(np.count_nonzero(dead))
                if hits:
                    out[alive[dead]] = float(max_dist) + 1.0
                    abandoned += hits
                    live &= ~dead
                    n_dead += hits
                    if n_dead == live.shape[0]:
                        return out, abandoned
                    if n_dead >= _COMPACT_FRACTION * live.shape[0]:
                        cur = cur[:, live]
                        d1 = d1[:, live]
                        d2 = d2[:, live]
                        gap = gap[:, live]
                        row_min = row_min[:, live]
                        at = at[:, live]
                        bt = bt[:, live]
                        alive = alive[live]
                        live = np.ones(alive.shape[0], dtype=bool)
                        n_dead = 0
                next_row += 1
        d2, d1, cur = d1, cur, d2
        lo2, lo1 = lo1, lo
    result = np.sqrt(d1[1])
    if max_dist is not None:
        result = np.where(result > max_dist, float(max_dist) + 1.0, result)
        out[alive[live]] = result[live]
    else:
        out[alive] = result
    return out, abandoned


def edit_chunk_wavefront(
    a: np.ndarray, b: np.ndarray, max_dist: int
) -> Tuple[np.ndarray, int]:
    """Banded edit distance of one aligned chunk -> (distances, abandoned)."""
    k, w = a.shape
    band = int(max_dist)
    big = np.int32(2 * w + 1)
    sentinel = float(max_dist) + 1.0
    out = np.empty(k)
    abandoned = 0
    if w == 0:
        out[:] = 0.0
        return out, abandoned
    alive = np.arange(k)
    at = np.ascontiguousarray(a.T)
    bt = np.ascontiguousarray(b.T)
    width = min(band, w - 1) + 4
    d2 = np.full((width, k), big, dtype=np.int32)
    d1 = np.full((width, k), big, dtype=np.int32)
    cur = np.full((width, k), big, dtype=np.int32)
    # Seeds mirror the reference boundary rows: DP(0, j) = j while
    # j ≤ min(w, band), DP(i, 0) = i while i ≤ band, else "big".
    d2[0] = 0  # DP(0,0), slot base lo_0 = 1
    if band >= 1:
        d1[0] = 1  # DP(0,1) — w ≥ 1 here
        d1[1] = 1  # DP(1,0)
    lo2, _ = _diag_range(0, w, band)
    lo1, _ = _diag_range(1, w, band)
    # Reference row minima start at DP(i, 0) = i inside the band, "big"
    # outside — the boundary cell participates in the row minimum.
    seed = np.arange(w + 1, dtype=np.int32)
    row_min = np.broadcast_to(
        np.where(seed <= band, seed, big)[:, None], (w + 1, k)
    ).copy()
    next_row = 1
    live = np.ones(k, dtype=bool)
    n_dead = 0
    for d in range(2, 2 * w + 1):
        lo, hi = _diag_range(d, w, band)
        n = hi - lo + 1
        if n > 0:
            up = d1[lo - lo1 : lo - lo1 + n]
            left = d1[lo - lo1 + 1 : lo - lo1 + 1 + n]
            diag = d2[lo - lo2 : lo - lo2 + n]
            cost = (at[lo - 1 : hi] != bt[d - hi - 1 : d - lo][::-1]).astype(np.int32)
            best = np.minimum(diag + cost, up + 1)
            np.minimum(best, left + 1, out=best)
            cur[1 : n + 1] = best
            np.minimum(row_min[lo : hi + 1], best, out=row_min[lo : hi + 1])
        # Boundary neighbours for the next two diagonals: slot 0 is row
        # lo − 1 (the i = 0 boundary when lo == 1), slot n + 1 is row
        # hi + 1 (the j = 0 boundary when hi + 1 == d).
        cur[0] = d if (lo == 1 and d <= min(w, band)) else big
        cur[n + 1 if n > 0 else 1] = d if (hi + 1 == d and d <= min(w, band)) else big
        while next_row <= w and next_row + min(w, next_row + band) <= d:
            dead = (row_min[next_row] > max_dist) & live
            hits = int(np.count_nonzero(dead))
            if hits:
                out[alive[dead]] = sentinel
                abandoned += hits
                live &= ~dead
                n_dead += hits
                if n_dead == live.shape[0]:
                    return out, abandoned
                if n_dead >= _COMPACT_FRACTION * live.shape[0]:
                    cur = cur[:, live]
                    d1 = d1[:, live]
                    d2 = d2[:, live]
                    row_min = row_min[:, live]
                    at = at[:, live]
                    bt = bt[:, live]
                    alive = alive[live]
                    live = np.ones(alive.shape[0], dtype=bool)
                    n_dead = 0
            next_row += 1
        d2, d1, cur = d1, cur, d2
        lo2, lo1 = lo1, lo
    result = d1[1].astype(np.float64)
    result[result > max_dist] = sentinel
    out[alive[live]] = result[live]
    return out, abandoned
