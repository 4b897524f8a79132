"""Row-by-row banded DTW and edit-distance DPs: the wavefront kernels' oracle.

These are the batch-front kernels :func:`repro.kernels.dtw.dtw_batch` and
:func:`repro.kernels.edit.edit_batch` ran before the anti-diagonal
kernels of :mod:`repro.kernels.wavefront` replaced them.  They vectorise
across the pair batch and walk the DP matrix cell by cell in row order,
the same loop shape as the scalar ``dtw_distance`` / ``edit_distance``.
The wavefront kernels must reproduce their distances and abandon counts
bit for bit (``tests/kernels/test_wavefront_properties.py``), and the
micro-bench times the wavefront kernels against them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _dtw_chunk(
    a: np.ndarray, b: np.ndarray, band: int, max_dist: float | None
) -> Tuple[np.ndarray, int]:
    """One chunk's distances plus how many pairs were retired early."""
    k, w = a.shape
    limit_sq = None if max_dist is None else float(max_dist) ** 2
    out = np.empty(k)
    abandoned = 0
    alive = np.arange(k)
    prev = np.full((k, w + 1), np.inf)
    prev[:, 0] = 0.0
    for i in range(1, w + 1):
        cur = np.full((alive.shape[0], w + 1), np.inf)
        j_lo = max(1, i - band)
        j_hi = min(w, i + band)
        ai = a[:, i - 1]
        row_min = np.full(alive.shape[0], np.inf)
        for j in range(j_lo, j_hi + 1):
            gap = ai - b[:, j - 1]
            best_prev = np.minimum(np.minimum(prev[:, j], prev[:, j - 1]), cur[:, j - 1])
            cell = gap * gap + best_prev
            cur[:, j] = cell
            np.minimum(row_min, cell, out=row_min)
        if limit_sq is not None:
            dead = row_min > limit_sq
            if dead.any():
                dead_ids = alive[dead]
                out[dead_ids] = float(max_dist) + 1.0
                abandoned += int(dead_ids.size)
                keep = ~dead
                alive = alive[keep]
                if alive.shape[0] == 0:
                    return out, abandoned
                cur = cur[keep]
                a = a[keep]
                b = b[keep]
        prev = cur
    result = np.sqrt(prev[:, w])
    if max_dist is not None:
        result = np.where(result > max_dist, float(max_dist) + 1.0, result)
    out[alive] = result
    return out, abandoned


def _edit_chunk(a: np.ndarray, b: np.ndarray, max_dist: int) -> Tuple[np.ndarray, int]:
    """One chunk's distances plus how many pairs were retired early."""
    k, w = a.shape
    band = int(max_dist)
    big = np.int32(2 * w + 1)  # effectively +inf for this DP
    sentinel = float(max_dist) + 1.0
    out = np.empty(k)
    abandoned = 0
    if w == 0:
        out[:] = 0.0
        return out, abandoned
    alive = np.arange(k)
    prev = np.full((k, w + 1), big, dtype=np.int32)
    prev[:, : min(w, band) + 1] = np.arange(min(w, band) + 1, dtype=np.int32)
    for i in range(1, w + 1):
        cur = np.full((alive.shape[0], w + 1), big, dtype=np.int32)
        j_lo = max(1, i - band)
        j_hi = min(w, i + band)
        if i <= band:
            cur[:, 0] = i
            row_min = np.full(alive.shape[0], np.int32(i))
        else:
            row_min = np.full(alive.shape[0], big)
        ai = a[:, i - 1]
        for j in range(j_lo, j_hi + 1):
            cost = (ai != b[:, j - 1]).astype(np.int32)
            best = np.minimum(
                np.minimum(prev[:, j - 1] + cost, prev[:, j] + 1), cur[:, j - 1] + 1
            )
            cur[:, j] = best
            np.minimum(row_min, best, out=row_min)
        dead = row_min > max_dist
        if dead.any():
            dead_ids = alive[dead]
            out[dead_ids] = sentinel
            abandoned += int(dead_ids.size)
            keep = ~dead
            alive = alive[keep]
            if alive.shape[0] == 0:
                return out, abandoned
            cur = cur[keep]
            a = a[keep]
            b = b[keep]
        prev = cur
    result = prev[:, w].astype(np.float64)
    result[result > max_dist] = sentinel
    out[alive] = result
    return out, abandoned
