"""Row-by-row banded DTW and edit-distance DPs: the wavefront kernels' oracle.

These are the batch-front kernels :func:`repro.kernels.dtw.dtw_batch` and
:func:`repro.kernels.edit.edit_batch` ran before the anti-diagonal
kernels of :mod:`repro.kernels.wavefront` replaced them.  They vectorise
across the pair batch and walk the DP matrix cell by cell in row order,
the same loop shape as the scalar ``dtw_distance`` / ``edit_distance``.
The wavefront kernels must reproduce their distances and abandon counts
bit for bit (``tests/kernels/test_wavefront_properties.py``), and the
micro-bench times the wavefront kernels against them.

:func:`fd_filter_float` is the text cascade's frequency-distance filter
in the float form it had before the integer kernel
(:func:`repro.core.joiners.make_fd_filter`) replaced it, and
:func:`sliding_envelopes` computes Keogh envelopes the way
:func:`repro.kernels.dtw.batch_envelopes` did before its shifted min/max
passes: a strided reduction over an edge-padded copy.

:func:`euclidean_chunk_pairs` is the L2 filter-then-refine the Minkowski
kernel ran before its Gram values decided the cells outside their
rounding band (:func:`repro.kernels.minkowski.euclidean_panel_decisions`):
the Gram filter keeps candidates, and the exact difference form
re-evaluates every one.  :func:`euclidean_pairs` runs it over left
chunks with the kernel's counters, as ``MinkowskiDistance.pairs_within``
did for p = 2.
"""

from __future__ import annotations

from typing import List, Tuple

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


def fd_filter_float(
    left_features: np.ndarray, right_features: np.ndarray, epsilon: float
) -> np.ndarray:
    """Frequency-distance filter decisions in float64, cell by cell.

    The form the text cascade evaluated before its integer kernel: half
    the L1 distance of the count vectors (FD, for counts with equal
    sums), reduced over a ``(rows, cols, alphabet)`` difference tensor.
    """
    diff = right_features[None, :, :] - left_features[:, None, :]
    return np.abs(diff).sum(axis=2) * 0.5 <= epsilon


def sliding_envelopes(windows: np.ndarray, band: int) -> Tuple[np.ndarray, np.ndarray]:
    """Keogh envelopes of every row: min and max over a sliding window
    view of the rows, each edge-padded by ``band`` samples."""
    arr = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    if band == 0:
        return arr.copy(), arr.copy()
    padded = np.pad(arr, ((0, 0), (band, band)), mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, 2 * band + 1, axis=1)
    return view.min(axis=2), view.max(axis=2)


# The Gram filter's relative slack and the refine's gather size, as the
# filter-then-refine kernel had them.
_GRAM_SLACK = 2.0**-30
_CHUNK_PAIRS = 8192


def euclidean_chunk_pairs(
    chunk: np.ndarray,
    right: np.ndarray,
    right_sq: np.ndarray,
    epsilon: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Gram filter + exact refine for one left chunk.

    Returns ``(rows, cols, candidates)`` where ``candidates`` is how
    many pairs survived the Gram prefilter into the exact refine.
    """
    chunk_sq = np.einsum("id,id->i", chunk, chunk)
    gram_sq = chunk_sq[:, None] + right_sq[None, :] - 2.0 * (chunk @ right.T)
    margin = _GRAM_SLACK * (chunk_sq[:, None] + right_sq[None, :])
    cand_rows, cand_cols = np.nonzero(gram_sq <= epsilon * epsilon + margin)
    if cand_rows.size == 0:
        return cand_rows, cand_cols, 0
    keep = np.empty(cand_rows.size, dtype=bool)
    for lo in range(0, cand_rows.size, _CHUNK_PAIRS):
        hi = lo + _CHUNK_PAIRS
        diff = chunk[cand_rows[lo:hi]] - right[cand_cols[lo:hi]]
        keep[lo:hi] = np.sqrt(np.sum(diff * diff, axis=1)) <= epsilon
    return cand_rows[keep], cand_cols[keep], int(cand_rows.size)


def euclidean_pairs(
    left: np.ndarray, right: np.ndarray, epsilon: float, recorder, chunk_rows=1024
) -> List[Tuple[int, int]]:
    """Every ``(i, j)`` within ``epsilon`` under L2, row-major, through
    :func:`euclidean_chunk_pairs` one ``chunk_rows`` left chunk at a
    time, counting what ``MinkowskiDistance.pairs_within`` counted."""
    left = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right = np.atleast_2d(np.asarray(right, dtype=np.float64))
    right_sq = np.einsum("jd,jd->j", right, right)
    pairs: List[Tuple[int, int]] = []
    candidates = 0
    for start in range(0, left.shape[0], chunk_rows):
        rows, cols, cand = euclidean_chunk_pairs(
            left[start : start + chunk_rows], right, right_sq, epsilon
        )
        candidates += cand
        pairs.extend(zip((rows + start).tolist(), cols.tolist()))
    if recorder.enabled:
        recorder.count("kernel.minkowski.invocations")
        recorder.count("kernel.minkowski.pairs_tested", left.shape[0] * right.shape[0])
        recorder.count("kernel.minkowski.gram_candidates", candidates)
        recorder.count("kernel.minkowski.accepted", len(pairs))
    return pairs
