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
chunks with the kernel's counters, as the L2 distance class's page-pair
join did.

:func:`lb_keogh_block` is LB_Keogh of every window of one block against
every envelope of another, the block form that
:func:`repro.kernels.dtw.lb_keogh_panel` and
:func:`repro.kernels.dtw.lb_keogh_gathered` must equal bit for bit, and
:func:`dtw_pairs_within` is the page-pair DTW join the DTW distance
class shipped before the join cascade became the only one: two-way
LB_Keogh over whole blocks, then one batched DP, with its counters.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels.dtw import batch_envelopes, dtw_batch, lb_keogh_limit
from repro.obs.recorder import NULL_RECORDER, Recorder


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
    time, counting what the L2 distance class's page-pair join counted."""
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


_LB_CHUNK_ROWS = 512


def lb_keogh_block(
    left: np.ndarray,
    lowers: np.ndarray,
    uppers: np.ndarray,
    chunk_rows: int = _LB_CHUNK_ROWS,
) -> np.ndarray:
    """LB_Keogh of every left window against every enveloped right window.

    Returns the ``(len(left), len(lowers))`` lower-bound matrix; the gap
    tensor is chunked over left rows so the temporary stays bounded.
    """
    left_arr = np.atleast_2d(np.asarray(left, dtype=np.float64))
    out = np.empty((left_arr.shape[0], lowers.shape[0]))
    for start in range(0, left_arr.shape[0], chunk_rows):
        chunk = left_arr[start : start + chunk_rows]
        gap = np.maximum(
            np.maximum(lowers[None, :, :] - chunk[:, None, :], 0.0),
            np.maximum(chunk[:, None, :] - uppers[None, :, :], 0.0),
        )
        out[start : start + chunk.shape[0]] = np.sqrt(np.sum(gap * gap, axis=2))
    return out


def dtw_pairs_within(
    band: int,
    left: np.ndarray,
    right: np.ndarray,
    epsilon: float,
    recorder: Recorder = NULL_RECORDER,
) -> List[Tuple[int, int]]:
    """Envelope-filtered exact DTW join of two window arrays.

    Cheap stage: LB_Keogh in both directions — each left window
    against the right windows' band envelopes and each right window
    against the left windows' — over whole window blocks at once.  A
    pair passes when both bounds are within
    :func:`repro.kernels.dtw.lb_keogh_limit`, ε plus a rounding
    slack.  Survivors go through the batched banded DP
    (:func:`repro.kernels.dtw.dtw_batch`) in one call with
    ``epsilon`` as the shared early-abandon threshold.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    left_arr = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right_arr = np.atleast_2d(np.asarray(right, dtype=np.float64))
    limit = lb_keogh_limit(epsilon, left_arr.shape[1])
    right_lowers, right_uppers = batch_envelopes(right_arr, band)
    left_lowers, left_uppers = batch_envelopes(left_arr, band)
    forward = lb_keogh_block(left_arr, right_lowers, right_uppers)
    reverse = lb_keogh_block(right_arr, left_lowers, left_uppers).T
    cand_i, cand_k = np.nonzero((forward <= limit) & (reverse <= limit))
    if recorder.enabled:
        recorder.count(
            "kernel.dtw.pairs_tested", left_arr.shape[0] * right_arr.shape[0]
        )
        recorder.count("kernel.dtw.keogh_candidates", int(cand_i.size))
    if cand_i.size == 0:
        return []
    if recorder.enabled:
        recorder.count("kernel.dtw.invocations")
    dists = dtw_batch(
        left_arr[cand_i], right_arr[cand_k], band, max_dist=epsilon,
        recorder=recorder,
    )
    keep = dists <= epsilon
    return list(zip(cand_i[keep].tolist(), cand_k[keep].tolist()))
