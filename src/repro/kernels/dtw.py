"""Batched banded-DTW kernels: block envelopes, LB_Keogh, shared-abandon DP.

The scalar reference ``repro.distance.dtw.dtw_distance`` is a Python
double loop — ``w · (2·band + 1)`` interpreted steps *per pair*.
``dtw_batch`` runs the DP once for the whole candidate block, one
anti-diagonal at a time across every still-alive pair
(:mod:`repro.kernels.wavefront`), so the interpreter cost is amortised
over the block.  Pairs whose band row-minimum exceeds the shared
threshold are retired from the block (the batched form of early
abandon).

Bit-identity with the scalar DP holds because every cell performs the
same float64 operations in the same order: ``gap² + min(prev[j],
prev[j−1], cur[j−1])``, a final ``sqrt``, and the ``max_dist + 1``
sentinel on abandon.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.wavefront import dtw_chunk_wavefront
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["batch_envelopes", "lb_keogh_block", "lb_keogh_panel", "dtw_batch"]

# DP state is (pairs, w+1) float64 per buffer; 4096 pairs at w = 512 is
# ~16 MiB of working set — safely inside cache-friendly territory.
_CHUNK_PAIRS = 4096
_LB_CHUNK_ROWS = 512
# Gathered LB_Keogh bounds its (cells, w) gap temporary by elements.
_LB_CELL_BUDGET = 1 << 22


def batch_envelopes(windows: np.ndarray, band: int) -> Tuple[np.ndarray, np.ndarray]:
    """Keogh envelopes of every row of ``windows`` in one strided pass.

    Equivalent to calling :func:`repro.distance.dtw.envelope` per row;
    rows are edge-padded independently so values match exactly.
    """
    arr = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    if band == 0:
        return arr.copy(), arr.copy()
    padded = np.pad(arr, ((0, 0), (band, band)), mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, 2 * band + 1, axis=1)
    return view.min(axis=2), view.max(axis=2)


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


def lb_keogh_panel(
    left_rows: np.ndarray,
    lowers: np.ndarray,
    uppers: np.ndarray,
) -> np.ndarray:
    """LB_Keogh of a left block against a gathered envelope panel.

    The mega-batch form of :func:`lb_keogh_block`: ``left_rows`` is one
    left page's windows and ``lowers``/``uppers`` the gathered envelopes
    of the page's marked col pages' windows, so the gap tensor covers
    the marked region only.  The panel is chunked along its columns to
    keep the ``(rows, chunk, w)`` temporary cell-budgeted.  Per cell the
    float64 operations (and the contiguous-axis pairwise summation)
    match :func:`lb_keogh_block` exactly, so the bounds are
    bit-identical.
    """
    left_arr = np.atleast_2d(np.asarray(left_rows, dtype=np.float64))
    w = max(1, left_arr.shape[1])
    out = np.empty((left_arr.shape[0], lowers.shape[0]))
    chunk_cols = max(1, _LB_CELL_BUDGET // max(1, left_arr.shape[0] * w))
    for lo in range(0, lowers.shape[0], chunk_cols):
        hi = lo + chunk_cols
        gap = np.maximum(
            np.maximum(lowers[lo:hi][None, :, :] - left_arr[:, None, :], 0.0),
            np.maximum(left_arr[:, None, :] - uppers[lo:hi][None, :, :], 0.0),
        )
        out[:, lo:hi] = np.sqrt(np.sum(gap * gap, axis=2))
    return out


def dtw_batch(
    a: np.ndarray,
    b: np.ndarray,
    band: int,
    max_dist: float | None = None,
    recorder: Recorder = NULL_RECORDER,
) -> np.ndarray:
    """Banded DTW of ``K`` aligned window pairs: ``a[k]`` vs ``b[k]``.

    ``a`` and ``b`` are ``(K, w)`` arrays of equal-length windows (the
    page-pair case — every window of a sequence join has the same
    length).  Returns a ``(K,)`` float64 array bit-identical to calling
    :func:`repro.distance.dtw.dtw_distance` per pair, including the
    ``max_dist + 1`` early-abandon sentinel.  Each chunk of
    ``_CHUNK_PAIRS`` pairs runs the anti-diagonal DP of
    :func:`repro.kernels.wavefront.dtw_chunk_wavefront`.
    """
    a_arr = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b_arr = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    if a_arr.shape != b_arr.shape:
        raise ValueError(
            f"dtw_batch expects aligned equal-shape pair blocks, got "
            f"{a_arr.shape} vs {b_arr.shape}"
        )
    if a_arr.shape[0] == 0:
        return np.empty(0)
    if a_arr.shape[1] == 0:
        raise ValueError("dtw_batch expects non-empty windows")
    out = np.empty(a_arr.shape[0])
    abandoned = 0
    for start in range(0, a_arr.shape[0], _CHUNK_PAIRS):
        stop = start + _CHUNK_PAIRS
        out[start:stop], retired = dtw_chunk_wavefront(
            a_arr[start:stop], b_arr[start:stop], band, max_dist
        )
        abandoned += retired
    if recorder.enabled:
        recorder.count("kernel.dtw.invocations")
        recorder.count("kernel.dtw.pairs", int(a_arr.shape[0]))
        recorder.count("kernel.dtw.abandoned", abandoned)
    return out
