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

Ahead of the DP, the join cascade filters window pairs in two stages.
LB_Keogh needs a ``(rows, cols, w)`` gap tensor per panel; most cells
fail it by a wide margin, so a cheaper bound runs first.  With envelope
centre ``c = (L + U)/2`` and radius ``r = (U − L)/2``, Minkowski's
inequality gives ``LB_Keogh(q) ≥ ‖q − c‖₂ − ‖r‖₂`` (see
:func:`envelope_centres`), and ``‖q − c‖₂ ≤ ε + ‖r‖₂`` is one Gram
product per panel — the L2 join's
:func:`repro.kernels.minkowski.euclidean_gram_panel` with a per-column
threshold.  :func:`lb_keogh_panel` then runs only on the panel columns
where some row passes that bound.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.wavefront import dtw_chunk_wavefront
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "batch_envelopes",
    "envelope_centres",
    "lb_keogh_block",
    "lb_keogh_panel",
    "dtw_batch",
]

# DP state is (pairs, w+1) float64 per buffer; 4096 pairs at w = 512 is
# ~16 MiB of working set — safely inside cache-friendly territory.
_CHUNK_PAIRS = 4096
_LB_CHUNK_ROWS = 512
# Gathered LB_Keogh bounds its (rows, cols, w) gap temporaries by
# elements: 512 KiB of float64 each, small next to a join cascade's
# per-object envelopes.
_LB_CELL_BUDGET = 1 << 16


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


# The centre–radius bound.  Per coordinate the Keogh gap of q against
# (L, U) is g_i = max(L_i − q_i, q_i − U_i, 0) = max(|q_i − c_i| − r_i, 0),
# so |q_i − c_i| ≤ g_i + r_i, and Minkowski's inequality gives
# ‖q − c‖ ≤ ‖g‖ + ‖r‖ = LB_Keogh(q) + ‖r‖.  Every window with
# LB_Keogh ≤ ε therefore has ‖q‖² + ‖c‖² − 2 q·c ≤ (ε + ‖r‖)².
#
# Rounding margin.  The Gram stage keeps a cell when the computed
# ‖q‖² + ‖c‖² − 2 q·c is ≤ (ε + ‖r‖)² + 2⁻³⁰·(‖q‖² + ‖c‖²), the same
# _GRAM_SLACK margin as the L2 filter; it must keep every cell whose
# *computed* LB_Keogh is ≤ ε.  With u = 2⁻⁵³ and B = ‖q‖² + ‖c‖², to
# first order in u:
#   (a) the computed Gram value is within 2(w + 2)·u·B of ‖q − c‖²
#       (the error _GRAM_SLACK already absorbs);
#   (b) the rounded centre moves ‖q − c‖² by at most 3u·B;
#   (c) the computed LB_Keogh, ‖r‖ and (ε + ‖r‖)² are each within a
#       relative (2w + 10)·u of their exact values, so a cell whose
#       computed LB_Keogh is ≤ ε has an exact ‖q − c‖² that exceeds
#       the computed threshold by at most (4w + 19)·u·(ε + ‖r‖)²;
#   (d) that only matters near the threshold, where
#       ‖q − c‖ ≥ (ε + ‖r‖)/2 and hence (ε + ‖r‖)² ≤ 4‖q − c‖² ≤ 8B —
#       a cell below half the threshold passes with room to spare.
# The total, under (34w + 160)·u·B, stays below 2⁻³⁰·B for windows up
# to ~2·10⁵ samples.  Without the margin, windows built at the bound's
# equality case (q = c ± (r + t·r/‖r‖), ε = t nudged by ulps) are
# wrongly rejected in roughly half of the cases.


def envelope_centres(
    lowers: np.ndarray, uppers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Centres ``(L + U)/2`` and radius norms ``‖(U − L)/2‖₂`` of envelopes.

    One row each per envelope row.  ``LB_Keogh(q) ≤ ε`` implies
    ``‖q − centre‖₂ ≤ ε + radius``, the bound the cascade tests with one
    Gram product per panel ahead of :func:`lb_keogh_panel`.
    """
    centres = 0.5 * (lowers + uppers)
    half_widths = 0.5 * (uppers - lowers)
    radii = np.sqrt(np.einsum("jw,jw->j", half_widths, half_widths))
    return centres, radii


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
    of the right windows that passed the centre–radius bound, so the
    gap tensor covers those columns only.  The panel is chunked along
    its columns to keep the ``(rows, chunk, w)`` temporary
    cell-budgeted.  Per cell the squared gaps equal
    :func:`lb_keogh_block`'s — ``max(L − q, q − U, 0)`` is its nested
    maximum regrouped, and any signed zero squares to ``+0`` — and run
    through the same contiguous-axis pairwise summation, so the bounds
    are bit-identical.
    """
    left_arr = np.atleast_2d(np.asarray(left_rows, dtype=np.float64))
    w = max(1, left_arr.shape[1])
    out = np.empty((left_arr.shape[0], lowers.shape[0]))
    chunk_cols = max(1, _LB_CELL_BUDGET // max(1, left_arr.shape[0] * w))
    for lo in range(0, lowers.shape[0], chunk_cols):
        hi = lo + chunk_cols
        # Two (rows, chunk, w) temporaries, the gap updated in place.
        gap = lowers[lo:hi][None, :, :] - left_arr[:, None, :]
        np.maximum(gap, left_arr[:, None, :] - uppers[lo:hi][None, :, :], out=gap)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        out[:, lo:hi] = np.sqrt(np.sum(gap, axis=2))
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
        recorder.count("kernel.dtw.pairs", int(a_arr.shape[0]))
        recorder.count("kernel.dtw.abandoned", abandoned)
    return out
