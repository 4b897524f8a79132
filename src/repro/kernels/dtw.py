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

Ahead of the DP, the join cascade keeps a window pair only if LB_Keogh
holds in both directions: the left window against the right window's
envelope, and the right window against the left window's.  LB_Keogh is
not symmetric, and each direction rejects pairs the other keeps; both
are compared with :func:`lb_keogh_limit`, ε widened by a rounding
slack, so no pair within ε is lost to rounding.  LB_Keogh needs a
``(rows, cols, w)`` gap tensor per panel; most cells fail it by a wide
margin, so a cheaper bound runs first.  With envelope centre
``c = (L + U)/2`` and radius ``r = (U − L)/2``, Minkowski's inequality
gives ``LB_Keogh(q) ≥ ‖q − c‖₂ − ‖r‖₂`` (see :func:`envelope_centres`),
and ``‖q − c‖₂ ≤ λ + ‖r‖₂`` is one Gram product per panel — the L2
join's :func:`repro.kernels.minkowski.euclidean_gram_panel` with a
per-column threshold — in each direction.  :func:`lb_keogh_panel` then
runs only on the panel columns where some cell passed both bounds, and
:func:`lb_keogh_gathered` computes the reverse LB_Keogh only for the
cells the forward one kept.
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
    "lb_keogh_gathered",
    "lb_keogh_limit",
    "lb_keogh_panel",
    "dtw_batch",
]

# DP state is (pairs, w+1) float64 per buffer; 4096 pairs at w = 512 is
# ~16 MiB of working set — safely inside cache-friendly territory.
_CHUNK_PAIRS = 4096
_LB_CHUNK_ROWS = 512
# Gathered LB_Keogh bounds its (rows, cols, w) or (cells, w) gap
# temporaries by elements: 512 KiB of float64 each, small next to a join
# cascade's per-object envelopes.
_LB_CELL_BUDGET = 1 << 16
_UNIT_ROUNDOFF = 2.0**-53


def batch_envelopes(windows: np.ndarray, band: int) -> Tuple[np.ndarray, np.ndarray]:
    """Keogh envelopes of every row of ``windows``: the running min and
    max over positions ``±band``, clipped to the window.

    Works on a transposed copy, one row per position, so each of the
    ``2·band`` shifts is one ``np.minimum`` and one ``np.maximum`` over
    contiguous blocks.  Min and max are exact, so every value equals the
    minimum or maximum of its band's samples.
    """
    arr = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    if band == 0:
        return arr.copy(), arr.copy()
    values = np.ascontiguousarray(arr.T)
    lower, upper = values.copy(), values.copy()
    for shift in range(1, min(band, values.shape[0] - 1) + 1):
        np.minimum(lower[shift:], values[:-shift], out=lower[shift:])
        np.minimum(lower[:-shift], values[shift:], out=lower[:-shift])
        np.maximum(upper[shift:], values[:-shift], out=upper[shift:])
        np.maximum(upper[:-shift], values[shift:], out=upper[:-shift])
    # Each transposed copy is dropped as soon as it is laid back out.
    del values
    lower = np.ascontiguousarray(lower.T)
    upper = np.ascontiguousarray(upper.T)
    return lower, upper


# Rounding margins, to first order in u = 2⁻⁵³, for values whose squares
# neither overflow nor underflow.
#
# The decision limit.  The cascade keeps a pair when its computed
# LB_Keogh, in each direction, is ≤ λ = ε·(1 + (2w + 8)u)
# (lb_keogh_limit).  LB_Keogh sums its squared gaps pairwise, the DP
# adds each path's terms one after another, so the computed bound can
# exceed the computed DTW: at band 0, where both sum the same squares,
# it did by one ulp for 6–28% of random pairs with w from 13 to 100.
# λ keeps every pair whose computed DTW is ≤ ε:
#   (a) the DP's value is a running sum along one band path of at most
#       2w − 1 cells, each a rounded gap squared, so the computed DTW
#       is ≥ (1 − (w + 2)u) times the exact DTW;
#   (b) the exact LB_Keogh is ≤ the exact DTW in both directions (the
#       band is symmetric, so DTW(q, c) = DTW(c, q));
#   (c) a computed LB_Keogh — w rounded gaps, squared, summed in any
#       order and rooted — is ≤ (1 + (w/2 + 2)u) times its exact value.
# A pair within ε thus has computed LB_Keogh ≤ ε·(1 + (1.5w + 4)u) in
# each direction, while 1 + (2w + 8)u is exact in float64 and the
# product with ε rounds by at most u: λ ≥ ε·(1 + (2w + 7)u).
#
# The centre–radius bound.  Per coordinate the Keogh gap of q against
# (L, U) is g_i = max(L_i − q_i, q_i − U_i, 0) = max(|q_i − c_i| − r_i, 0),
# so |q_i − c_i| ≤ g_i + r_i, and Minkowski's inequality gives
# ‖q − c‖ ≤ ‖g‖ + ‖r‖ = LB_Keogh(q) + ‖r‖.  Every window with
# LB_Keogh ≤ λ therefore has ‖q‖² + ‖c‖² − 2 q·c ≤ (λ + ‖r‖)².  The
# forward bound tests it for left windows q against right envelopes,
# the reverse bound for right windows against left envelopes.
#
# The Gram margin.  Each Gram stage keeps a cell when the computed
# ‖q‖² + ‖c‖² − 2 q·c is ≤ (λ + ‖r‖)² + 2⁻³⁰·(‖q‖² + ‖c‖²), the same
# _GRAM_SLACK margin as the L2 filter; it must keep every cell whose
# *computed* LB_Keogh is ≤ λ.  With B = ‖q‖² + ‖c‖²:
#   (d) the computed Gram value is within 2(w + 2)·u·B of ‖q − c‖²
#       (the error _GRAM_SLACK already absorbs);
#   (e) the rounded centre moves ‖q − c‖² by at most 3u·B;
#   (f) the computed LB_Keogh, ‖r‖ and (λ + ‖r‖)² are each within a
#       relative (2w + 10)u of their exact values, so a cell whose
#       computed LB_Keogh is ≤ λ has an exact ‖q − c‖² that exceeds
#       the computed threshold by at most (4w + 19)·u·(λ + ‖r‖)²;
#   (g) that only matters near the threshold, where
#       ‖q − c‖ ≥ (λ + ‖r‖)/2 and hence (λ + ‖r‖)² ≤ 4‖q − c‖² ≤ 8B —
#       a cell below half the threshold passes with room to spare.
# The total, under (34w + 160)·u·B, stays below 2⁻³⁰·B = 2²³·u·B for
# windows of up to 246,000 samples.  λ enters only through (f), which
# holds for any threshold, so the margin covers the slack-widened
# limit as it covered ε.  Without the margin, windows built at the
# bound's equality case (q = c ± (r + t·r/‖r‖), λ = t nudged by ulps)
# are wrongly rejected in roughly half of the cases.


def lb_keogh_limit(epsilon: float, window_length: int) -> float:
    """The value a computed LB_Keogh is compared with: ``ε`` widened by
    ``(2w + 8)`` units of roundoff, so that every pair whose computed
    DTW is within ``ε`` passes in both directions (the derivation is
    above this function)."""
    return epsilon * (1.0 + (2 * window_length + 8) * _UNIT_ROUNDOFF)


def envelope_centres(
    lowers: np.ndarray, uppers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Centres ``(L + U)/2`` and radius norms ``‖(U − L)/2‖₂`` of envelopes.

    One row each per envelope row.  ``LB_Keogh(q) ≤ λ`` implies
    ``‖q − centre‖₂ ≤ λ + radius``, the bound the cascade tests with one
    Gram product per panel and direction ahead of :func:`lb_keogh_panel`.
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


def lb_keogh_gathered(
    queries: np.ndarray,
    lowers: np.ndarray,
    uppers: np.ndarray,
    query_idx: np.ndarray,
    envelope_idx: np.ndarray,
) -> np.ndarray:
    """LB_Keogh of ``queries[query_idx[k]]`` against envelope
    ``envelope_idx[k]``, one value per listed cell.

    The cascade's reverse bound: the cells are the ones the forward
    LB_Keogh kept, scattered over a panel, so they are gathered rather
    than laid out as a block.  The cells are taken in chunks whose
    ``(cells, w)`` temporaries hold at most ``_LB_CELL_BUDGET`` elements.
    Per cell the operations are :func:`lb_keogh_panel`'s, so the bounds
    are bit-identical to :func:`lb_keogh_block`'s.
    """
    out = np.empty(query_idx.shape[0])
    chunk = max(1, _LB_CELL_BUDGET // max(1, queries.shape[1]))
    for lo in range(0, query_idx.shape[0], chunk):
        q = queries[query_idx[lo : lo + chunk]]
        env = envelope_idx[lo : lo + chunk]
        gap = lowers[env]
        np.subtract(gap, q, out=gap)
        np.maximum(gap, np.subtract(q, uppers[env], out=q), out=gap)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        out[lo : lo + chunk] = np.sqrt(np.sum(gap, axis=1))
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
