"""Dynamic time warping with band constraints and envelope lower bounds.

The paper claims its framework works "when the similarity measure can be
any metric" — anything with a lower-bounding predictor over page MBRs.
DTW is the classic non-Euclidean sequence measure, and its standard
lower-bound machinery (Sakoe-Chiba banding, Keogh envelopes) slots into
the prediction matrix exactly like the frequency distance does for edit
distance:

* :func:`dtw_distance` — banded DTW between equal-length windows, with
  early abandon against a threshold;
* :func:`envelope` — per-position running min/max over the band, the
  Keogh envelope;
* :func:`envelope_box` — widening a page MBR by the band envelope.  If
  two windows are within DTW distance ε, their envelope-widened page
  boxes are within L∞ distance ε (see :func:`envelope_box` for the
  argument), so the plane sweep's extended-box test stays complete.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry import Rect
from repro.kernels.dtw import batch_envelopes, dtw_batch, lb_keogh_block
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["dtw_distance", "envelope", "envelope_box", "DTWDistance"]


def dtw_distance(
    x: Sequence[float],
    y: Sequence[float],
    band: int,
    max_dist: float | None = None,
) -> float:
    """Banded (Sakoe-Chiba) DTW distance between two sequences.

    Returns the square root of the optimal warped sum of squared gaps,
    with alignment indices constrained to ``|i - j| <= band``.  With
    ``max_dist`` set, returns a value strictly above ``max_dist`` as soon
    as the distance provably exceeds it (early abandon).
    """
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("dtw_distance expects 1-d sequences")
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        raise ValueError("dtw_distance expects non-empty sequences")
    if abs(n - m) > band:
        return float("inf") if max_dist is None else max_dist + 1.0

    limit_sq = None if max_dist is None else float(max_dist) ** 2
    big = np.inf
    prev = np.full(m + 1, big)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, big)
        j_lo = max(1, i - band)
        j_hi = min(m, i + band)
        ai = a[i - 1]
        row_min = big
        for j in range(j_lo, j_hi + 1):
            gap = ai - b[j - 1]
            cost = gap * gap
            best_prev = min(prev[j], prev[j - 1], cur[j - 1])
            cur[j] = cost + best_prev
            if cur[j] < row_min:
                row_min = cur[j]
        if limit_sq is not None and row_min > limit_sq:
            return float(max_dist) + 1.0
        prev = cur
    result = float(np.sqrt(prev[m]))
    if max_dist is not None and result > max_dist:
        return float(max_dist) + 1.0
    return result


def envelope(values: np.ndarray, band: int) -> Tuple[np.ndarray, np.ndarray]:
    """Keogh envelope: running min/max of ``values`` over ``±band``.

    Returns ``(lower, upper)`` arrays of the same length.  Vectorised via
    a stride trick over a padded copy.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("envelope expects a 1-d array")
    if band < 0:
        raise ValueError(f"band must be non-negative, got {band}")
    if band == 0:
        return arr.copy(), arr.copy()
    padded_lo = np.pad(arr, band, mode="edge")
    window = 2 * band + 1
    view = np.lib.stride_tricks.sliding_window_view(padded_lo, window)
    return view.min(axis=1), view.max(axis=1)


def envelope_box(box: Rect, band: int) -> Rect:
    """Widen a page MBR by the band envelope (per-dimension running min/max).

    Soundness: a DTW path matches every position ``i`` of one window to
    some position ``j`` of the other with ``|i − j| <= band``, and the DTW
    distance is at least the largest per-position gap along the path.  A
    window inside ``box`` therefore has, at each position ``i``, some
    band-neighbour value inside ``[min_j box.lo[j], max_j box.hi[j]]`` —
    which is exactly this widened box.  Hence
    ``DTW(x, y) >= L∞-mindist(envelope_box(A, band), envelope_box(B, band))``
    for windows ``x ∈ A``, ``y ∈ B``, and the sweep's ε/2-extension test
    remains complete for DTW joins.
    """
    lo, hi = box.lo, box.hi
    lo_env, _ = envelope(lo, band)
    _, hi_env = envelope(hi, band)
    return Rect(lo_env, hi_env)


class DTWDistance:
    """Banded DTW as a :class:`~repro.distance.base.JoinDistance`.

    The per-comparison weight reflects the ``O(w · band)`` DP cells.
    """

    def __init__(self, band: int) -> None:
        if band < 0:
            raise ValueError(f"band must be non-negative, got {band}")
        self.band = band

    @property
    def comparison_weight(self) -> float:
        return float(2 * self.band + 3)

    def distance(self, a: Sequence[float], b: Sequence[float]) -> float:
        return dtw_distance(a, b, self.band)

    def pairs_within(
        self,
        left: np.ndarray,
        right: np.ndarray,
        epsilon: float,
        recorder: Recorder = NULL_RECORDER,
    ) -> List[Tuple[int, int]]:
        """Envelope-filtered exact DTW join of two window arrays.

        Cheap stage: LB_Keogh — per-position gap of each left window
        against the right windows' band envelopes, computed over whole
        window blocks at once.  Survivors go through the batched banded
        DP (:func:`repro.kernels.dtw.dtw_batch`) in one call with
        ``epsilon`` as the shared early-abandon threshold.
        """
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        left_arr = np.atleast_2d(np.asarray(left, dtype=np.float64))
        right_arr = np.atleast_2d(np.asarray(right, dtype=np.float64))
        lowers, uppers = batch_envelopes(right_arr, self.band)
        keogh = lb_keogh_block(left_arr, lowers, uppers)
        cand_i, cand_k = np.nonzero(keogh <= epsilon)
        if recorder.enabled:
            recorder.count(
                "kernel.dtw.pairs_tested", left_arr.shape[0] * right_arr.shape[0]
            )
            recorder.count("kernel.dtw.keogh_candidates", int(cand_i.size))
        if cand_i.size == 0:
            return []
        dists = dtw_batch(
            left_arr[cand_i], right_arr[cand_k], self.band, max_dist=epsilon,
            recorder=recorder,
        )
        keep = dists <= epsilon
        return list(zip(cand_i[keep].tolist(), cand_k[keep].tolist()))

    def __repr__(self) -> str:
        return f"DTWDistance(band={self.band})"
