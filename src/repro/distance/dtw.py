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
  Keogh envelope.  The MR-index widens its DTW page boxes by the same
  running min/max, so the plane sweep's extended-box test stays
  complete (:meth:`repro.index.mr.MRIndex.window_boxes` has the
  argument).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.kernels.dtw import batch_envelopes

__all__ = ["dtw_distance", "envelope", "DTWDistance"]


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

    Returns ``(lower, upper)`` arrays of the same length; one row of
    :func:`repro.kernels.dtw.batch_envelopes`.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("envelope expects a 1-d array")
    lower, upper = batch_envelopes(arr[None, :], band)
    return lower[0], upper[0]


class DTWDistance:
    """Banded DTW as a join's distance: the band, the exact distance of
    one pair, and a per-comparison weight that reflects the
    ``O(w · band)`` DP cells.
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

    def __repr__(self) -> str:
        return f"DTWDistance(band={self.band})"
