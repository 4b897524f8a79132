"""Edit (Levenshtein) distance with threshold-bounded banding.

The subsequence join on strings compares equal-length windows under edit
distance (Section 3).  For a join threshold ``k`` the DP only needs a band
of width ``2k + 1`` around the diagonal (Ukkonen), and whole comparisons can
be abandoned as soon as every band cell exceeds ``k`` — both standard and
essential, since window pairs are the CPU bottleneck for sequence joins.
"""

from __future__ import annotations

__all__ = ["edit_distance"]


def edit_distance(s: str, t: str, max_dist: float | None = None) -> float:
    """Levenshtein distance between ``s`` and ``t``.

    When ``max_dist`` is given, computation is banded and the function
    returns ``max_dist + 1`` as soon as the true distance provably exceeds
    ``max_dist`` (an "early abandon"); callers comparing against a join
    threshold never observe the difference.
    """
    if s == t:
        return 0.0
    n, m = len(s), len(t)
    if n == 0 or m == 0:
        true = float(max(n, m))
        if max_dist is not None and true > max_dist:
            return max_dist + 1.0
        return true
    if max_dist is not None and abs(n - m) > max_dist:
        return max_dist + 1.0

    band = int(max_dist) if max_dist is not None else max(n, m)
    big = n + m + 1  # effectively +inf for this DP
    prev = [big] * (m + 1)
    for j in range(0, min(m, band) + 1):
        prev[j] = j
    for i in range(1, n + 1):
        cur = [big] * (m + 1)
        j_lo = max(1, i - band)
        j_hi = min(m, i + band)
        if i <= band:
            cur[0] = i
        row_min = cur[0] if i <= band else big
        si = s[i - 1]
        for j in range(j_lo, j_hi + 1):
            cost = 0 if si == t[j - 1] else 1
            best = prev[j - 1] + cost
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            cur[j] = best
            if best < row_min:
                row_min = best
        if max_dist is not None and row_min > max_dist:
            return max_dist + 1.0
        prev = cur
    result = float(prev[m])
    if max_dist is not None and result > max_dist:
        return max_dist + 1.0
    return result
