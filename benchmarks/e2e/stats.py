"""Order statistics shared by the runner and the comparison tool.

Quartiles follow :func:`statistics.quantiles` with ``n=4`` (the
"exclusive" method), so a spread computed here equals the one anyone
re-derives from the raw values with the standard library.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

__all__ = ["median", "percentile", "quartiles", "relative_iqr", "tail_percentile"]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_iqr(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the median
    (50) is returned so that every timing still prints two numbers.
    """
    if n < 11:
        return 50
    return max(50, int(math.floor(100.0 * (1.0 - 10.0 / n))))
