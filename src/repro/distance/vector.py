"""Minkowski (L_p) distances over float vectors.

These serve point data, spatial data and time-series windows (Table 1 of
the paper).  A join's threshold tests run in the batched kernel layer
(:mod:`repro.kernels.minkowski`), called by the join cascade and by the
EGO, Z-order and ε-kdB baselines; the classes here name the order ``p``
and evaluate one pair exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "MinkowskiDistance",
    "EuclideanDistance",
    "ManhattanDistance",
    "ChebyshevDistance",
]


class MinkowskiDistance:
    """The L_p vector norm distance, ``p >= 1`` (``inf`` for Chebyshev).

    Examples
    --------
    >>> d = MinkowskiDistance(2.0)
    >>> d.distance([0.0, 0.0], [3.0, 4.0])
    5.0
    """

    def __init__(self, p: float = 2.0) -> None:
        if not (p >= 1.0):  # also rejects NaN
            raise ValueError(f"Minkowski order p must be >= 1, got {p}")
        self.p = float(p)

    @property
    def comparison_weight(self) -> float:
        return 1.0

    def distance(self, a: Sequence[float], b: Sequence[float]) -> float:
        diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
        if np.isinf(self.p):
            return float(diff.max(initial=0.0))
        return float(np.sum(diff**self.p) ** (1.0 / self.p))

    def __repr__(self) -> str:
        return f"MinkowskiDistance(p={self.p})"


def EuclideanDistance() -> MinkowskiDistance:
    """L2 norm."""
    return MinkowskiDistance(2.0)


def ManhattanDistance() -> MinkowskiDistance:
    """L1 norm."""
    return MinkowskiDistance(1.0)


def ChebyshevDistance() -> MinkowskiDistance:
    """L∞ norm."""
    return MinkowskiDistance(float("inf"))
