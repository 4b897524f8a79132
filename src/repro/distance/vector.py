"""Minkowski (L_p) distances over float vectors.

These serve point data, spatial data and time-series windows (Table 1 of
the paper).  Threshold tests route through the batched kernel layer
(:mod:`repro.kernels.minkowski`): for p = 2 the Gram form decides every
pair outside its rounding band and the exact difference form decides
the band, and other orders evaluate chunked difference tensors, so a
page-pair join never materialises more than a bounded temporary.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.kernels.minkowski import minkowski_pairs
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "MinkowskiDistance",
    "EuclideanDistance",
    "ManhattanDistance",
    "ChebyshevDistance",
]

_CHUNK_ROWS = 1024


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

    def pairs_within(
        self,
        left: np.ndarray,
        right: np.ndarray,
        epsilon: float,
        recorder: Recorder = NULL_RECORDER,
    ) -> List[Tuple[int, int]]:
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        # The kernel accepts exactly the pairs the difference form
        # accepts: the Gram form decides only cells clear of its rounding
        # band, so epsilon = 0 joins still see identical points at
        # distance zero.
        return minkowski_pairs(
            left, right, epsilon, self.p, chunk_rows=_CHUNK_ROWS, recorder=recorder
        )

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
