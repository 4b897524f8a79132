"""Axis-aligned d-dimensional rectangles (MBRs).

Every index structure in this package (the STR-packed R-tree, MR-index,
MRS-index) approximates disk pages by minimum bounding rectangles, and the
prediction matrix is built from intersections of ε/2-extended MBRs
(Section 5 of the paper).  This module is the single geometry
implementation they all share.

Rectangles are immutable: every operation returns a new :class:`Rect`.
Coordinates are stored as float64 numpy arrays ``lo`` and ``hi`` with
``lo <= hi`` component-wise.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Rect", "union_all"]


class Rect:
    """An axis-aligned rectangle ``[lo[k], hi[k]]`` in each dimension ``k``.

    Parameters
    ----------
    lo, hi:
        Array-likes of equal length; ``lo[k] <= hi[k]`` must hold for all
        dimensions.

    Examples
    --------
    >>> a = Rect([0, 0], [2, 2])
    >>> b = Rect([1, 1], [3, 3])
    >>> a.intersects(b)
    True
    >>> a.intersection(b)
    Rect([1.0, 1.0], [2.0, 2.0])
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]) -> None:
        lo_arr = np.asarray(lo, dtype=np.float64)
        hi_arr = np.asarray(hi, dtype=np.float64)
        if lo_arr.shape != hi_arr.shape or lo_arr.ndim != 1:
            raise ValueError(
                f"lo and hi must be 1-d arrays of equal length, "
                f"got shapes {lo_arr.shape} and {hi_arr.shape}"
            )
        if np.any(lo_arr > hi_arr):
            raise ValueError(f"lo must be <= hi component-wise: lo={lo_arr}, hi={hi_arr}")
        self.lo = lo_arr
        self.hi = hi_arr

    # -- constructors -----------------------------------------------------

    @classmethod
    def _unchecked(cls, lo: np.ndarray, hi: np.ndarray) -> "Rect":
        """Internal fast path: trusts that ``lo <= hi`` already holds."""
        rect = cls.__new__(cls)
        rect.lo = lo
        rect.hi = hi
        return rect

    # -- basic properties --------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return self.lo.shape[0]

    # -- predicates ---------------------------------------------------------

    def intersects(self, other: "Rect") -> bool:
        """True iff the closed rectangles share at least one point."""
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    # -- constructive operations ---------------------------------------------

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap rectangle, or ``None`` when the rectangles are disjoint."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return Rect._unchecked(lo, hi)

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both inputs."""
        return Rect._unchecked(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def extend(self, amount: float) -> "Rect":
        """Grow by ``amount`` in every direction (the ε/2 extension).

        ``amount == 0`` returns ``self``: rectangles are immutable, and the
        ε=0 join path calls this per node pair at every descent level — it
        must not allocate two fresh arrays for a no-op.
        """
        if amount < 0:
            raise ValueError(f"extension amount must be non-negative, got {amount}")
        if amount == 0:
            return self
        return Rect._unchecked(self.lo - amount, self.hi + amount)

    # -- distances ------------------------------------------------------------

    def min_dist(self, other: "Rect", p: float = 2.0) -> float:
        """Minimum L_p distance between any two points of the rectangles.

        This is the standard lower-bounding distance predictor used to mark
        the prediction matrix: if ``min_dist > ε`` no object pair in the two
        pages can join.
        """
        gap = np.maximum(
            np.maximum(other.lo - self.hi, self.lo - other.hi),
            0.0,
        )
        if np.isinf(p):
            return float(gap.max(initial=0.0))
        return float(np.sum(gap**p) ** (1.0 / p))

    # -- dunder plumbing ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __hash__(self) -> int:
        return hash((self.lo.tobytes(), self.hi.tobytes()))

    def __iter__(self) -> Iterator[np.ndarray]:
        yield self.lo
        yield self.hi

    def __repr__(self) -> str:
        return f"Rect({self.lo.tolist()}, {self.hi.tolist()})"


def union_all(rects: Iterable[Rect]) -> Rect:
    """Smallest rectangle covering every rectangle in ``rects``.

    Raises ``ValueError`` on an empty input.
    """
    iterator = iter(rects)
    try:
        first = next(iterator)
    except StopIteration:
        raise ValueError("cannot union zero rectangles") from None
    lo = first.lo.copy()
    hi = first.hi.copy()
    for rect in iterator:
        np.minimum(lo, rect.lo, out=lo)
        np.maximum(hi, rect.hi, out=hi)
    return Rect._unchecked(lo, hi)
