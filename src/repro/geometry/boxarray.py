"""Struct-of-arrays rectangle geometry — ``n`` boxes as two ``(n, d)`` arrays.

:class:`~repro.geometry.rect.Rect` is the right shape for scalar code
(index construction, invariants, tests), but the prediction-matrix
pipeline touches *sets* of boxes: every iterative-filter round and every
plane-sweep level asks the same question of hundreds of children at once.
Answering per ``Rect`` pays two ``np.all`` reductions on a length-``d``
array per call; answering per :class:`BoxArray` pays one vectorised
operation on an ``(n, d)`` block.

A ``BoxArray`` stores the lower corners ``lo`` and upper corners ``hi``
of ``n`` axis-aligned boxes as float64 arrays of shape ``(n, d)`` with
``lo <= hi`` component-wise.  Like ``Rect`` it is treated as immutable:
operations return new arrays (or ``self`` when nothing changes, e.g.
``extend(0.0)``), and callers must not write through ``lo``/``hi``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro.geometry.rect import Rect

__all__ = ["BoxArray", "as_box_array"]


class BoxArray:
    """``n`` axis-aligned boxes in ``d`` dimensions, stored column-wise.

    Examples
    --------
    >>> boxes = BoxArray.from_rects([Rect([0, 0], [1, 1]), Rect([2, 2], [3, 3])])
    >>> len(boxes), boxes.dim
    (2, 2)
    >>> boxes.intersects_matrix(boxes)
    array([[ True, False],
           [False,  True]])
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, validate: bool = True) -> None:
        lo_arr = np.asarray(lo, dtype=np.float64)
        hi_arr = np.asarray(hi, dtype=np.float64)
        if validate:
            if lo_arr.shape != hi_arr.shape or lo_arr.ndim != 2:
                raise ValueError(
                    f"lo and hi must be (n, d) arrays of equal shape, "
                    f"got {lo_arr.shape} and {hi_arr.shape}"
                )
            if np.any(lo_arr > hi_arr):
                raise ValueError("lo must be <= hi component-wise")
        self.lo = lo_arr
        self.hi = hi_arr

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rects(cls, rects: Sequence[Rect]) -> "BoxArray":
        """Pack a sequence of rectangles; empty input needs no dimension."""
        if not rects:
            return cls.empty(1)
        lo = np.stack([rect.lo for rect in rects])
        hi = np.stack([rect.hi for rect in rects])
        return cls(lo, hi, validate=False)

    @classmethod
    def empty(cls, dim: int) -> "BoxArray":
        return cls(
            np.empty((0, dim), dtype=np.float64),
            np.empty((0, dim), dtype=np.float64),
            validate=False,
        )

    # -- basic properties --------------------------------------------------

    def __len__(self) -> int:
        return self.lo.shape[0]

    @property
    def dim(self) -> int:
        return self.lo.shape[1]

    def rect(self, k: int) -> Rect:
        """Box ``k`` as a scalar :class:`Rect` (views, not copies)."""
        return Rect._unchecked(self.lo[k], self.hi[k])

    def __getitem__(self, key: Union[int, slice, np.ndarray]) -> "BoxArray | Rect":
        if isinstance(key, (int, np.integer)):
            return self.rect(int(key))
        return BoxArray(self.lo[key], self.hi[key], validate=False)

    def __iter__(self) -> Iterator[Rect]:
        for k in range(len(self)):
            yield self.rect(k)

    def __repr__(self) -> str:
        return f"BoxArray(n={len(self)}, d={self.dim})"

    # -- vectorised operations ----------------------------------------------

    def extend(self, amount: float) -> "BoxArray":
        """Grow every box by ``amount`` per direction (the ε/2 extension).

        ``amount == 0`` returns ``self`` — the ε=0 join path extends at
        every level of the descent and must not allocate fresh arrays for
        a no-op.
        """
        if amount < 0:
            raise ValueError(f"extension amount must be non-negative, got {amount}")
        if amount == 0:
            return self
        return BoxArray(self.lo - amount, self.hi + amount, validate=False)

    def intersects_matrix(self, other: "BoxArray") -> np.ndarray:
        """``(n, m)`` boolean: does box ``i`` intersect ``other``'s box ``j``?"""
        return np.logical_and(
            np.all(self.lo[:, None, :] <= other.hi[None, :, :], axis=2),
            np.all(other.lo[None, :, :] <= self.hi[:, None, :], axis=2),
        )

    def min_dist_matrix(self, other: "BoxArray", p: float = 2.0) -> np.ndarray:
        """``(n, m)`` pairwise minimum L_p distances between box pairs.

        The batched form of :meth:`Rect.min_dist` — the lower-bounding
        box-distance predictor over whole candidate blocks.
        """
        gap = np.maximum(
            np.maximum(
                other.lo[None, :, :] - self.hi[:, None, :],
                self.lo[:, None, :] - other.hi[None, :, :],
            ),
            0.0,
        )
        if np.isinf(p):
            return gap.max(axis=2, initial=0.0)
        return np.sum(gap**p, axis=2) ** (1.0 / p)


def as_box_array(boxes: "BoxArray | Iterable[Rect]") -> BoxArray:
    """Coerce a ``BoxArray`` or any iterable of ``Rect`` to a ``BoxArray``."""
    if isinstance(boxes, BoxArray):
        return boxes
    return BoxArray.from_rects(list(boxes))
