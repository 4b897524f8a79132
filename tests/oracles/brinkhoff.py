"""The Brinkhoff et al. node-pair filter, kept as a baseline for tests.

It keeps every child meeting the intersection of the two parents' MBRs.
The paper's iterative filter is never weaker: its ``B_RS`` lies inside
that intersection, so one round of ``repro.core.filtering.iterative_filter``
keeps a subset of what this keeps.  ``tests/core/test_filtering.py``
checks exactly that.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.filtering import FilterOutcome, _empty_outcome
from repro.geometry import BoxArray, Rect, as_box_array

__all__ = ["brinkhoff_filter"]


def brinkhoff_filter(
    left: "BoxArray | Iterable[Rect]",
    right: "BoxArray | Iterable[Rect]",
    cover_left: Optional[Rect] = None,
    cover_right: Optional[Rect] = None,
) -> FilterOutcome:
    """Keep the children meeting ``cover(left) ∩ cover(right)``.

    ``cover_left``/``cover_right`` are optional exact unions of the
    inputs, as for ``iterative_filter``.
    """
    boxes_left = as_box_array(left)
    boxes_right = as_box_array(right)
    n_left, n_right = len(boxes_left), len(boxes_right)
    if n_left == 0 or n_right == 0:
        return _empty_outcome(n_left, n_right, rounds=0)
    lo_l, hi_l = _cover(boxes_left, cover_left)
    lo_r, hi_r = _cover(boxes_right, cover_right)
    i_lo = np.maximum(lo_l, lo_r)
    i_hi = np.minimum(hi_l, hi_r)
    if np.any(i_lo > i_hi):
        return _empty_outcome(n_left, n_right, rounds=1)
    return FilterOutcome(
        keep_left=_meets(boxes_left, i_lo, i_hi),
        keep_right=_meets(boxes_right, i_lo, i_hi),
        rounds=1,
    )


def _cover(boxes: BoxArray, cover: Optional[Rect]):
    if cover is not None:
        return cover.lo, cover.hi
    return boxes.lo.min(axis=0), boxes.hi.max(axis=0)


def _meets(boxes: BoxArray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.all(boxes.lo <= hi, axis=1) & np.all(lo <= boxes.hi, axis=1)
