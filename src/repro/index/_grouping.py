"""Page boxes and the hierarchy over them, for every page index.

Every index here lays its pages out contiguously: the STR build reorders
points so "the contents of each leaf level MBR appear contiguously on
disk", and MR/MRS leaf MBRs cover contiguous disk blocks by construction
("each MBR contains a contiguous disk block", Section 5.1).  So a page's
MBR is the min/max over one run of consecutive object rows
(:func:`page_boxes`), and the upper levels group runs of consecutive
pages (:func:`build_contiguous_hierarchy`).  This keeps the index
traversal order aligned with the physical layout — the property the whole
paper leans on.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry import BoxArray

__all__ = ["build_contiguous_hierarchy", "page_boxes"]


def page_boxes(objects: np.ndarray, starts: np.ndarray) -> BoxArray:
    """MBR of every page of the ``(n, d)`` rows ``objects``.

    Page ``i`` holds rows ``starts[i]`` up to ``starts[i + 1]``; the last
    page runs to the end of ``objects``.  Every page must hold at least
    one row.
    """
    return _run_unions(objects, objects, starts)


def build_contiguous_hierarchy(leaf_boxes: BoxArray, fanout: int) -> List[BoxArray]:
    """Pack page MBRs into the levels of a balanced tree of the given fanout.

    Returns ``levels`` with ``levels[0] = leaf_boxes``.  Row ``k`` of each
    higher level is the exact union of rows ``k·fanout … (k+1)·fanout − 1``
    of the level below, and the last level holds the single root box.
    """
    if len(leaf_boxes) == 0:
        raise ValueError("cannot build a hierarchy over zero pages")
    if fanout < 2:
        raise ValueError(f"fanout must be at least 2, got {fanout}")
    levels = [leaf_boxes]
    while len(levels[-1]) > 1:
        below = levels[-1]
        levels.append(_run_unions(below.lo, below.hi, np.arange(0, len(below), fanout)))
    return levels


def _run_unions(lo: np.ndarray, hi: np.ndarray, starts: np.ndarray) -> BoxArray:
    """Union of the boxes ``(lo, hi)`` over each run of rows from ``starts``."""
    starts = np.asarray(starts, dtype=np.intp)
    # reduceat answers row starts[i] alone for an empty run, not an error.
    assert starts.size and starts[0] == 0, "the first page must start at row 0"
    assert np.all(starts[1:] > starts[:-1]) and starts[-1] < len(lo), (
        "every page must hold a row"
    )
    return BoxArray(
        np.minimum.reduceat(lo, starts, axis=0),
        np.maximum.reduceat(hi, starts, axis=0),
        validate=False,
    )
