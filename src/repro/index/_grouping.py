"""Page boxes and the hierarchy over them, for every page index.

Every index here lays its pages out contiguously: the R*-tree's STR build
reorders points so "the contents of each leaf level MBR appear
contiguously on disk", and MR/MRS leaf MBRs cover contiguous disk blocks
by construction ("each MBR contains a contiguous disk block", Section
5.1).  So a page's MBR is the min/max over one run of consecutive object
rows (:func:`page_boxes`), and the upper levels group runs of consecutive
pages (:func:`build_contiguous_hierarchy`).  This keeps the index
traversal order aligned with the physical layout — the property the whole
paper leans on.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.geometry import BoxArray, Rect, as_box_array
from repro.index.node import IndexNode, assign_bfs_ids

__all__ = ["build_contiguous_hierarchy", "page_boxes"]


def page_boxes(objects: np.ndarray, starts: np.ndarray) -> BoxArray:
    """MBR of every page of the ``(n, d)`` rows ``objects``.

    Page ``i`` holds rows ``starts[i]`` up to ``starts[i + 1]``; the last
    page runs to the end of ``objects``.  Every page must hold at least
    one row.
    """
    return _run_unions(objects, objects, starts)


def build_contiguous_hierarchy(leaf_boxes: Sequence[Rect], fanout: int) -> IndexNode:
    """Group consecutive page MBRs into a balanced tree of the given fanout.

    Each level groups ``fanout`` consecutive nodes of the level below
    under a parent whose box is their exact union; leaf ``i`` carries
    page number ``i``, and node ids are assigned in BFS order.
    """
    if not leaf_boxes:
        raise ValueError("cannot build a hierarchy over zero pages")
    if fanout < 2:
        raise ValueError(f"fanout must be at least 2, got {fanout}")
    nodes: List[IndexNode] = [
        IndexNode(box=box, page_no=page_no, level=0)
        for page_no, box in enumerate(leaf_boxes)
    ]
    bounds = as_box_array(leaf_boxes)
    level = 0
    while len(nodes) > 1:
        level += 1
        starts = np.arange(0, len(nodes), fanout)
        bounds = _run_unions(bounds.lo, bounds.hi, starts)
        nodes = [
            IndexNode(
                box=bounds.rect(k),
                children=nodes[start : start + fanout],
                level=level,
            )
            for k, start in enumerate(starts.tolist())
        ]
    assign_bfs_ids(nodes[0])
    return nodes[0]


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
