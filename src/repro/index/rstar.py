"""STR-packed R-tree over point/spatial data, with leaf-per-page extraction.

The join paper assumes "the datasets are indexed prior to join operation"
and that "the data objects are sorted so that the contents of each leaf
level MBR appear contiguously on disk" (Section 5.1).
:func:`build_spatial_page_index` performs exactly that and returns the
permutation that makes each leaf's objects contiguous plus the page
index over them.  It is a Sort-Tile-Recursive bulk load built from
arrays: it orders the points, boxes each run of ``page_capacity``
consecutive points as one page, and packs those boxes ``page_capacity``
at a time per level — the packed R-tree an STR bulk load produces, built
by the same two routines every other index uses
(:mod:`repro.index._grouping`).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.index._grouping import page_boxes
from repro.index.node import PageIndex

__all__ = ["build_spatial_page_index"]


def _str_order(points: np.ndarray, leaf_capacity: int) -> np.ndarray:
    """Tiling order of point indices for packed bulk loading.

    Recursive binary tiling: split at the median of the widest-spread
    dimension, recurse into both halves (a kd-style variant of
    Sort-Tile-Recursive).  Unlike classic per-dimension slabs, this stays
    effective in high dimensions — with tens of dimensions a slab pass per
    dimension never executes, whereas widest-spread median splits isolate
    the data's actual cluster structure, keeping leaf MBRs tight in every
    dimension that matters.
    """
    n, dim = points.shape

    def recurse(indices: np.ndarray) -> np.ndarray:
        if len(indices) <= leaf_capacity:
            return indices
        spreads = points[indices].max(axis=0) - points[indices].min(axis=0)
        axis = int(np.argmax(spreads))
        ordered = indices[np.argsort(points[indices, axis], kind="stable")]
        # Split on a leaf-capacity boundary so only the last leaf is ragged.
        leaves = math.ceil(len(indices) / leaf_capacity)
        half = (leaves // 2) * leaf_capacity
        if half == 0:
            half = leaf_capacity
        return np.concatenate([recurse(ordered[:half]), recurse(ordered[half:])])

    return recurse(np.arange(n, dtype=np.int64))


def build_spatial_page_index(
    vectors: np.ndarray, page_capacity: int
) -> Tuple[PageIndex, np.ndarray]:
    """Index a point dataset and reorder it for leaf-contiguous disk layout.

    Parameters
    ----------
    vectors:
        ``(n, d)`` point data.
    page_capacity:
        Objects per page = R-tree leaf capacity, and the fanout of the
        levels above.

    Returns
    -------
    (page_index, reordered_vectors):
        ``reordered_vectors[k] == vectors[page_index.order[k]]``; page ``i``
        covers rows ``page_offsets[i]..page_offsets[i+1]`` of the reordered
        array and its MBR is row ``i`` of ``page_index.leaf_bounds()``.
    """
    pts = np.asarray(vectors, dtype=np.float64)
    if pts.ndim != 2 or 0 in pts.shape:
        raise ValueError(
            f"points must be a non-empty (n, d) array with d >= 1, got shape {pts.shape}"
        )
    if page_capacity < 4:
        raise ValueError(f"page_capacity must be at least 4, got {page_capacity}")
    order = _str_order(pts, page_capacity)
    reordered = pts[order]
    # _str_order splits only on capacity boundaries: every page is full
    # except the last.
    offsets = np.append(np.arange(0, len(order), page_capacity), len(order))
    page_index = PageIndex.pack(
        page_boxes(reordered, offsets[:-1]), page_capacity, order, offsets
    )
    return page_index, reordered
