"""Epsilon grid ordering — EGO (Böhm, Braunmüller, Krebs, Kriegel; SIGMOD'01).

EGO overlays an ε-grid on the data space, orders objects by the
lexicographic order of their grid cells, physically re-sorts the dataset
into that order, and then joins with a near-diagonal scan: an object can
only match objects whose first-dimension cell differs by at most one, so
candidates form a contiguous run of the sorted file.

Two properties the paper exploits:

* the re-sort is an *extra* cost (external sort passes over the data);
* **sequence data cannot be re-sorted** — overlapping windows pin the
  layout (Section 3).  For text/series datasets this implementation keeps
  the physical order and processes pages in *logical* EGO order instead,
  which turns the scan's page accesses into random seeks.  This is exactly
  the degradation Figure 13(c) shows.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.core.executor import ExecutionOutcome
from repro.core.joiners import ClusterResult
from repro.costmodel import CostModel
from repro.geometry import BoxArray, Rect
from repro.index._grouping import page_boxes
from repro.kernels.minkowski import minkowski_pair_arrays
from repro.storage.buffer import BufferPool
from repro.storage.page import VectorPagedDataset

__all__ = ["ego_join"]


def ego_join(
    r,  # IndexedDataset
    s,  # IndexedDataset
    epsilon: float,
    pool: BufferPool,
    joiner,
    cost_model: CostModel,
    self_join: bool,
    collect_pairs: bool = True,
) -> Tuple[ExecutionOutcome, float, dict]:
    """Run EGO; returns (outcome, preprocess seconds, extra report fields)."""
    if r.kind == "vector":
        return _ego_reorderable(
            r, s, epsilon, pool, cost_model, self_join, collect_pairs
        )
    return _ego_sequence(r, s, epsilon, pool, joiner, cost_model, self_join)


# -- reorderable (point/spatial) path -------------------------------------------


def _ego_reorderable(r, s, epsilon, pool, cost_model, self_join, collect_pairs):
    outcome = ExecutionOutcome()
    disk = pool.disk
    cell = epsilon if epsilon > 0 else 1.0

    order_r = _grid_order(r.paged.vectors, cell)
    ego_r, boxes_r, passes = _sorted_copy(r, order_r, pool, "ego-r")
    if self_join:
        ego_s, boxes_s, order_s = ego_r, boxes_r, order_r
    else:
        order_s = _grid_order(s.paged.vectors, cell)
        ego_s, boxes_s, _ = _sorted_copy(s, order_s, pool, "ego-s")
    hi_max_s, lo_min_s = _window_keys(boxes_s)

    assert r.distance is not None
    p_norm = r.distance.p
    pool.reserve(1)  # the streamed outer page occupies one frame
    try:
        for i, box_i in enumerate(boxes_r):
            disk.read(ego_r.dataset_id, i)
            outer = ego_r.page_objects(i)
            outcome.pages_read += 1
            for j in _window(hi_max_s, lo_min_s, box_i, epsilon):
                if self_join and j < i:
                    continue
                if box_i.min_dist(boxes_s[j], p=p_norm) > epsilon:
                    continue
                was_hit = pool.contains(ego_s.dataset_id, j)
                inner = pool.fetch(ego_s.dataset_id, j)
                if was_hit:
                    outcome.pages_reused += 1
                else:
                    outcome.pages_read += 1
                outcome.absorb(_join_sorted_pages(
                    r.distance, epsilon, cost_model,
                    outer, inner, ego_r, ego_s, order_r, order_s, i, j,
                    self_join, collect_pairs,
                ))
    finally:
        pool.reserve(0)

    preprocess = cost_model.cpu_cost(
        _nlogn(r.num_objects) + (0 if self_join else _nlogn(s.num_objects))
    )
    return outcome, preprocess, {"ego_sort_passes": passes}


def _grid_order(vectors: np.ndarray, cell: float) -> np.ndarray:
    """Row order of ``vectors`` by the lexicographic order of their ε-grid cells."""
    cells = np.floor(vectors / cell).astype(np.int64)
    return np.lexsort(tuple(cells[:, dim] for dim in reversed(range(cells.shape[1]))))


def _sorted_copy(dataset, order, pool, tag) -> Tuple[VectorPagedDataset, BoxArray, int]:
    """``dataset`` re-sorted into ``order`` by an external sort.

    Returns the sorted copy (attached to ``pool``, with the original's
    average page fill), its page boxes and the sort's merge passes.  Each
    pass reads and writes the whole file once, as one stream each, and
    that is charged to the pool's disk.  Z-order shares this with EGO;
    the two differ only in the sort order.
    """
    vectors = dataset.paged.vectors
    per_page = math.ceil(vectors.shape[0] / dataset.num_pages)
    copy = VectorPagedDataset(
        vectors[order],
        objects_per_page=per_page,
        dataset_id=f"{dataset.paged.dataset_id}-{tag}",
    )
    pool.attach(copy)
    passes = _sort_passes(dataset.num_pages, pool.capacity)
    pool.disk.charge_stream(2 * dataset.num_pages * passes, 2 * passes)
    return copy, page_boxes(copy.vectors, copy.page_offsets[:-1]), passes


def _join_sorted_pages(
    distance, epsilon, cost_model,
    outer, inner, ego_r, ego_s, order_r, order_s, i, j,
    self_join, collect_pairs,
) -> ClusterResult:
    """Join page ``i`` of the sorted R copy with page ``j`` of the S copy.

    Pairs are reported in the original datasets' ids (``order_*`` maps a
    sorted row back), as one single-entry cluster result.
    """
    a, b = minkowski_pair_arrays(outer, inner, epsilon, distance.p)
    comparisons = len(outer) * len(inner)
    if self_join and i == j:
        # Diagonal page pair: keep each unordered pair once, drop self
        # matches (the payload is compared against itself).
        keep = a < b
        a, b = a[keep], b[keep]
    gid_r = order_r[ego_r.page_offsets[i] + a]
    gid_s = order_s[ego_s.page_offsets[j] + b]
    if self_join:
        # The sorted copy permutes ids, so order each pair canonically to
        # match the other methods' (small, large) convention.
        gid_r, gid_s = np.minimum(gid_r, gid_s), np.maximum(gid_r, gid_s)
    return ClusterResult.from_columns(
        gid_r, gid_s, [gid_r.shape[0]], [comparisons],
        [cost_model.cpu_cost(comparisons, distance.comparison_weight)],
        collect_pairs,
    )


# -- non-reorderable (sequence) path ---------------------------------------------


def _ego_sequence(r, s, epsilon, pool, joiner, cost_model, self_join):
    """EGO over pages in logical ε-grid order; physical layout untouched."""
    outcome = ExecutionOutcome()
    cell = epsilon if epsilon > 0 else 1.0
    boxes_r = r.index.leaf_bounds()
    boxes_s = boxes_r if self_join else s.index.leaf_bounds()
    # L∞ on the index's leaf boxes is the universally valid page test:
    # for text the boxes live in frequency space (L∞ <= FD <= ED), and for
    # DTW series the boxes are already envelope-widened.
    p_norm = getattr(r.distance, "p", float("inf")) if r.kind == "series" else float("inf")

    order_r = _ego_page_order(boxes_r, cell)
    # Candidate windows over the S pages sorted by their own EGO order.
    order_s = order_r if self_join else _ego_page_order(boxes_s, cell)
    hi_max_s, lo_min_s = _window_keys(boxes_s[order_s])
    ego_order_s = order_s.tolist()

    for i in order_r.tolist():
        box_i = boxes_r[i]
        pool.fetch(r.paged.dataset_id, i)
        entries = []
        for pos in _window(hi_max_s, lo_min_s, box_i, epsilon):
            j = ego_order_s[pos]
            if self_join and j < i:
                continue
            if box_i.min_dist(boxes_s[j], p=p_norm) > epsilon:
                continue
            pool.fetch(s.paged.dataset_id, j)
            entries.append((i, j))
        if entries:
            outcome.absorb(joiner.join_cluster(entries))
    outcome.pages_read = pool.disk.stats.transfers
    preprocess = cost_model.cpu_cost(
        _nlogn(len(boxes_r)) + (0 if self_join else _nlogn(len(boxes_s)))
    )
    return outcome, preprocess, {"ego_logical_order": True}


def _ego_page_order(boxes: BoxArray, cell: float) -> np.ndarray:
    centers = (boxes.lo + boxes.hi) / 2.0
    cells = np.floor(centers / cell).astype(np.int64)
    return np.lexsort(tuple(cells[:, dim] for dim in reversed(range(cells.shape[1]))))


# -- shared helpers --------------------------------------------------------------


def _window_keys(boxes: BoxArray) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted scan-window keys over pages in scan order: ``(hi_max, lo_min)``.

    ``hi_max[k]`` is the largest ``hi[0]`` of pages ``0..k`` and
    ``lo_min[k]`` the smallest ``lo[0]`` of pages ``k..``.  The scan order
    sorts pages by grid cell, not by ``lo[0]`` or ``hi[0]``, so neither
    bound is sorted along it; these two keys are, in any order.
    """
    lo, hi = boxes.lo[:, 0], boxes.hi[:, 0]
    return np.maximum.accumulate(hi), np.minimum.accumulate(lo[::-1])[::-1]


def _window(hi_max: np.ndarray, lo_min: np.ndarray, box: Rect, epsilon: float) -> range:
    """Scan positions of the pages that may lie within ``epsilon`` of ``box``.

    Every page before the window ends left of ``box.lo[0] − ε`` and every
    page after it starts right of ``box.hi[0] + ε``: their first-dimension
    gap alone exceeds ``epsilon`` under any L_p norm.
    """
    start = int(np.searchsorted(hi_max, float(box.lo[0]) - epsilon))
    end = int(np.searchsorted(lo_min, float(box.hi[0]) + epsilon, side="right"))
    return range(start, end)


def _sort_passes(num_pages: int, buffer_pages: int) -> int:
    """Merge passes of an external sort with B buffer pages."""
    if num_pages <= buffer_pages:
        return 1
    fan_in = max(2, buffer_pages - 1)
    runs = math.ceil(num_pages / buffer_pages)
    return 1 + max(1, math.ceil(math.log(runs, fan_in)))


def _nlogn(n: int) -> float:
    return n * math.log2(max(n, 2))
