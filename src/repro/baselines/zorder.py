"""Z-order sort-merge join (Orenstein, SIGMOD'86) — extra baseline.

Orenstein's spatial join maps objects onto a space-filling Z-curve
(Morton order), sorts the data in that order, and merges.  For an
ε-distance join over points the adaptation is: quantise coordinates to an
ε-grid, interleave the cell bits into a Morton code, physically re-sort
both datasets by code, and join page pairs whose MBRs pass the
lower-bound distance test, reading them in Z-order through the buffer.

Like EGO this pays a re-sort and gains locality from the curve; unlike
EGO it has no one-dimensional candidate interval (Z-order neighbours are
not contiguous in code space), so every page-pair box test runs — cheap
CPU, and the read pattern is what matters.  Cited in the paper's related
work (Section 2.1); not part of its evaluation.  Point data only.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.baselines.ego import _join_sorted_pages, _nlogn, _sorted_copy
from repro.core.executor import ExecutionOutcome
from repro.costmodel import CostModel
from repro.storage.buffer import BufferPool

__all__ = ["zorder_join", "morton_codes"]

_MAX_TOTAL_BITS = 60


def morton_codes(points: np.ndarray, cell: float) -> np.ndarray:
    """Morton (bit-interleaved) codes of points quantised to ``cell`` width.

    Bits per dimension are capped so the full code fits 60 bits; ties in
    code order are harmless (they only affect layout, not correctness).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got {pts.shape}")
    if cell <= 0:
        raise ValueError(f"cell width must be positive, got {cell}")
    dim = pts.shape[1]
    bits = max(1, _MAX_TOTAL_BITS // dim)
    cells = np.floor((pts - pts.min(axis=0)) / cell).astype(np.uint64)
    cells = np.minimum(cells, np.uint64(2**bits - 1))
    codes = np.zeros(pts.shape[0], dtype=np.uint64)
    for bit in range(bits):
        for axis in range(dim):
            codes |= ((cells[:, axis] >> np.uint64(bit)) & np.uint64(1)) << np.uint64(
                bit * dim + axis
            )
    return codes


def zorder_join(
    r,  # IndexedDataset (kind == "vector")
    s,  # IndexedDataset (kind == "vector")
    epsilon: float,
    pool: BufferPool,
    cost_model: CostModel,
    self_join: bool,
    collect_pairs: bool = True,
) -> Tuple[ExecutionOutcome, float, dict]:
    """Run the Z-order join; returns (outcome, preprocess seconds, extras)."""
    if r.kind != "vector":
        raise TypeError("the Z-order join handles point data only")
    outcome = ExecutionOutcome()
    disk = pool.disk
    cell = epsilon if epsilon > 0 else 1.0

    order_r = _zorder(r.paged.vectors, cell)
    z_r, boxes_r, passes = _sorted_copy(r, order_r, pool, "z-r")
    if self_join:
        z_s, boxes_s, order_s = z_r, boxes_r, order_r
    else:
        order_s = _zorder(s.paged.vectors, cell)
        z_s, boxes_s, _ = _sorted_copy(s, order_s, pool, "z-s")
    assert r.distance is not None
    distance = r.distance
    box_tests = 0
    pool.reserve(1)
    try:
        for i, box_i in enumerate(boxes_r):
            disk.read(z_r.dataset_id, i)
            outer = z_r.page_objects(i)
            outcome.pages_read += 1
            j_start = i if self_join else 0
            for j in range(j_start, len(boxes_s)):
                box_tests += 1
                if box_i.min_dist(boxes_s[j], p=distance.p) > epsilon:
                    continue
                inner = pool.fetch(z_s.dataset_id, j)
                outcome.absorb(_join_sorted_pages(
                    distance, epsilon, cost_model,
                    outer, inner, z_r, z_s, order_r, order_s, i, j,
                    self_join, collect_pairs,
                ))
    finally:
        pool.reserve(0)

    preprocess = cost_model.cpu_cost(
        _nlogn(r.num_objects)
        + (0 if self_join else _nlogn(s.num_objects))
        + box_tests
    )
    return outcome, preprocess, {"zorder_sort_passes": passes, "zorder_box_tests": box_tests}


def _zorder(vectors: np.ndarray, cell: float) -> np.ndarray:
    """Row order of ``vectors`` along the Morton curve of their ε-grid cells."""
    return np.argsort(morton_codes(vectors, cell), kind="stable")
