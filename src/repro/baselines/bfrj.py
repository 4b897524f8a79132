"""Breadth-first R-tree join — BFRJ (Huang, Jing, Rundensteiner; VLDB'97).

BFRJ descends two MBR hierarchies level by level, materialising at each
level the *intermediate join index* — the list of node pairs whose
ε/2-extended boxes intersect — and globally ordering it before the next
level, which makes index-page accesses mostly sequential.  Nodes are the
rows of the :class:`~repro.index.node.PageIndex` levels, numbered
breadth-first (:meth:`~repro.index.node.PageIndex.first_node_id`), and
each level of the join index is a pair of node-id arrays.

The intermediate join index is BFRJ's Achilles heel: it must stay resident
while a level is processed, so it competes with data pages for buffer
frames (modelled here via :meth:`BufferPool.reserve`).  When the join
index alone cannot fit, BFRJ is infeasible —
:class:`~repro.errors.InfeasibleBufferError` — which is why Figure 13(a)
has no BFRJ points below 200 buffer pages.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter
from typing import Tuple

import numpy as np

from repro.core.executor import ExecutionOutcome
from repro.costmodel import CostModel
from repro.errors import InfeasibleBufferError
from repro.index.node import PageIndex
from repro.storage.buffer import BufferPool

__all__ = ["bfrj_join"]

# Entries of the intermediate join index packed per page (two node ids and
# bookkeeping per entry; 4 KB page / ~16 B per entry).
_PAIRS_PER_PAGE = 256


def bfrj_join(
    r,  # IndexedDataset
    s,  # IndexedDataset
    epsilon: float,
    pool: BufferPool,
    joiner,
    cost_model: CostModel,
    self_join: bool,
    pairs_per_page: int = _PAIRS_PER_PAGE,
) -> Tuple[ExecutionOutcome, float, dict]:
    """Run BFRJ; returns (outcome, preprocess seconds, extra report fields).

    Raises
    ------
    InfeasibleBufferError:
        When any level's intermediate join index cannot fit the buffer.
    """
    outcome = ExecutionOutcome()
    disk = pool.disk
    half = epsilon / 2.0

    extent_r = _place_index(disk, r)
    extent_s = extent_r if self_join else _place_index(disk, s)
    tree_r = _Nodes(r.index, half)
    tree_s = tree_r if self_join else _Nodes(s.index, half)

    # The intermediate join index, unique and sorted; it starts at the
    # two roots, whose id is 0.
    root = np.zeros(1, dtype=np.int64)
    pairs_r, pairs_s = tree_r.intersecting(tree_s, root, root)
    tests = 1

    max_join_index_pages = 0
    while pairs_r.size and (tree_r.internal(pairs_r).size or tree_s.internal(pairs_s).size):
        frames = _join_index_frames(pairs_r.size, pairs_per_page)
        max_join_index_pages = max(max_join_index_pages, frames)
        if frames >= pool.capacity - 1:
            raise InfeasibleBufferError(
                f"BFRJ join index needs {frames} pages; buffer holds "
                f"{pool.capacity}"
            )
        pool.reserve(frames)

        _charge_node_reads(
            disk,
            (extent_r, tree_r.internal(pairs_r)),
            (extent_s, tree_s.internal(pairs_s)),
            self_join,
        )

        child_r, child_s = _child_products(tree_r, pairs_r, tree_s, pairs_s)
        tests += child_r.size
        pairs_r, pairs_s = tree_r.intersecting(tree_s, child_r, child_s)
        if self_join:
            # Keep each symmetric node pair once, smaller id first.
            pairs_r, pairs_s = np.minimum(pairs_r, pairs_s), np.maximum(pairs_r, pairs_s)
        key = np.unique(pairs_r * tree_s.num_nodes + pairs_s)
        pairs_r, pairs_s = key // tree_s.num_nodes, key % tree_s.num_nodes

    # Leaf phase: join the surviving page pairs in globally sorted order,
    # one joiner call per R page after its pairs' fetches.
    pages_r = (pairs_r - tree_r.first_leaf).tolist()
    leaf_pairs = list(zip(pages_r, (pairs_s - tree_s.first_leaf).tolist()))
    frames = _join_index_frames(len(leaf_pairs), pairs_per_page)
    max_join_index_pages = max(max_join_index_pages, frames)
    if frames >= pool.capacity - 1:
        raise InfeasibleBufferError(
            f"BFRJ leaf join index needs {frames} pages; buffer holds "
            f"{pool.capacity}"
        )
    pool.reserve(frames)
    try:
        r_id, s_id = r.paged.dataset_id, s.paged.dataset_id
        for _page_r, group in groupby(leaf_pairs, key=itemgetter(0)):
            entries = list(group)
            for page_r, page_s in entries:
                pool.fetch(r_id, page_r)
                pool.fetch(s_id, page_s)
            outcome.absorb(joiner.join_cluster(entries))
    finally:
        pool.reserve(0)

    outcome.pages_read = disk.stats.transfers
    preprocess = cost_model.cpu_cost(tests + _nlogn(max(len(leaf_pairs), 1)))
    extra = {
        "bfrj_intersection_tests": tests,
        "bfrj_leaf_pairs": len(leaf_pairs),
        "bfrj_join_index_pages": max_join_index_pages,
    }
    return outcome, preprocess, extra


class _Nodes:
    """A page index's nodes by breadth-first id, as flat arrays.

    BFS visits each level's rows in order, root first, so the ids run
    level by level and the leaves (pages) take the last ``num_pages``
    ids.  Boxes are stored ε/2-extended; a leaf's "children" are itself,
    so a leaf paired with an internal node waits while the other side
    descends.
    """

    def __init__(self, index: PageIndex, half_epsilon: float) -> None:
        top_down = index.levels[::-1]
        self.lo = np.concatenate([level.lo for level in top_down]) - half_epsilon
        self.hi = np.concatenate([level.hi for level in top_down]) + half_epsilon
        self.num_nodes = len(self.lo)
        self.first_leaf = index.first_node_id(0)
        starts, stops = [], []
        for level in range(index.height, 0, -1):
            first_child = index.first_node_id(level - 1)
            start, stop = index.children(level, np.arange(len(index.levels[level])))
            starts.append(first_child + start)
            stops.append(first_child + stop)
        leaves = np.arange(self.first_leaf, self.num_nodes)
        self.child_start = np.concatenate(starts + [leaves])
        self.child_stop = np.concatenate(stops + [leaves + 1])

    def internal(self, ids: np.ndarray) -> np.ndarray:
        """The ids in ``ids`` that are internal nodes, not pages."""
        return ids[ids < self.first_leaf]

    def intersecting(
        self, other: "_Nodes", ids: np.ndarray, other_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(ids, other_ids)`` pairs whose extended boxes intersect."""
        hit = np.all(self.lo[ids] <= other.hi[other_ids], axis=1) & np.all(
            other.lo[other_ids] <= self.hi[ids], axis=1
        )
        return ids[hit], other_ids[hit]


def _child_products(
    tree_r: _Nodes, pairs_r: np.ndarray, tree_s: _Nodes, pairs_s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every (child of a, child of b) for each node pair ``(a, b)``."""
    start_r = tree_r.child_start[pairs_r]
    start_s = tree_s.child_start[pairs_s]
    width_s = tree_s.child_stop[pairs_s] - start_s
    counts = (tree_r.child_stop[pairs_r] - start_r) * width_s
    owner = np.repeat(np.arange(pairs_r.size), counts)
    within = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    return (
        start_r[owner] + within // width_s[owner],
        start_s[owner] + within % width_s[owner],
    )


def _place_index(disk, dataset) -> Tuple[str, int]:
    """Give the dataset's index nodes a disk extent; returns its key."""
    key = ("rtree-index", dataset.paged.dataset_id)
    if not disk.is_placed(key):
        disk.place(key, dataset.index.num_index_nodes)
    return key


def _charge_node_reads(disk, side_r, side_s, self_join) -> None:
    """Read every distinct internal node touched at this level, sorted.

    ``side_r``/``side_s`` are (index extent key, internal node ids).  Leaf
    nodes are the data pages themselves and are charged in the leaf
    phase; internal nodes live in the index extent.
    """
    (key_r, internal_r), (key_s, internal_s) = side_r, side_s
    if self_join:
        reads = [(key_r, np.union1d(internal_r, internal_s))]
    else:
        reads = [(key_r, np.unique(internal_r)), (key_s, np.unique(internal_s))]
    for key, ids in reads:
        for node_id in ids.tolist():
            disk.read(key, node_id)


def _join_index_frames(num_pairs: int, pairs_per_page: int) -> int:
    return math.ceil(max(num_pairs, 1) / pairs_per_page)


def _nlogn(n: int) -> float:
    return n * math.log2(max(n, 2))
