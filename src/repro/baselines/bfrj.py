"""Breadth-first R-tree join — BFRJ (Huang, Jing, Rundensteiner; VLDB'97).

BFRJ descends two MBR hierarchies level by level, materialising at each
level the *intermediate join index* — the list of node pairs whose
ε/2-extended boxes intersect — and globally ordering it before the next
level, which makes index-page accesses mostly sequential.

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
from typing import Dict, List, Tuple

from repro.core.executor import ExecutionOutcome
from repro.costmodel import CostModel
from repro.errors import InfeasibleBufferError
from repro.index.node import IndexNode
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

    index_r = _place_index(disk, r)
    index_s = index_r if self_join else _place_index(disk, s)

    root_r, root_s = r.index.root, s.index.root
    tests = 1
    pairs: List[Tuple[IndexNode, IndexNode]] = []
    if root_r.box.extend(half).intersects(root_s.box.extend(half)):
        pairs = [_canonical(root_r, root_s, self_join)]

    max_join_index_pages = 0
    while pairs and any(not a.is_leaf or not b.is_leaf for a, b in pairs):
        frames = _join_index_frames(len(pairs), pairs_per_page)
        max_join_index_pages = max(max_join_index_pages, frames)
        if frames >= pool.capacity - 1:
            raise InfeasibleBufferError(
                f"BFRJ join index needs {frames} pages; buffer holds "
                f"{pool.capacity}"
            )
        pool.reserve(frames)

        _charge_node_reads(disk, pairs, index_r, index_s, self_join)

        next_level: Dict[Tuple[int, int], Tuple[IndexNode, IndexNode]] = {}
        for node_r, node_s in pairs:
            children_r = node_r.children if node_r.children else [node_r]
            children_s = node_s.children if node_s.children else [node_s]
            for child_r in children_r:
                extended = child_r.box.extend(half)
                for child_s in children_s:
                    tests += 1
                    if extended.intersects(child_s.box.extend(half)):
                        pair = _canonical(child_r, child_s, self_join)
                        next_level[(pair[0].node_id, pair[1].node_id)] = pair
        pairs = [next_level[key] for key in sorted(next_level)]

    # Leaf phase: join the surviving page pairs in globally sorted order,
    # one joiner call per R page after its pairs' fetches.
    leaf_pairs = sorted(
        {(a.page_no, b.page_no) for a, b in pairs}  # type: ignore[misc]
    )
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


def _canonical(
    a: IndexNode, b: IndexNode, self_join: bool
) -> Tuple[IndexNode, IndexNode]:
    """Self joins keep each symmetric node pair once (by node id)."""
    if self_join and a.node_id > b.node_id:
        return b, a
    return a, b


def _place_index(disk, dataset) -> Tuple[str, int]:
    """Give the dataset's index nodes a disk extent; returns its key."""
    key = ("rtree-index", dataset.paged.dataset_id)
    if not disk.is_placed(key):
        disk.place(key, dataset.index.num_index_nodes)
    return key


def _charge_node_reads(disk, pairs, index_r, index_s, self_join) -> None:
    """Read every distinct internal node touched at this level, sorted.

    Leaf nodes are the data pages themselves and are charged in the leaf
    phase; internal nodes live in the index extent.
    """
    if self_join:
        node_ids = sorted(
            {a.node_id for a, _b in pairs if not a.is_leaf}
            | {b.node_id for _a, b in pairs if not b.is_leaf}
        )
        for node_id in node_ids:
            disk.read(index_r, node_id)
        return
    for key, ids in (
        (index_r, sorted({a.node_id for a, _b in pairs if not a.is_leaf})),
        (index_s, sorted({b.node_id for _a, b in pairs if not b.is_leaf})),
    ):
        for node_id in ids:
            disk.read(key, node_id)


def _join_index_frames(num_pairs: int, pairs_per_page: int) -> int:
    return math.ceil(max(num_pairs, 1) / pairs_per_page)


def _nlogn(n: int) -> float:
    return n * math.log2(max(n, 2))
