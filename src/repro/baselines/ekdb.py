"""ε-kdB tree join (Shim, Srikant, Agrawal; TKDE 2002) — extra baseline.

The ε-kdB tree recursively splits the space into tiles of width ε, one
dimension per level; a join matches each leaf tile against itself and its
adjacent siblings, so two points within ε always land in tiles that are
neighbours (±1) in every split dimension.

The paper under reproduction cites this structure as the
index-based state of the art for high-dimensional *point* joins
(Section 2.2) but does not evaluate it; it is included here as an
optional extra baseline.  Points only — sequence data cannot even be
assigned to tiles without materialising every window.

I/O accounting: the tree is built in memory from one sequential scan of
the dataset; the join then walks tiles in lexicographic order and pulls
the data pages of each candidate tile pair through the LRU buffer.  Tile
order correlates with page order only loosely (pages are R-tree leaf
ordered), so the walk pays scattered reads — the structural reason
tile-based joins lose to page-aware clustering on buffer-starved
configurations.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import product
from typing import Dict, List, Tuple

import numpy as np

from repro.core.executor import ExecutionOutcome
from repro.core.joiners import ClusterResult
from repro.costmodel import CostModel
from repro.kernels.minkowski import minkowski_pair_arrays
from repro.storage.buffer import BufferPool

__all__ = ["ekdb_join"]

# The real structure stops splitting when a node's population is small;
# capping split depth also keeps the neighbour enumeration (3^depth)
# tractable in high dimensions.
_MAX_SPLIT_DEPTH = 4

Cell = Tuple[int, ...]


def ekdb_join(
    r,  # IndexedDataset (kind == "vector")
    s,  # IndexedDataset (kind == "vector")
    epsilon: float,
    pool: BufferPool,
    cost_model: CostModel,
    self_join: bool,
    collect_pairs: bool = True,
    max_depth: int = _MAX_SPLIT_DEPTH,
) -> Tuple[ExecutionOutcome, float, dict]:
    """Run the ε-kdB join; returns (outcome, preprocess seconds, extras)."""
    if r.kind != "vector":
        raise TypeError("the epsilon-kdB tree joins point data only")
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    outcome = ExecutionOutcome()
    disk = pool.disk
    width = epsilon if epsilon > 0 else 1.0
    depth = min(max_depth, r.paged.vectors.shape[1])

    # Build both trees from one sequential scan each.
    cells_r = _assign_cells(r.paged.vectors, width, depth)
    disk.charge_stream(r.num_pages, 1)
    if self_join:
        cells_s = cells_r
    else:
        cells_s = _assign_cells(s.paged.vectors, width, depth)
        disk.charge_stream(s.num_pages, 1)
    build_ops = r.num_objects + (0 if self_join else s.num_objects)

    tiles_r = _group_by_cell(cells_r)
    tiles_s = tiles_r if self_join else _group_by_cell(cells_s)

    assert r.distance is not None
    distance = r.distance
    r_id, s_id = r.paged.dataset_id, s.paged.dataset_id
    checked_tile_pairs = 0

    for cell in sorted(tiles_r):
        members_r = tiles_r[cell]
        for neighbour in _neighbours(cell):
            members_s = tiles_s.get(neighbour)
            if not members_s:
                continue
            if self_join and neighbour < cell:
                continue  # each unordered tile pair once
            checked_tile_pairs += 1
            outcome.absorb(_join_tiles(
                members_r, members_s, r, s, pool, distance, epsilon,
                cost_model, self_join,
                same_tile=self_join and neighbour == cell,
                collect_pairs=collect_pairs,
            ))

    outcome.pages_read = disk.stats.transfers
    preprocess = cost_model.cpu_cost(build_ops + checked_tile_pairs)
    extra = {
        "ekdb_tiles": len(tiles_r),
        "ekdb_tile_pairs": checked_tile_pairs,
        "ekdb_depth": depth,
    }
    return outcome, preprocess, extra


def _assign_cells(vectors: np.ndarray, width: float, depth: int) -> np.ndarray:
    """Tile coordinates of every point over the first ``depth`` dimensions."""
    return np.floor(vectors[:, :depth] / width).astype(np.int64)


def _group_by_cell(cells: np.ndarray) -> Dict[Cell, List[int]]:
    tiles: Dict[Cell, List[int]] = defaultdict(list)
    for idx, cell in enumerate(map(tuple, cells.tolist())):
        tiles[cell].append(idx)
    return tiles


def _neighbours(cell: Cell):
    """The 3^depth tile neighbourhood of a cell (including itself)."""
    deltas = product((-1, 0, 1), repeat=len(cell))
    for delta in deltas:
        yield tuple(c + d for c, d in zip(cell, delta))


def _join_tiles(
    members_r: List[int],
    members_s: List[int],
    r,
    s,
    pool: BufferPool,
    distance,
    epsilon: float,
    cost_model: CostModel,
    self_join: bool,
    same_tile: bool,
    collect_pairs: bool,
) -> ClusterResult:
    """Verify one tile pair: fetch the touched pages, compare point sets.

    Returns the tile pair as a single-entry cluster result.
    """
    vectors_r = _gather(members_r, r, pool)
    vectors_s = vectors_r if same_tile else _gather(members_s, s, pool)
    a, b = minkowski_pair_arrays(vectors_r, vectors_s, epsilon, distance.p)
    comparisons = len(members_r) * len(members_s)
    gid_r = np.asarray(members_r, dtype=np.int64)[a]
    gid_s = np.asarray(members_s, dtype=np.int64)[b]
    if same_tile:
        # Same member list on both sides: keep each unordered pair once,
        # drop self matches.
        keep = gid_r < gid_s
        gid_r, gid_s = gid_r[keep], gid_s[keep]
    elif self_join:
        # Distinct tiles meet exactly once; order canonically.
        gid_r, gid_s = np.minimum(gid_r, gid_s), np.maximum(gid_r, gid_s)
    return ClusterResult.from_columns(
        gid_r, gid_s, [gid_r.shape[0]], [comparisons],
        [cost_model.cpu_cost(comparisons, distance.comparison_weight)],
        collect_pairs,
    )


def _gather(members: List[int], dataset, pool: BufferPool) -> np.ndarray:
    """Fetch the members' pages through the buffer and stack their vectors."""
    paged = dataset.paged
    by_page: Dict[int, List[int]] = defaultdict(list)
    for gid in members:
        by_page[paged.page_of_object(gid)].append(gid)
    rows: List[np.ndarray] = []
    for page_no in sorted(by_page):
        payload = pool.fetch(paged.dataset_id, page_no)
        start, _stop = paged.page_slice(page_no)
        for gid in by_page[page_no]:
            rows.append(payload[gid - start])
    return np.asarray(rows)