"""The original scalar clustering pipeline, kept as a reference.

These are the pre-vectorisation implementations of SC (Section 7.1), CC
(Section 7.2) and the sharing-graph scheduler (Section 8), frozen
verbatim.  They are **not** used by the join path — ``repro.core.square``,
``repro.core.costcluster`` and ``repro.core.schedule`` run the CSR
work-matrix pipeline — but they serve two purposes (the same contract the
block sweep has with ``sweep_reference``):

* the equivalence suite checks that the vectorised pipeline produces
  bit-identical cluster assignments, growth order, stats counters and
  greedy schedules on random matrices;
* the clustering micro-benchmark measures the vectorised pipeline's
  speedup against these implementations, honestly, on the same inputs.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.clusters import Cluster
from repro.core.costcluster import CostClusteringStats, PageSetCost
from repro.core.prediction import PredictionMatrix
from repro.core.square import SquareClusteringStats
from repro.core.ta import threshold_argmin

__all__ = [
    "square_clustering_reference",
    "cost_clustering_reference",
    "sharing_graph_reference",
    "greedy_cluster_order_reference",
]

Edge = Tuple[int, int]

# Phase 2 stops after this many consecutive columns contribute nothing;
# chasing distant columns would violate SC's minimal-width condition.
_BARREN_COLUMN_PATIENCE_FACTOR = 1

_DEFAULT_HISTOGRAM_BINS = 32


# -- SC (frozen) ---------------------------------------------------------------


def square_clustering_reference(
    matrix: PredictionMatrix,
    buffer_pages: int,
    target_aspect: float = 1.0,
) -> Tuple[List[Cluster], SquareClusteringStats]:
    """Figure 6's SC, per-entry ``set``/``tuple`` edition."""
    if buffer_pages < 2:
        raise ValueError(f"buffer must hold at least 2 pages, got {buffer_pages}")
    if target_aspect <= 0:
        raise ValueError(f"target_aspect must be positive, got {target_aspect}")

    work = matrix.copy()
    stats = SquareClusteringStats()
    clusters: List[Cluster] = []
    target_rows = max(1, min(buffer_pages - 1, round(buffer_pages * target_aspect / (1.0 + target_aspect))))
    patience = max(1, _BARREN_COLUMN_PATIENCE_FACTOR * buffer_pages)

    while work.num_marked:
        cluster = _build_one_cluster(work, buffer_pages, target_rows, patience, stats)
        clusters.append(
            Cluster(cluster_id=len(clusters), entries=tuple(sorted(cluster)))
        )
        stats.clusters_built += 1
    return clusters, stats


def _build_one_cluster(
    work: PredictionMatrix,
    buffer_pages: int,
    target_rows: int,
    patience: int,
    stats: SquareClusteringStats,
) -> List[Tuple[int, int]]:
    marked_cols = work.marked_cols()

    # Phase 1: accumulate candidate columns until enough distinct rows.
    seen_rows: dict[int, None] = {}  # insertion-ordered distinct rows
    phase1_cols: List[int] = []
    for col in marked_cols:
        phase1_cols.append(col)
        stats.columns_scanned += 1
        for row in work.col_rows(col):
            stats.entries_scanned += 1
            seen_rows.setdefault(row, None)
        if len(seen_rows) >= target_rows:
            break
        if len(phase1_cols) + len(seen_rows) >= buffer_pages:
            break

    chosen_rows = set(sorted(seen_rows)[: min(target_rows, len(seen_rows))])

    # Entries of phase-1 columns restricted to the chosen rows.
    assigned: List[Tuple[int, int]] = []
    assigned_cols: set[int] = set()
    for col in phase1_cols:
        hits = [row for row in work.col_rows(col) if row in chosen_rows]
        stats.entries_scanned += len(hits)
        if hits:
            assigned_cols.add(col)
            assigned.extend((row, col) for row in hits)

    # Phase 1 may overshoot the buffer when its last column introduced
    # several new rows at once; shed trailing columns (larger width first)
    # until the cluster fits.  At least one column always survives because
    # chosen_rows <= target_rows <= B - 1.
    while len(chosen_rows) + len(assigned_cols) > buffer_pages:
        victim = max(assigned_cols)
        assigned_cols.remove(victim)
        assigned = [(row, col) for row, col in assigned if col != victim]
        chosen_rows = {row for row, _col in assigned}

    # Phase 2: admit further columns while the buffer has room.
    barren_streak = 0
    next_cols = (col for col in marked_cols if col > phase1_cols[-1])
    for col in next_cols:
        if len(chosen_rows) + len(assigned_cols) >= buffer_pages:
            break
        if barren_streak >= patience:
            break
        stats.columns_scanned += 1
        hits = [row for row in work.col_rows(col) if row in chosen_rows]
        stats.entries_scanned += len(hits)
        if hits:
            assigned_cols.add(col)
            assigned.extend((row, col) for row in hits)
            barren_streak = 0
        else:
            barren_streak += 1

    # A candidate row always contributed at least one phase-1 entry.
    assert assigned, "square clustering produced an empty cluster"
    for row, col in assigned:
        work.unmark(row, col)
    return assigned


# -- CC (frozen) ---------------------------------------------------------------


class _Move:
    """One rectangle expansion step (frozen scalar edition)."""

    __slots__ = ("kind", "new_bound", "added_entries")

    def __init__(self, kind: str, new_bound: int, added_entries: Tuple[Tuple[int, int], ...]) -> None:
        self.kind = kind
        self.new_bound = new_bound
        self.added_entries = added_entries


class _Rectangle:
    """The growing cluster rectangle plus its marked row/col page sets."""

    def __init__(self, seed: Tuple[int, int]) -> None:
        self.row_lo = self.row_hi = seed[0]
        self.col_lo = self.col_hi = seed[1]
        self.rows: Set[int] = {seed[0]}
        self.cols: Set[int] = {seed[1]}
        self.entries: Set[Tuple[int, int]] = {seed}

    @property
    def num_pages(self) -> int:
        return len(self.rows) + len(self.cols)

    def apply(self, move: _Move) -> None:
        if move.kind == "row":
            self.row_lo = min(self.row_lo, move.new_bound)
            self.row_hi = max(self.row_hi, move.new_bound)
        else:
            self.col_lo = min(self.col_lo, move.new_bound)
            self.col_hi = max(self.col_hi, move.new_bound)
        for row, col in move.added_entries:
            self.entries.add((row, col))
            self.rows.add(row)
            self.cols.add(col)


def cost_clustering_reference(
    matrix: PredictionMatrix,
    buffer_pages: int,
    page_set_cost: PageSetCost,
    histogram_bins: int = _DEFAULT_HISTOGRAM_BINS,
    rng: np.random.Generator | None = None,
) -> Tuple[List[Cluster], CostClusteringStats]:
    """Figure 8's CC, full-scheduler-per-candidate edition."""
    if buffer_pages < 2:
        raise ValueError(f"buffer must hold at least 2 pages, got {buffer_pages}")
    if histogram_bins < 1:
        raise ValueError(f"histogram_bins must be positive, got {histogram_bins}")

    work = matrix.copy()
    stats = CostClusteringStats()
    clusters: List[Cluster] = []
    while work.num_marked:
        seed = _draw_seed(work, histogram_bins, rng, stats)
        rect = _grow_cluster(work, seed, buffer_pages, page_set_cost, stats)
        # Assign every remaining marked entry inside the final rectangle.
        assigned = _entries_in_rect(work, rect)
        for entry in assigned:
            work.unmark(*entry)
        clusters.append(Cluster(cluster_id=len(clusters), entries=tuple(sorted(assigned))))
    return clusters, stats


def _draw_seed(
    work: PredictionMatrix,
    bins: int,
    rng: np.random.Generator | None,
    stats: CostClusteringStats,
) -> Tuple[int, int]:
    """Densest-bucket seed selection (Figure 8, steps 2 and 3.a)."""
    stats.seeds_drawn += 1
    entries = list(work.entries())
    stats.entries_scanned += len(entries)
    rows = np.fromiter((r for r, _c in entries), dtype=np.int64, count=len(entries))
    cols = np.fromiter((c for _r, c in entries), dtype=np.int64, count=len(entries))
    bins_r = min(bins, work.num_rows)
    bins_c = min(bins, work.num_cols)
    bucket_r = rows * bins_r // work.num_rows
    bucket_c = cols * bins_c // work.num_cols
    bucket_key = bucket_r * bins_c + bucket_c
    counts = np.bincount(bucket_key, minlength=bins_r * bins_c)
    densest = int(counts.argmax())
    member_mask = bucket_key == densest
    member_indices = np.nonzero(member_mask)[0]
    if rng is None:
        pick = member_indices[np.lexsort((cols[member_indices], rows[member_indices]))[0]]
    else:
        pick = rng.choice(member_indices)
    return int(rows[pick]), int(cols[pick])


def _grow_cluster(
    work: PredictionMatrix,
    seed: Tuple[int, int],
    buffer_pages: int,
    page_set_cost: PageSetCost,
    stats: CostClusteringStats,
) -> _Rectangle:
    rect = _Rectangle(seed)
    base_cost = page_set_cost(rect.rows, rect.cols)
    stats.cost_evaluations += 1

    while rect.num_pages < buffer_pages and work.num_marked > len(rect.entries):
        moves = _candidate_moves(work, rect)
        if not moves:
            break

        def exact_delta(move: _Move) -> float:
            stats.cost_evaluations += 1
            new_rows = rect.rows | {r for r, _c in move.added_entries}
            new_cols = rect.cols | {c for _r, c in move.added_entries}
            return page_set_cost(new_rows, new_cols) - base_cost

        row_list = _cost_sorted(
            [m for m in moves if m.kind == "row"], rect, exact_delta
        )
        col_list = _cost_sorted(
            [m for m in moves if m.kind == "col"], rect, exact_delta
        )
        found = threshold_argmin(row_list, col_list, exact_delta)
        if found is None:
            break
        best_move, best_delta = found
        new_rows = rect.rows | {r for r, _c in best_move.added_entries}
        new_cols = rect.cols | {c for _r, c in best_move.added_entries}
        if len(new_rows) + len(new_cols) > buffer_pages:
            break
        rect.apply(best_move)
        base_cost += best_delta
        stats.expansion_steps += 1
    return rect


def _cost_sorted(
    moves: List[_Move],
    rect: _Rectangle,
    exact_delta: Callable[[_Move], float],
) -> Iterator[Tuple[float, _Move]]:
    """One TA list: moves ordered by rectangle-boundary gap (a valid bound)."""
    def gap(move: _Move) -> int:
        if move.kind == "row":
            return min(abs(move.new_bound - rect.row_lo), abs(move.new_bound - rect.row_hi))
        return min(abs(move.new_bound - rect.col_lo), abs(move.new_bound - rect.col_hi))

    ordered = sorted(moves, key=gap)
    return iter((0.0, move) for move in ordered)


def _candidate_moves(work: PredictionMatrix, rect: _Rectangle) -> List[_Move]:
    """Nearest useful expansion on each of the four sides."""
    moves: List[_Move] = []
    down = _nearest_row(work, rect, direction=1)
    if down is not None:
        moves.append(down)
    up = _nearest_row(work, rect, direction=-1)
    if up is not None:
        moves.append(up)
    right = _nearest_col(work, rect, direction=1)
    if right is not None:
        moves.append(right)
    left = _nearest_col(work, rect, direction=-1)
    if left is not None:
        moves.append(left)
    return moves


def _nearest_row(work: PredictionMatrix, rect: _Rectangle, direction: int) -> Optional[_Move]:
    """Nearest row beyond the boundary with an entry in the column span."""
    row = rect.row_hi + 1 if direction > 0 else rect.row_lo - 1
    limit = work.num_rows if direction > 0 else -1
    while row != limit:
        hits = [
            col
            for col in work.row_cols(row)
            if rect.col_lo <= col <= rect.col_hi and (row, col) not in rect.entries
        ]
        if hits:
            return _Move(
                kind="row",
                new_bound=row,
                added_entries=tuple((row, col) for col in hits),
            )
        row += direction
    return None


def _nearest_col(work: PredictionMatrix, rect: _Rectangle, direction: int) -> Optional[_Move]:
    """Nearest column beyond the boundary with an entry in the row span."""
    col = rect.col_hi + 1 if direction > 0 else rect.col_lo - 1
    limit = work.num_cols if direction > 0 else -1
    while col != limit:
        hits = [
            row
            for row in work.col_rows(col)
            if rect.row_lo <= row <= rect.row_hi and (row, col) not in rect.entries
        ]
        if hits:
            return _Move(
                kind="col",
                new_bound=col,
                added_entries=tuple((row, col) for row in hits),
            )
        col += direction
    return None


def _entries_in_rect(work: PredictionMatrix, rect: _Rectangle) -> List[Tuple[int, int]]:
    inside: List[Tuple[int, int]] = []
    for row in range(rect.row_lo, rect.row_hi + 1):
        for col in work.row_cols(row):
            if rect.col_lo <= col <= rect.col_hi:
                inside.append((row, col))
    return inside


# -- scheduler (frozen) --------------------------------------------------------


def sharing_graph_reference(
    clusters: Sequence[Cluster],
    r_dataset_id: Hashable,
    s_dataset_id: Hashable,
) -> Dict[Edge, int]:
    """Definition 1's sharing graph, pairwise set-intersection edition."""
    edges: Dict[Edge, int] = {}
    page_sets = [
        _page_key_set(cluster, r_dataset_id, s_dataset_id) for cluster in clusters
    ]
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            weight = len(page_sets[i] & page_sets[j])
            if weight > 0:
                edges[(i, j)] = weight
    return edges


def _page_key_set(cluster: Cluster, r_dataset_id: Hashable, s_dataset_id: Hashable):
    """The original uncached page-key construction."""
    keys = {(r_dataset_id, row) for row in cluster.rows}
    keys.update((s_dataset_id, col) for col in cluster.cols)
    return keys


def greedy_cluster_order_reference(
    clusters: Sequence[Cluster],
    r_dataset_id: Hashable,
    s_dataset_id: Hashable,
) -> List[Cluster]:
    """Greedy maximum-weight path over the set-intersection sharing graph."""
    if not clusters:
        return []
    edges = sharing_graph_reference(clusters, r_dataset_id, s_dataset_id)
    chosen = _greedy_path_edges(len(clusters), edges)
    order = _walk_fragments(len(clusters), chosen)
    return [clusters[k] for k in order]


def _greedy_path_edges(num_vertices: int, edges: Dict[Edge, int]) -> List[Edge]:
    """Heaviest-first edge selection under degree-<=2 and acyclicity."""
    parent = list(range(num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    degree = [0] * num_vertices
    chosen: List[Edge] = []
    for (i, j), _weight in sorted(edges.items(), key=lambda kv: (-kv[1], kv[0])):
        if degree[i] >= 2 or degree[j] >= 2:
            continue
        root_i, root_j = find(i), find(j)
        if root_i == root_j:
            continue
        parent[root_i] = root_j
        degree[i] += 1
        degree[j] += 1
        chosen.append((i, j))
    return chosen


def _walk_fragments(num_vertices: int, chosen: List[Edge]) -> List[int]:
    """Concatenate the path fragments the chosen edges induce."""
    neighbours: List[List[int]] = [[] for _ in range(num_vertices)]
    for i, j in chosen:
        neighbours[i].append(j)
        neighbours[j].append(i)

    visited = [False] * num_vertices
    order: List[int] = []
    # Start each fragment at its smallest endpoint (degree <= 1) for
    # determinism; isolated vertices are their own fragments.
    for start in range(num_vertices):
        if visited[start] or len(neighbours[start]) > 1:
            continue
        current, previous = start, -1
        while True:
            visited[current] = True
            order.append(current)
            next_hops = [n for n in neighbours[current] if n != previous]
            if not next_hops:
                break
            previous, current = current, next_hops[0]
    # Degree-2 vertices left unvisited would mean a cycle — impossible by
    # construction, but guard anyway.
    for vertex in range(num_vertices):
        if not visited[vertex]:
            order.append(vertex)
    return order
