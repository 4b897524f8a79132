"""Square clustering — SC (Section 7.1, Figure 6).

SC partitions the marked entries of the prediction matrix into clusters
that (1) have an equal number of marked rows and columns where possible,
(2) use the whole buffer (``r + c = B``), and (3) have minimal width.
Theorem 2 motivates (1): for fixed ``r + c = B`` the saving
``e − max(r, c)`` is maximised at ``r = c = B/2``.

The algorithm is a two-phase column sweep per cluster, O(e) overall on the
sparse matrix:

* phase 1 gathers consecutive marked columns (CANDIDATE entries) until
  about ``B/2`` distinct rows are seen, then fixes the first ``B/2`` of
  those rows (ASSIGNED);
* phase 2 keeps admitting further columns that contain entries in the
  fixed row set until ``r + c = B`` (or the supply runs dry).

Entries of swept columns that fall outside the fixed rows stay in the
matrix for later clusters.

The sweep runs on one dict of live rows per marked column.  Columns hold
few entries (26 on average on the landsat benchmark, the densest), where
a dict probe per entry costs less than a numpy call per column: a
vectorised sweep measured slower on all four benchmark workloads at
every buffer size tried.  It is decision- and counter-identical to the
frozen per-entry implementation (``square_clustering_reference`` in
``tests/oracles/clusters_reference.py``), which the equivalence suite
pins on random matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.clusters import Cluster
from repro.core.prediction import PredictionMatrix
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["square_clustering", "SquareClusteringStats", "check_target_aspect"]

# Phase 2 stops after this many consecutive columns contribute nothing;
# chasing distant columns would violate SC's minimal-width condition.
_BARREN_COLUMN_PATIENCE_FACTOR = 1


@dataclass
class SquareClusteringStats:
    """Work counters (drive the preprocessing-cost bar of Figures 10/11)."""

    entries_scanned: int = 0
    columns_scanned: int = 0
    clusters_built: int = 0

    @property
    def total_operations(self) -> int:
        return self.entries_scanned + self.columns_scanned


def check_target_aspect(value, name: str = "target_aspect") -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a positive,
    finite number (NaN and infinity would reach ``round()``)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def square_clustering(
    matrix: PredictionMatrix,
    buffer_pages: int,
    target_aspect: float = 1.0,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[List[Cluster], SquareClusteringStats]:
    """Partition the marked entries into buffer-fitting square-ish clusters.

    Parameters
    ----------
    matrix:
        The prediction matrix; not modified (the sweep consumes column
        maps built from it).
    buffer_pages:
        The buffer size ``B``; every produced cluster satisfies
        ``rows + cols <= B``.
    target_aspect:
        Row share of the buffer: target row count is
        ``B * target_aspect / (1 + target_aspect)``.  The paper's SC uses
        1.0 (square); other values exist for the aspect-ratio ablation of
        Theorem 2's observation 1.  Must be positive and finite.

    Returns
    -------
    (clusters, stats):
        Clusters in construction order (left to right over the matrix);
        every marked entry of ``matrix`` appears in exactly one cluster.
    """
    if buffer_pages < 2:
        raise ValueError(f"buffer must hold at least 2 pages, got {buffer_pages}")
    check_target_aspect(target_aspect)

    stats = SquareClusteringStats()
    target_rows = max(1, min(buffer_pages - 1, round(buffer_pages * target_aspect / (1.0 + target_aspect))))
    patience = max(1, _BARREN_COLUMN_PATIENCE_FACTOR * buffer_pages)
    # Column maps are filled in ascending row order and only ever deleted
    # from, so iterating one yields its live rows ascending without
    # re-sorting; ``cols_seq`` is ascending because marked_cols() is.
    col_maps: Dict[int, Dict[int, None]] = {
        col: dict.fromkeys(matrix.col_rows(col)) for col in matrix.marked_cols()
    }
    cols_seq = list(col_maps)
    dead_cols = 0
    remaining = matrix.num_marked

    clusters: List[Cluster] = []
    while remaining:
        if dead_cols * 2 > len(cols_seq):
            cols_seq = [col for col in cols_seq if col_maps[col]]
            dead_cols = 0
        assigned = _build_one_cluster(
            col_maps, cols_seq, buffer_pages, target_rows, patience, stats
        )
        for row, col in assigned:
            col_rows = col_maps[col]
            del col_rows[row]
            if not col_rows:
                dead_cols += 1
        remaining -= len(assigned)
        cluster = Cluster(cluster_id=len(clusters), entries=tuple(sorted(assigned)))
        clusters.append(cluster)
        stats.clusters_built += 1
        if recorder.enabled:
            recorder.observe("sc.cluster_entries", cluster.num_entries)
            recorder.observe("sc.cluster_pages", cluster.num_pages)
    # Mirror the growth-step counters into the metrics registry (the
    # stats object remains the CPU-cost source of truth).
    recorder.count("sc.clusters_built", stats.clusters_built)
    recorder.count("sc.columns_scanned", stats.columns_scanned)
    recorder.count("sc.entries_scanned", stats.entries_scanned)
    return clusters, stats


def _build_one_cluster(
    col_maps: Dict[int, Dict[int, None]],
    cols_seq: List[int],
    buffer_pages: int,
    target_rows: int,
    patience: int,
    stats: SquareClusteringStats,
) -> List[Tuple[int, int]]:
    """One two-phase sweep over the live column maps.

    ``cols_seq`` is ascending and may contain exhausted columns (lazy
    deletion); those are skipped, matching the reference's view of only
    the still-marked columns.
    """
    # Phase 1: accumulate candidate columns until enough distinct rows.
    seen: Dict[int, None] = {}  # insertion-ordered distinct rows
    phase1_cols: List[int] = []
    n_cols = len(cols_seq)
    at = 0
    while at < n_cols:
        col = cols_seq[at]
        at += 1
        col_rows = col_maps[col]
        if not col_rows:
            continue
        phase1_cols.append(col)
        stats.columns_scanned += 1
        stats.entries_scanned += len(col_rows)
        for row in col_rows:
            if row not in seen:
                seen[row] = None
        if len(seen) >= target_rows:
            break
        if len(phase1_cols) + len(seen) >= buffer_pages:
            break
    chosen = set(sorted(seen)[: min(target_rows, len(seen))])

    # Entries of phase-1 columns restricted to the chosen rows.
    assigned: List[Tuple[int, int]] = []
    assigned_cols: List[int] = []  # ascending (phase1_cols is)
    for col in phase1_cols:
        hits = [row for row in col_maps[col] if row in chosen]
        stats.entries_scanned += len(hits)
        if hits:
            assigned_cols.append(col)
            assigned.extend((row, col) for row in hits)

    # Phase 1 may overshoot the buffer when its last column introduced
    # several new rows at once; shed trailing columns (larger width first)
    # until the cluster fits.  At least one column always survives because
    # chosen rows <= target_rows <= B - 1.
    cur_rows = chosen
    while len(cur_rows) + len(assigned_cols) > buffer_pages:
        victim = assigned_cols.pop()  # the maximum: the list is ascending
        assigned = [(row, col) for row, col in assigned if col != victim]
        cur_rows = {row for row, _col in assigned}

    # Phase 2: admit further columns while the buffer has room.
    barren_streak = 0
    while at < n_cols:
        col = cols_seq[at]
        at += 1
        col_rows = col_maps[col]
        if not col_rows:
            continue
        if len(cur_rows) + len(assigned_cols) >= buffer_pages:
            break
        if barren_streak >= patience:
            break
        stats.columns_scanned += 1
        hits = [row for row in col_rows if row in cur_rows]
        stats.entries_scanned += len(hits)
        if hits:
            assigned_cols.append(col)
            assigned.extend((row, col) for row in hits)
            barren_streak = 0
        else:
            barren_streak += 1

    # A chosen row always contributed at least one phase-1 entry.
    assert assigned, "square clustering produced an empty cluster"
    return assigned
