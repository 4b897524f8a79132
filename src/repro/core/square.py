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

This implementation runs the sweep on the :class:`CSRWorkMatrix` view:
column slices are array gathers, distinct-row accounting is a prefix
``cumsum`` over first occurrences, and membership tests are
``searchsorted`` probes.  It is decision- and counter-identical to the
frozen scalar implementation
(``square_clustering_reference`` in ``tests/oracles/clusters_reference.py``),
which the equivalence suite pins on random matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.clusters import Cluster
from repro.core.prediction import CSRWorkMatrix, PredictionMatrix
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["square_clustering", "SquareClusteringStats"]

# Phase 2 stops after this many consecutive columns contribute nothing;
# chasing distant columns would violate SC's minimal-width condition.
_BARREN_COLUMN_PATIENCE_FACTOR = 1

# Columns whose hit counts are evaluated per vectorised phase-2 round.
_PHASE2_CHUNK = 128

# Expected marked entries per cluster rectangle (density · r · c) below
# which the scalar sweep outruns the vectorised one: tiny clusters spend
# more on numpy dispatch than on the work itself, so a small-B/sparse
# run crosses over to plain-int loops on the same CSR arrays.
_SCALAR_CROSSOVER = 64.0


@dataclass
class SquareClusteringStats:
    """Work counters (drive the preprocessing-cost bar of Figures 10/11)."""

    entries_scanned: int = 0
    columns_scanned: int = 0
    clusters_built: int = 0

    @property
    def total_operations(self) -> int:
        return self.entries_scanned + self.columns_scanned


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
        The prediction matrix; not modified (a working view is consumed).
    buffer_pages:
        The buffer size ``B``; every produced cluster satisfies
        ``rows + cols <= B``.
    target_aspect:
        Row share of the buffer: target row count is
        ``B * target_aspect / (1 + target_aspect)``.  The paper's SC uses
        1.0 (square); other values exist for the aspect-ratio ablation of
        Theorem 2's observation 1.

    Returns
    -------
    (clusters, stats):
        Clusters in construction order (left to right over the matrix);
        every marked entry of ``matrix`` appears in exactly one cluster.
    """
    if buffer_pages < 2:
        raise ValueError(f"buffer must hold at least 2 pages, got {buffer_pages}")
    if target_aspect <= 0:
        raise ValueError(f"target_aspect must be positive, got {target_aspect}")

    stats = SquareClusteringStats()
    target_rows = max(1, min(buffer_pages - 1, round(buffer_pages * target_aspect / (1.0 + target_aspect))))
    patience = max(1, _BARREN_COLUMN_PATIENCE_FACTOR * buffer_pages)
    # Decision-identical sweep implementations; pick by expected cluster
    # size (both are pinned against the scalar reference by the
    # equivalence suite, so the choice is purely a speed matter): tiny
    # clusters run plain-int loops, large ones the vectorised CSR sweep.
    expected_cluster_entries = (
        matrix.density() * target_rows * max(1, buffer_pages - target_rows)
    )
    if expected_cluster_entries < _SCALAR_CROSSOVER:
        return _square_clustering_scalar(
            matrix, buffer_pages, target_rows, patience, stats, recorder
        )

    work = matrix.csr_view()
    clusters: List[Cluster] = []
    while work.num_marked:
        if work.num_marked * 2 < work.entry_rows.size:
            # Entry ids are never held across clusters, so rebuilding the
            # view from the live entries is decision-neutral and keeps
            # the per-cluster gathers proportional to remaining work.
            work = work.compacted()
        assigned_ids = _build_one_cluster(work, buffer_pages, target_rows, patience, stats)
        entries = _sorted_entry_tuples(work, assigned_ids)
        work.kill(assigned_ids)
        cluster = Cluster(cluster_id=len(clusters), entries=entries)
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
    work: CSRWorkMatrix,
    buffer_pages: int,
    target_rows: int,
    patience: int,
    stats: SquareClusteringStats,
) -> np.ndarray:
    """Entry ids of one cluster (the two-phase column sweep, vectorised)."""
    marked_cols = work.live_cols()

    # Phase 1: accumulate candidate columns until enough distinct rows.
    # The scalar loop breaks after at most B - 1 columns (each live column
    # contributes >= 1 distinct row, so "cols + rows >= B" must trigger).
    # Columns are gathered lazily: even if every stored entry of the next
    # columns were a new distinct row, the sweep cannot break before the
    # first column where the running totals cross the targets, so that
    # column bounds how far each gather must reach.  Dense matrices break
    # after one or two columns, and this avoids touching the rest.
    cand_cols = marked_cols[:buffer_pages]
    stored_counts = work.col_indptr[cand_cols + 1] - work.col_indptr[cand_cols]
    seen = np.zeros(work.num_rows, dtype=bool)
    ids_parts: List[np.ndarray] = []
    rows_parts: List[np.ndarray] = []
    first_parts: List[np.ndarray] = []
    done_cols = 0
    done_entries = 0
    distinct = 0
    last = -1
    n_phase1 = 0
    while done_cols < cand_cols.size:
        cum = np.cumsum(stored_counts[done_cols:]) + distinct
        could = (cum >= target_rows) | (
            np.arange(done_cols + 1, cand_cols.size + 1) + cum >= buffer_pages
        )
        pos = np.flatnonzero(could)
        take = int(pos[0]) + 1 if pos.size else cand_cols.size - done_cols
        ids, col_idx = _gather_live(work, cand_cols[done_cols : done_cols + take])
        rows = work.entry_rows[ids]
        col_end = np.cumsum(np.bincount(col_idx, minlength=take))
        # First occurrence of each row in the whole column-major stream: a
        # stable sort groups duplicates within the chunk (group heads map
        # back to first indices) and the seen-bitmap spans chunks.
        perm = rows.argsort(kind="stable")
        sorted_rows = rows[perm]
        head = np.empty(sorted_rows.size, dtype=bool)
        head[:1] = True
        np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=head[1:])
        chunk_first = np.zeros(rows.size, dtype=bool)
        chunk_first[perm[head]] = True
        chunk_first &= ~seen[rows]
        seen[rows] = True
        ids_parts.append(ids)
        rows_parts.append(rows)
        first_parts.append(chunk_first)
        distinct_after = distinct + np.cumsum(chunk_first)[col_end - 1]
        stop = (distinct_after >= target_rows) | (
            np.arange(done_cols + 1, done_cols + take + 1) + distinct_after
            >= buffer_pages
        )
        if stop.any():
            j = int(np.argmax(stop))
            last = done_cols + j
            n_phase1 = done_entries + int(col_end[j])
            break
        distinct = int(distinct_after[-1])
        done_cols += take
        done_entries += int(rows.size)
    else:
        last = int(cand_cols.size) - 1
        n_phase1 = done_entries
    ids = ids_parts[0] if len(ids_parts) == 1 else np.concatenate(ids_parts)
    rows_seen = rows_parts[0] if len(rows_parts) == 1 else np.concatenate(rows_parts)
    is_first = first_parts[0] if len(first_parts) == 1 else np.concatenate(first_parts)
    stats.columns_scanned += last + 1
    stats.entries_scanned += n_phase1

    # First occurrences within the phase-1 prefix are exactly the prefix
    # entries whose full-stream occurrence is first (the earliest index of
    # a value present in the prefix lies in the prefix), so sorting them
    # yields the distinct rows without a second ``unique`` pass.
    chosen = np.sort(rows_seen[:n_phase1][is_first[:n_phase1]])[:target_rows]

    # Entries of phase-1 columns restricted to the chosen rows.
    hit = _in_sorted(rows_seen[:n_phase1], chosen)
    stats.entries_scanned += int(hit.sum())
    a_ids = ids[:n_phase1][hit]
    a_rows = rows_seen[:n_phase1][hit]
    a_cols = work.entry_cols[a_ids]
    # Column-major gathering keeps a_cols sorted, so its distinct values
    # are the group heads; and every chosen row has at least one hit in
    # the prefix (it was seen there), so the hit rows cover chosen exactly.
    head = np.empty(a_cols.size, dtype=bool)
    head[:1] = True
    np.not_equal(a_cols[1:], a_cols[:-1], out=head[1:])
    cur_cols = a_cols[head]
    cur_rows = chosen

    # Phase 1 may overshoot the buffer when its last column introduced
    # several new rows at once; shed trailing columns (larger width first)
    # until the cluster fits.  At least one column always survives because
    # chosen_rows <= target_rows <= B - 1.
    while cur_rows.size + cur_cols.size > buffer_pages:
        keep = a_cols != cur_cols[-1]
        a_ids, a_rows, a_cols = a_ids[keep], a_rows[keep], a_cols[keep]
        cur_cols = cur_cols[:-1]
        cur_rows = np.unique(a_rows)

    # Phase 2: admit further columns while the buffer has room.  Hit
    # counts are computed a chunk of columns at a time; the admit/barren
    # bookkeeping replays the scalar loop over those counts.
    room = buffer_pages - int(cur_rows.size) - int(cur_cols.size)
    admitted: List[np.ndarray] = []
    barren_streak = 0
    remaining = marked_cols[last + 1 :]
    at = 0
    while at < remaining.size and room > 0 and barren_streak < patience:
        # The replay consumes at most ``room`` admits before filling the
        # buffer and usually ``patience`` barren columns before giving up,
        # so gathering beyond that is wasted work in the common case (the
        # loop re-enters with carried-over room/streak when it is not).
        chunk = remaining[at : at + min(_PHASE2_CHUNK, room + patience)]
        at += chunk.size
        c_ids, c_col_idx = _gather_live(work, chunk)
        c_hit = _in_sorted(work.entry_rows[c_ids], cur_rows)
        hit_ids = c_ids[c_hit]
        hit_cols = c_col_idx[c_hit]
        hits_per_col = np.bincount(hit_cols, minlength=chunk.size)
        bounds = np.cumsum(hits_per_col)
        for k, nhits in enumerate(hits_per_col.tolist()):
            if room <= 0 or barren_streak >= patience:
                break
            stats.columns_scanned += 1
            stats.entries_scanned += nhits
            if nhits:
                admitted.append(hit_ids[bounds[k] - nhits : bounds[k]])
                room -= 1
                barren_streak = 0
            else:
                barren_streak += 1

    if admitted:
        a_ids = np.concatenate([a_ids] + admitted)
    assert a_ids.size, "square clustering produced an empty cluster"
    return a_ids


def _square_clustering_scalar(
    matrix: PredictionMatrix,
    buffer_pages: int,
    target_rows: int,
    patience: int,
    stats: SquareClusteringStats,
    recorder: Recorder,
) -> Tuple[List[Cluster], SquareClusteringStats]:
    """The SC loop as plain-int sweeps over per-column dicts.

    Decision- and counter-identical to the vectorised CSR path (both
    replay the frozen ``square_clustering_reference``);
    faster when clusters are tiny because each column holds a handful of
    entries — dict probes beat numpy dispatch at that size.  Column maps
    are filled in ``(col, row)`` order and only ever deleted from, so
    iterating one yields its live rows ascending without re-sorting.
    """
    rows_arr, cols_arr = matrix.to_coo()
    order = np.lexsort((rows_arr, cols_arr))
    col_maps: Dict[int, Dict[int, None]] = {}
    for row, col in zip(rows_arr[order].tolist(), cols_arr[order].tolist()):
        col_maps.setdefault(col, {})[row] = None
    cols_seq = sorted(col_maps)
    dead_cols = 0
    remaining = int(rows_arr.size)

    clusters: List[Cluster] = []
    while remaining:
        if dead_cols * 2 > len(cols_seq):
            cols_seq = [col for col in cols_seq if col_maps[col]]
            dead_cols = 0
        assigned = _build_one_cluster_scalar(
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
    recorder.count("sc.clusters_built", stats.clusters_built)
    recorder.count("sc.columns_scanned", stats.columns_scanned)
    recorder.count("sc.entries_scanned", stats.entries_scanned)
    return clusters, stats


def _build_one_cluster_scalar(
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

    # Shed trailing (widest) columns while the cluster overshoots B.
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

    assert assigned, "square clustering produced an empty cluster"
    return assigned


def _gather_live(work: CSRWorkMatrix, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Live entry ids of ``cols`` concatenated column-major.

    Returns ``(entry_ids, col_index)`` where ``col_index[k]`` is the
    position in ``cols`` that produced ``entry_ids[k]``; within one
    column the ids ascend by row (CSC order).
    """
    starts = work.col_indptr[cols]
    counts = work.col_indptr[cols + 1] - starts
    total = int(counts.sum())
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    ids = work.csc_entries[offsets + np.arange(total, dtype=np.int64)]
    col_idx = np.repeat(np.arange(cols.size, dtype=np.int64), counts)
    live = work.alive[ids]
    return ids[live], col_idx[live]


def _in_sorted(values: np.ndarray, sorted_unique: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in a sorted unique array."""
    if sorted_unique.size == 0:
        return np.zeros(values.shape, dtype=bool)
    pos = sorted_unique.searchsorted(values)
    # Probes beyond the last slot cannot match; redirect them to slot 0,
    # where the comparison is false (such values exceed the maximum).
    pos[pos == sorted_unique.size] = 0
    return sorted_unique[pos] == values


def _sorted_entry_tuples(work: CSRWorkMatrix, ids: np.ndarray) -> Tuple[Tuple[int, int], ...]:
    """Row-major sorted ``(row, col)`` tuples of the given entry ids."""
    ordered = np.sort(ids)  # entry ids are assigned in row-major order
    return tuple(
        zip(work.entry_rows[ordered].tolist(), work.entry_cols[ordered].tolist())
    )
