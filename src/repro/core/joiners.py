"""Page-pair join kernels.

A *joiner* receives a set of marked page pairs, finds the actual joining
object pairs of each, and reports comparison counts plus modeled CPU
seconds.  All join methods share one joiner per dataset pair, which is
what makes their result sets — and their CPU-join costs on identical page
workloads — exactly comparable.

Two kernels exist:

* numeric — vector/window payloads joined by an L_p distance or banded DTW;
* text — window strings pre-filtered by the frequency distance (the
  MRS-index object-level filter), then verified with banded edit distance.
  The expensive DP is only charged for pairs that survive the filter.

Every join method calls :meth:`~PagePairJoiner.join_cluster` with a set
of marked page pairs — a scheduled cluster, or one outer page and its
partners: the pairs are concatenated into one candidate block over the
datasets' columnar page views
(:meth:`~repro.storage.page.PagedDataset.pages_view`), the whole block
runs a single filter-and-refine cascade with a shared threshold, and the
call returns one :class:`ClusterResult`: every accepted pair as one
``(k, 2)`` int64 array grouped by entry, plus per-entry count,
comparison and CPU arrays.  Entry ``k``'s rows and values equal joining
that page pair on its own — the frozen per-page-pair kernels in
``tests/oracles/joiners.py`` — bit for bit, and one cascade adds the same
semantic counters.  Pairs stay arrays all the way to the caller:
:class:`~repro.core.executor.ExecutionOutcome` concatenates the absorbed
arrays once into the array behind the join's
:class:`~repro.core.pairs.ResultPairs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel import CostModel
from repro.distance.dtw import DTWDistance
from repro.distance.vector import MinkowskiDistance
from repro.kernels.backends import KERNELS
from repro.kernels.dtw import dtw_batch, envelope_centres
from repro.kernels.edit import edit_batch
from repro.kernels.minkowski import _BLOCK_CELL_BUDGET, minkowski_refine
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.storage.page import PageBlock, PagedDataset, SequencePagedDataset

__all__ = [
    "ClusterResult",
    "make_numeric_joiner",
    "make_text_joiner",
    "make_keogh_filter",
    "make_fd_filter",
    "text_dp_weight",
    "NumericPagePairJoiner",
    "TextPagePairJoiner",
]

Entry = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """What one :meth:`PagePairJoiner.join_cluster` call found.

    ``pairs`` is an ``(n, 2)`` int64 array of global ``(r_id, s_id)``
    pairs, grouped by entry in entry order; each entry's rows keep the
    order joining its page pair alone lists them.  With
    ``collect_pairs=False`` it has no rows, but ``counts`` stays exact —
    large experiments only need cardinalities.  ``counts``,
    ``comparisons`` (int64) and ``cpu`` (float64 modeled seconds) hold
    one value per entry.  Every array owns its memory, so a shard worker
    can return the result after unmapping its shared segments.
    """

    pairs: np.ndarray
    counts: np.ndarray
    comparisons: np.ndarray
    cpu: np.ndarray

    @classmethod
    def from_columns(
        cls,
        g_r: np.ndarray,
        g_s: np.ndarray,
        counts,
        comparisons,
        cpu,
        collect_pairs: bool = True,
    ) -> "ClusterResult":
        """Pairs ``(g_r[k], g_s[k])``, already grouped by entry, plus the
        per-entry values; without ``collect_pairs`` the pairs are dropped."""
        pairs = (
            np.column_stack((g_r, g_s))
            if collect_pairs
            else np.empty((0, 2), dtype=np.int64)
        )
        return cls(
            pairs,
            np.asarray(counts, dtype=np.int64),
            np.asarray(comparisons, dtype=np.int64),
            np.asarray(cpu, dtype=np.float64),
        )

    @classmethod
    def empty(cls, num_entries: int) -> "ClusterResult":
        """No pairs, no comparisons and no CPU for ``num_entries`` entries."""
        none = np.empty(0, dtype=np.int64)
        zeros = np.zeros(num_entries, dtype=np.int64)
        return cls.from_columns(none, none, zeros, zeros, zeros)


# ``(left_slice, panel_j) -> bool decisions``, see _ClusterBlock.filtered_cells.
PanelFilter = Callable[[slice, np.ndarray], np.ndarray]


class _ClusterBlock:
    """Stacked columnar geometry of one cluster's marked page pairs.

    Builds the left/right :class:`~repro.storage.page.PageBlock` views
    (one gather per side at most) plus the dense entry-rank lookup that
    maps a stacked candidate ``(i, j)`` back to the cluster entry owning
    it — or to nothing, for cells of unmarked page pairs.
    """

    def __init__(
        self,
        entries: Sequence[Entry],
        r_dataset: PagedDataset,
        s_dataset: PagedDataset,
        self_join: bool,
    ) -> None:
        self.entries = list(entries)
        rows = sorted({row for row, _ in self.entries})
        cols = sorted({col for _, col in self.entries})
        self.r_block: PageBlock = r_dataset.pages_view(rows)
        self.s_block: PageBlock = s_dataset.pages_view(cols)
        row_pos = {page: i for i, page in enumerate(rows)}
        col_pos = {page: i for i, page in enumerate(cols)}
        k = len(self.entries)
        self.entry_row_idx = np.fromiter(
            (row_pos[row] for row, _ in self.entries), dtype=np.int64, count=k
        )
        self.entry_col_idx = np.fromiter(
            (col_pos[col] for _, col in self.entries), dtype=np.int64, count=k
        )
        self._rank = np.full((len(rows), len(cols)), -1, dtype=np.int64)
        self._rank[self.entry_row_idx, self.entry_col_idx] = np.arange(k)
        # Per-entry object-pair counts — a numeric entry's `comparisons`.
        self.cells = (
            self.r_block.counts[self.entry_row_idx]
            * self.s_block.counts[self.entry_col_idx]
        )
        self.diag_entry = np.fromiter(
            (self_join and row == col for row, col in self.entries),
            dtype=bool,
            count=k,
        )

    @property
    def num_entries(self) -> int:
        return len(self.entries)

    def marked_panels(
        self,
    ) -> List[Tuple[slice, np.ndarray, np.ndarray]]:
        """Marked cells grouped by left page row, as contiguous panels.

        One panel per left page of the cluster: ``(left_slice, panel_j,
        panel_rank)``, where ``left_slice`` selects the page's stacked
        left objects, ``panel_j`` lists the stacked right objects of the
        row's marked col pages (ascending), and ``panel_rank[c]`` is the
        entry owning column ``panel_j[c]``.  A panel's cells are the
        full ``left_slice × panel_j`` rectangle — cells of unmarked page
        pairs never appear, so filter work over panels is proportional
        to the marked region, while every elementwise pass stays a
        contiguous broadcast over one left page.
        """
        r_starts = self.r_block.starts
        r_counts = self.r_block.counts
        s_starts = self.s_block.starts
        s_counts = self.s_block.counts
        panels: List[Tuple[slice, np.ndarray, np.ndarray]] = []
        for ri in range(self._rank.shape[0]):
            row_rank = self._rank[ri]
            cj = np.flatnonzero(row_rank >= 0)
            if cj.size == 0:
                continue
            counts = s_counts[cj]
            width = int(counts.sum())
            panel_j = np.repeat(
                s_starts[cj] - (np.cumsum(counts) - counts), counts
            ) + np.arange(width, dtype=np.int64)
            panel_rank = np.repeat(row_rank[cj], counts)
            lo = int(r_starts[ri])
            panels.append((slice(lo, lo + int(r_counts[ri])), panel_j, panel_rank))
        return panels

    def filtered_cells(
        self,
        panel_filter: Optional[PanelFilter] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(cand_i, cand_j, rank)`` of marked cells, filtered.

        ``panel_filter(left_slice, panel_j)`` returns a boolean
        ``(len(left_slice), len(panel_j))`` decision matrix for one
        panel; ``None`` keeps every marked cell.  Surviving cells are
        emitted in stacked-row-major order — ascending stacked left row,
        then the row's marked col objects ascending — so within one
        entry they run row-major, the order a single page pair
        enumerates its cells in, and ``_entry_sorted`` restores per-entry
        grouping losslessly.
        """
        i_parts: List[np.ndarray] = []
        j_parts: List[np.ndarray] = []
        rank_parts: List[np.ndarray] = []
        for sl, panel_j, panel_rank in self.marked_panels():
            reps = sl.stop - sl.start
            if panel_filter is None:
                width = panel_j.shape[0]
                i_parts.append(
                    np.repeat(
                        np.arange(sl.start, sl.stop, dtype=np.int64), width
                    )
                )
                j_parts.append(np.tile(panel_j, reps))
                rank_parts.append(np.tile(panel_rank, reps))
                continue
            sel = panel_filter(sl, panel_j)
            si, sj = np.nonzero(sel)
            i_parts.append(si + sl.start)
            j_parts.append(panel_j[sj])
            rank_parts.append(panel_rank[sj])
        if not i_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        return (
            np.concatenate(i_parts),
            np.concatenate(j_parts),
            np.concatenate(rank_parts),
        )

    def marked_cells(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every object pair of every marked entry, stacked-row-major."""
        return self.filtered_cells(None)

    def drop_diagonal(
        self,
        cand_i: np.ndarray,
        cand_j: np.ndarray,
        rank: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Self-join diagonal filter: on row == col entries keep ``a < b``.

        Global ids preserve local order within one page, so the page-local
        ``local_a < local_b`` test is exactly ``global_a < global_b``.
        """
        if not self.diag_entry.any():
            return cand_i, cand_j, rank
        keep = ~self.diag_entry[rank] | (
            self.r_block.globalise(cand_i) < self.s_block.globalise(cand_j)
        )
        return cand_i[keep], cand_j[keep], rank[keep]


def _entry_sorted(
    rank: np.ndarray, *columns: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Stable sort by entry rank — groups rows per entry, keeps their order."""
    order = np.argsort(rank, kind="stable")
    return (rank[order],) + tuple(col[order] for col in columns)


def make_keogh_filter(
    left: np.ndarray, right: np.ndarray, band: int, epsilon: float
) -> PanelFilter:
    """Panel filter deciding ``LB_Keogh(left[i], envelope(right[j])) <= ε``.

    Two stages per panel.  One Gram product tests the centre–radius
    bound ``‖q − c_j‖ ≤ ε + ‖r_j‖``, which every cell with
    ``LB_Keogh ≤ ε`` passes (:func:`repro.kernels.dtw.envelope_centres`
    has the proof and the rounding margin); then LB_Keogh runs on the
    panel columns where at least one row passed — or on every column
    when the squared norms overflow.  The decisions equal
    ``lb_keogh_panel(...) <= ε`` over the whole panel, cell for cell.
    Envelopes, centres and norms are computed once, for every stacked
    right window.
    """
    lowers, uppers = KERNELS.batch_envelopes(right, band)
    centres, radii = envelope_centres(lowers, uppers)
    reach = epsilon + radii
    # Squared norms near the top of the float range (window values past
    # ~1e150) overflow the Gram form into inf − inf; LB_Keogh, which
    # squares only gaps, then runs on every column.
    with np.errstate(over="ignore"):
        left_sq = np.einsum("iw,iw->i", left, left)
        centre_sq = np.einsum("jw,jw->j", centres, centres)
        bounded = np.isfinite(
            4.0 * (left_sq.max(initial=0.0) + centre_sq.max(initial=0.0))
        )

    def keogh_filter(sl: slice, panel_j: np.ndarray) -> np.ndarray:
        rows = left[sl]
        if bounded:
            near = KERNELS.euclidean_gram_panel(
                rows, centres[panel_j], left_sq[sl], centre_sq[panel_j],
                reach[panel_j],
            )
            cols = np.flatnonzero(near.any(axis=0))
        else:
            cols = np.arange(panel_j.shape[0])
        out = np.zeros((rows.shape[0], panel_j.shape[0]), dtype=bool)
        if cols.size:
            pc = panel_j[cols]
            out[:, cols] = (
                KERNELS.lb_keogh_panel(rows, lowers[pc], uppers[pc]) <= epsilon
            )
        return out

    return keogh_filter


def make_fd_filter(
    left_features: np.ndarray,
    right_features: np.ndarray,
    epsilon: float,
    window_length: int,
) -> PanelFilter:
    """Panel filter deciding ``FD(left[i], right[j]) <= ε`` in integers.

    Frequency vectors are exact symbol counts, and every window's counts
    sum to ``window_length`` on both sides, so FD is exactly half their
    L1 distance — an integer of at most ``2·window_length`` — and
    ``FD ≤ ε ⇔ L1 ≤ ⌊2ε⌋``.  Each panel sums ``|fr_a − fs_a|`` one letter
    at a time, a 2-D integer broadcast per letter, in the narrowest of
    int16/int32 that holds ``2·window_length``.  For such counts the
    decisions equal the float form ``0.5·Σ_a |fs_a − fr_a| <= ε`` exactly.
    """
    limit = int(np.floor(min(2.0 * epsilon, 2.0 * window_length)))
    dtype = np.int16 if 2 * window_length <= np.iinfo(np.int16).max else np.int32
    left_counts = np.ascontiguousarray(left_features.T, dtype=dtype)
    right_counts = np.ascontiguousarray(right_features.T, dtype=dtype)

    def fd_filter(sl: slice, panel_j: np.ndarray) -> np.ndarray:
        rows = left_counts[:, sl]
        cols = right_counts[:, panel_j]
        l1 = np.zeros((rows.shape[1], cols.shape[1]), dtype=dtype)
        for fr_a, fs_a in zip(rows, cols):
            diff = np.subtract.outer(fr_a, fs_a)
            np.abs(diff, out=diff)
            l1 += diff
        return l1 <= limit

    return fd_filter


class PagePairJoiner:
    """The joiner interface every join method and executor calls."""

    def join_cluster(self, entries: Sequence[Entry]) -> ClusterResult:
        """One fused cascade over non-empty, distinct page pairs.

        Returns one :class:`ClusterResult` whose entry ``k`` is
        bit-identical to joining ``entries[k]`` on its own.
        """
        raise NotImplementedError


class NumericPagePairJoiner(PagePairJoiner):
    """Joiner for vector pages (point, spatial, time-series windows).

    Raises ``ValueError`` for a distance other than
    :class:`~repro.distance.vector.MinkowskiDistance` or
    :class:`~repro.distance.dtw.DTWDistance` — the two families the
    cascade has filters for.
    """

    def __init__(
        self,
        r_dataset: PagedDataset,
        s_dataset: PagedDataset,
        distance: "MinkowskiDistance | DTWDistance",
        epsilon: float,
        cost_model: CostModel,
        self_join: bool,
        collect_pairs: bool = True,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not isinstance(distance, (MinkowskiDistance, DTWDistance)):
            raise ValueError(
                "numeric joins need a MinkowskiDistance or DTWDistance, "
                f"got {distance!r}"
            )
        self.r_dataset = r_dataset
        self.s_dataset = s_dataset
        self.distance = distance
        self.epsilon = epsilon
        self.cost_model = cost_model
        self.self_join = self_join
        self.collect_pairs = collect_pairs
        self.recorder = recorder

    def join_cluster(self, entries: Sequence[Entry]) -> ClusterResult:
        recorder = self.recorder
        with recorder.span("execute.megabatch", entries=len(entries)):
            block = _ClusterBlock(
                entries, self.r_dataset, self.s_dataset, self.self_join
            )
            if isinstance(self.distance, MinkowskiDistance):
                acc_i, acc_j, rank, extra = self._minkowski_cascade(block)
            else:
                acc_i, acc_j, rank, extra = self._dtw_cascade(block)
            acc_i, acc_j, rank = block.drop_diagonal(acc_i, acc_j, rank)
            rank, acc_i, acc_j = _entry_sorted(rank, acc_i, acc_j)
            g_r = block.r_block.globalise(acc_i)
            g_s = block.s_block.globalise(acc_j)
            cpu = self.cost_model.cpu_cost(
                block.cells, self.distance.comparison_weight
            )
            result = ClusterResult.from_columns(
                g_r, g_s, np.bincount(rank, minlength=block.num_entries),
                block.cells, cpu, self.collect_pairs,
            )
        if recorder.enabled:
            recorder.count("refine.page_pairs", block.num_entries)
            recorder.count("refine.comparisons", int(block.cells.sum()))
            recorder.count("refine.pairs_found", int(rank.shape[0]))
            for name, value in extra:
                recorder.count(name, value)
        return result

    def _minkowski_cascade(self, block: _ClusterBlock):
        """One Gram matmul (p = 2) or one gathered exact pass per cluster."""
        eps = self.epsilon
        p = self.distance.p
        left = block.r_block.objects
        right = block.s_block.objects
        recorder = self.recorder
        extra: List[Tuple[str, int]] = []
        if p == 2.0:
            left_sq = np.einsum("id,id->i", left, left)
            right_sq = np.einsum("jd,jd->j", right, right)

            def gram_filter(sl: slice, panel_j: np.ndarray) -> np.ndarray:
                return KERNELS.euclidean_gram_panel(
                    left[sl], right[panel_j], left_sq[sl], right_sq[panel_j],
                    eps,
                )

            cand_i, cand_j, rank = block.filtered_cells(gram_filter)
            gram_candidates = int(cand_i.shape[0])
            keep = minkowski_refine(left, right, cand_i, cand_j, eps, p)
            if recorder.enabled:
                recorder.count("kernel.minkowski.invocations")
                extra = [
                    ("kernel.minkowski.pairs_tested", int(block.cells.sum())),
                    ("kernel.minkowski.gram_candidates", gram_candidates),
                    ("kernel.minkowski.accepted", int(np.count_nonzero(keep))),
                ]
        else:
            cand_i, cand_j, rank = block.marked_cells()
            keep = minkowski_refine(left, right, cand_i, cand_j, eps, p)
            if recorder.enabled:
                recorder.count("kernel.minkowski.invocations")
                extra = [
                    ("kernel.minkowski.pairs_tested", int(block.cells.sum())),
                    ("kernel.minkowski.accepted", int(np.count_nonzero(keep))),
                ]
        return cand_i[keep], cand_j[keep], rank[keep], extra

    def _dtw_cascade(self, block: _ClusterBlock):
        """Bounded LB_Keogh panels, then one shared-abandon DP per cluster."""
        eps = self.epsilon
        band = self.distance.band
        left = block.r_block.objects
        right = block.s_block.objects
        recorder = self.recorder
        cand_i, cand_j, rank = block.filtered_cells(
            make_keogh_filter(left, right, band, eps)
        )
        extra: List[Tuple[str, int]] = []
        if recorder.enabled:
            extra = [
                ("kernel.dtw.pairs_tested", int(block.cells.sum())),
                ("kernel.dtw.keogh_candidates", int(cand_i.shape[0])),
            ]
        if cand_i.shape[0] == 0:
            return cand_i, cand_j, rank, extra
        dists = dtw_batch(
            left[cand_i], right[cand_j], band, max_dist=eps, recorder=recorder
        )
        keep = dists <= eps
        return cand_i[keep], cand_j[keep], rank[keep], extra


def make_numeric_joiner(
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    distance: "MinkowskiDistance | DTWDistance",
    epsilon: float,
    cost_model: CostModel,
    self_join: bool,
    collect_pairs: bool = True,
    recorder: Recorder = NULL_RECORDER,
) -> NumericPagePairJoiner:
    """Joiner for vector pages (point, spatial, time-series windows)."""
    return NumericPagePairJoiner(
        r_dataset,
        s_dataset,
        distance,
        epsilon,
        cost_model,
        self_join,
        collect_pairs=collect_pairs,
        recorder=recorder,
    )


def text_dp_weight(window_length: int, epsilon: float) -> float:
    """CPU weight of one banded edit-distance run at threshold ``epsilon``."""
    band = max(1, int(epsilon))
    return float(window_length * (2 * band + 3))


class TextPagePairJoiner(PagePairJoiner):
    """Joiner for string windows: frequency filter, then banded DP.

    ``r_features`` / ``s_features`` are the MRS frequency vectors indexed
    by window offset; they live with the index (in memory), so consulting
    them costs CPU but no I/O.
    """

    def __init__(
        self,
        r_dataset: SequencePagedDataset,
        s_dataset: SequencePagedDataset,
        r_features: np.ndarray,
        s_features: np.ndarray,
        epsilon: float,
        cost_model: CostModel,
        self_join: bool,
        collect_pairs: bool = True,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.r_dataset = r_dataset
        self.s_dataset = s_dataset
        self.r_features = r_features
        self.s_features = s_features
        self.epsilon = epsilon
        self.cost_model = cost_model
        self.self_join = self_join
        self.collect_pairs = collect_pairs
        self.recorder = recorder
        self.dp_weight = text_dp_weight(r_dataset.window_length, epsilon)
        self.limit = int(epsilon)
        self.w = r_dataset.window_length

    def join_cluster(self, entries: Sequence[Entry]) -> ClusterResult:
        recorder = self.recorder
        epsilon = self.epsilon
        with recorder.span("execute.megabatch", entries=len(entries)):
            block = _ClusterBlock(
                entries, self.r_dataset, self.s_dataset, self.self_join
            )
            n_entries = block.num_entries
            # Frequency vectors of the stacked windows (global ids double
            # as feature rows).
            g_left = block.r_block.global_ids
            g_right = block.s_block.global_ids
            fr = self.r_features[g_left]
            fs = self.s_features[g_right]

            # Stage 1 — frequency-distance filter over the marked panels.
            cand_i, cand_j, rank = block.filtered_cells(
                make_fd_filter(fr, fs, epsilon, self.w)
            )
            cand_i, cand_j, rank = block.drop_diagonal(cand_i, cand_j, rank)
            rank, cand_i, cand_j = _entry_sorted(rank, cand_i, cand_j)
            fd_per_entry = np.bincount(rank, minlength=n_entries)

            # Stage 2 — Hamming filter over the candidate block, then one
            # shared-threshold banded DP for everything Hamming rejected.
            W_left = block.r_block.objects
            W_right = block.s_block.objects
            accepted = np.zeros(cand_i.shape[0], dtype=bool)
            survived = np.zeros(cand_i.shape[0], dtype=bool)
            dp_per_entry = np.zeros(n_entries, dtype=np.int64)
            if cand_i.shape[0]:
                ham_chunk = max(1, _BLOCK_CELL_BUDGET // max(1, self.w))
                for lo in range(0, cand_i.shape[0], ham_chunk):
                    hi = lo + ham_chunk
                    hamming = np.count_nonzero(
                        W_left[cand_i[lo:hi]] != W_right[cand_j[lo:hi]], axis=1
                    )
                    accepted[lo:hi] = hamming <= epsilon
                if self.limit >= 2:
                    rejected = ~accepted
                    dp_per_entry = np.bincount(
                        rank[rejected], minlength=n_entries
                    )
                    rej_idx = np.nonzero(rejected)[0]
                    if rej_idx.size:
                        dists = edit_batch(
                            W_left[cand_i[rej_idx]],
                            W_right[cand_j[rej_idx]],
                            self.limit,
                            recorder=recorder,
                        )
                        survived[rej_idx] = dists <= epsilon

            # Scatter: per entry, Hamming-accepted pairs first (candidate
            # order), then DP survivors (rejected order) — the order a
            # single page pair appends them in.
            final_mask = accepted | survived
            idx = np.nonzero(final_mask)[0]
            # Order key: entry first, accepted-before-survived second,
            # candidate position third.  `rank` is already sorted, and a
            # stable sort on (survived) within the entry segments gives
            # exactly that.
            order = np.lexsort(
                (idx, survived[idx].astype(np.int8), rank[idx])
            )
            idx = idx[order]
            out_rank = rank[idx]
            g_r = block.r_block.globalise(cand_i[idx])
            g_s = block.s_block.globalise(cand_j[idx])

            cheap = block.cells
            comparisons = cheap + dp_per_entry
            model = self.cost_model
            cpu = (
                model.cpu_cost(cheap, 1.0)
                + model.cpu_cost(fd_per_entry, float(self.w) / 8.0)
                + model.cpu_cost(dp_per_entry, self.dp_weight)
            )
            result = ClusterResult.from_columns(
                g_r, g_s, np.bincount(out_rank, minlength=n_entries),
                comparisons, cpu, self.collect_pairs,
            )
        if recorder.enabled:
            recorder.count("refine.page_pairs", n_entries)
            recorder.count("refine.comparisons", int(comparisons.sum()))
            recorder.count("refine.pairs_found", int(out_rank.shape[0]))
            recorder.count("text.fd_candidates", int(cand_i.shape[0]))
            recorder.count("text.dp_runs", int(dp_per_entry.sum()))
        return result


def make_text_joiner(
    r_dataset: SequencePagedDataset,
    s_dataset: SequencePagedDataset,
    r_features: np.ndarray,
    s_features: np.ndarray,
    epsilon: float,
    cost_model: CostModel,
    self_join: bool,
    collect_pairs: bool = True,
    recorder: Recorder = NULL_RECORDER,
) -> TextPagePairJoiner:
    """Joiner for string windows: frequency filter, then banded DP."""
    return TextPagePairJoiner(
        r_dataset,
        s_dataset,
        r_features,
        s_features,
        epsilon,
        cost_model,
        self_join,
        collect_pairs=collect_pairs,
        recorder=recorder,
    )

