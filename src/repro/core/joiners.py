"""Page-pair join kernels.

A *joiner* receives a marked page pair's payloads, finds the actual
joining object pairs, and reports comparison counts plus modeled CPU
seconds.  All join methods share one joiner per dataset pair, which is
what makes their result sets — and their CPU-join costs on identical page
workloads — exactly comparable.

Two kernels exist:

* numeric — vector/window payloads joined by an L_p distance;
* text — window strings pre-filtered by the frequency distance (the
  MRS-index object-level filter), then verified with banded edit distance.
  The expensive DP is only charged for pairs that survive the filter.

Each joiner is callable with one page pair (the classic granularity) and
additionally exposes :meth:`~PagePairJoiner.join_cluster`, the
*mega-batch* granularity: every marked page pair of a staged cluster is
concatenated into one candidate block over the datasets' columnar page
views (:meth:`~repro.storage.page.PagedDataset.pages_view`), the whole
block runs a single filter-and-refine cascade with a shared threshold,
and results are scattered back to per-pair outputs that are bit-identical
to calling the joiner per pair — pairs, counts, comparisons, modeled CPU
and semantic counters included (only kernel *invocation* counts differ;
see ``repro.obs.recorder.BATCHING_VARIANT_COUNTERS``).
"""

from __future__ import annotations

import inspect
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel import CostModel
from repro.distance.dtw import DTWDistance
from repro.distance.vector import MinkowskiDistance
from repro.kernels.backends import KERNELS
from repro.kernels.dtw import dtw_batch
from repro.kernels.edit import edit_batch
from repro.kernels.minkowski import _BLOCK_CELL_BUDGET, minkowski_refine
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.storage.page import PageBlock, PagedDataset, SequencePagedDataset

__all__ = [
    "make_numeric_joiner",
    "make_text_joiner",
    "text_dp_weight",
    "NumericPagePairJoiner",
    "TextPagePairJoiner",
]

# (pairs collected, total pair count, comparisons, cpu seconds).  With
# collect_pairs=False the list stays empty but the count is exact — large
# experiments only need cardinalities, not materialised id pairs.
JoinerResult = Tuple[List[Tuple[int, int]], int, int, float]

Entry = Tuple[int, int]

# The FD filter's (rows, chunk, alphabet) temporary is traversed three
# times per chunk; a tighter budget than _BLOCK_CELL_BUDGET keeps it
# cache-resident for the alphabet-sized last axis.
_FD_CELL_BUDGET = 1 << 20


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
        # Per-entry object-pair counts — the per-pair path's `comparisons`.
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
        contiguous broadcast (the per-pair kernels' access pattern).
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
        panel_filter: Optional[
            Callable[[slice, np.ndarray], np.ndarray]
        ] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked ``(cand_i, cand_j, rank)`` of marked cells, filtered.

        ``panel_filter(left_slice, panel_j)`` returns a boolean
        ``(len(left_slice), len(panel_j))`` decision matrix for one
        panel; ``None`` keeps every marked cell.  Surviving cells are
        emitted in stacked-row-major order — ascending stacked left row,
        then the row's marked col objects ascending — so within one
        entry they run row-major, the per-pair kernels' enumeration
        order, and ``_entry_sorted`` restores per-entry grouping
        losslessly.
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

        Global ids preserve local order within one page, so the per-pair
        ``local_a < local_b`` test is exactly ``global_a < global_b``.
        """
        if not self.diag_entry.any():
            return cand_i, cand_j, rank
        keep = ~self.diag_entry[rank] | (
            self.r_block.globalise(cand_i) < self.s_block.globalise(cand_j)
        )
        return cand_i[keep], cand_j[keep], rank[keep]


def _scatter_results(
    block: _ClusterBlock,
    g_r: np.ndarray,
    g_s: np.ndarray,
    rank: np.ndarray,
    comparisons_per_entry: np.ndarray,
    cpu_per_entry: List[float],
    collect_pairs: bool,
) -> List[JoinerResult]:
    """Group accepted global pairs by entry, preserving within-entry order.

    ``rank`` must be sorted (stable-grouped by entry); the caller
    guarantees the within-entry order matches the per-pair path.
    """
    counts = np.bincount(rank, minlength=block.num_entries)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    all_pairs = list(zip(g_r.tolist(), g_s.tolist())) if collect_pairs else []
    results: List[JoinerResult] = []
    for k in range(block.num_entries):
        lo, hi = bounds[k], bounds[k + 1]
        pairs = all_pairs[lo:hi] if collect_pairs else []
        results.append(
            (pairs, hi - lo, int(comparisons_per_entry[k]), cpu_per_entry[k])
        )
    return results


def _entry_sorted(
    rank: np.ndarray, *columns: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Stable sort by entry rank — groups rows per entry, keeps their order."""
    order = np.argsort(rank, kind="stable")
    return (rank[order],) + tuple(col[order] for col in columns)


class PagePairJoiner:
    """Base page-pair joiner: callable per pair, optionally cluster-batchable.

    ``supports_megabatch`` advertises whether :meth:`join_cluster` can run
    the fused cascade; when ``False`` the executor falls back to per-pair
    calls (plain-callable joiners behave the same by never defining it).
    """

    supports_megabatch = False

    def __call__(self, row: int, col: int, r_payload, s_payload) -> JoinerResult:
        raise NotImplementedError

    def join_cluster(self, entries: Sequence[Entry]) -> List[JoinerResult]:
        """One fused cascade over a cluster's entries; per-entry results.

        Returns one :data:`JoinerResult` per entry, in entry order —
        bit-identical to calling the joiner per pair with the staged
        payloads.
        """
        raise NotImplementedError


class NumericPagePairJoiner(PagePairJoiner):
    """Joiner for vector pages (point, spatial, time-series windows)."""

    def __init__(
        self,
        r_dataset: PagedDataset,
        s_dataset: PagedDataset,
        distance,
        epsilon: float,
        cost_model: CostModel,
        self_join: bool,
        collect_pairs: bool = True,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.r_dataset = r_dataset
        self.s_dataset = s_dataset
        self.distance = distance
        self.epsilon = epsilon
        self.cost_model = cost_model
        self.self_join = self_join
        self.collect_pairs = collect_pairs
        self.recorder = recorder
        # Third-party JoinDistance implementations may predate the recorder
        # protocol; probe once at construction time, not per page pair.
        self._forward_recorder = _accepts_kw(distance.pairs_within, "recorder")
        # The fused cascade is specific to the built-in distance families;
        # anything else (or a dataset without columnar views) joins per pair.
        self.supports_megabatch = isinstance(
            distance, (MinkowskiDistance, DTWDistance)
        ) and (
            hasattr(r_dataset, "pages_view") and hasattr(s_dataset, "pages_view")
        )

    # -- per-pair granularity ------------------------------------------------

    def __call__(self, row: int, col: int, r_payload, s_payload) -> JoinerResult:
        recorder = self.recorder
        left = np.asarray(r_payload)
        right = np.asarray(s_payload)
        with recorder.span("execute.refine"):
            kwargs = {}
            if self._forward_recorder:
                kwargs["recorder"] = recorder
            local = self.distance.pairs_within(left, right, self.epsilon, **kwargs)
            comparisons = left.shape[0] * right.shape[0]
            cpu = self.cost_model.cpu_cost(comparisons, self.distance.comparison_weight)
            if self.self_join and row == col:
                local = [(a, b) for a, b in local if a < b]
        if recorder.enabled:
            recorder.count("refine.page_pairs")
            recorder.count("refine.comparisons", comparisons)
            recorder.count("refine.pairs_found", len(local))
        if self.collect_pairs:
            pairs = _globalise(local, self.r_dataset, self.s_dataset, row, col)
            return pairs, len(pairs), comparisons, cpu
        return [], len(local), comparisons, cpu

    # -- cluster granularity -------------------------------------------------

    def join_cluster(self, entries: Sequence[Entry]) -> List[JoinerResult]:
        if not self.supports_megabatch:
            raise NotImplementedError(
                f"mega-batch cascade is not supported for {self.distance!r}"
            )
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
            weight = self.distance.comparison_weight
            cpu = [
                self.cost_model.cpu_cost(int(c), weight) for c in block.cells
            ]
            results = _scatter_results(
                block, g_r, g_s, rank, block.cells, cpu, self.collect_pairs
            )
        if recorder.enabled:
            recorder.count("refine.page_pairs", block.num_entries)
            recorder.count("refine.comparisons", int(block.cells.sum()))
            recorder.count("refine.pairs_found", int(rank.shape[0]))
            for name, value in extra:
                recorder.count(name, value)
        return results

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
        """One envelope + gathered LB_Keogh, one shared-abandon DP per cluster."""
        eps = self.epsilon
        band = self.distance.band
        left = block.r_block.objects
        right = block.s_block.objects
        recorder = self.recorder
        lowers, uppers = KERNELS.batch_envelopes(right, band)

        def keogh_filter(sl: slice, panel_j: np.ndarray) -> np.ndarray:
            return (
                KERNELS.lb_keogh_panel(left[sl], lowers[panel_j], uppers[panel_j])
                <= eps
            )

        cand_i, cand_j, rank = block.filtered_cells(keogh_filter)
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
    distance: MinkowskiDistance,
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


def _accepts_kw(pairs_within: Callable, name: str) -> bool:
    """True when a distance's ``pairs_within`` takes keyword ``name``."""
    try:
        return name in inspect.signature(pairs_within).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


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

    supports_megabatch = True

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
        self.windows_r = r_dataset.windows_matrix()
        self.windows_s = (
            self.windows_r if s_dataset is r_dataset else s_dataset.windows_matrix()
        )

    # -- per-pair granularity ------------------------------------------------

    def __call__(self, row: int, col: int, r_payload, s_payload) -> JoinerResult:
        recorder = self.recorder
        r_windows: Sequence[str] = r_payload
        s_windows: Sequence[str] = s_payload
        epsilon = self.epsilon
        with recorder.span("execute.refine"):
            r_start, _ = self.r_dataset.window_range(row)
            s_start, _ = self.s_dataset.window_range(col)
            fr = self.r_features[r_start : r_start + len(r_windows)]
            fs = self.s_features[s_start : s_start + len(s_windows)]

            # Stage 1 — frequency-distance filter, vectorised: FD = max(sum
            # of positive diffs, sum of negative diffs) <= edit distance.
            diff = fs[None, :, :] - fr[:, None, :]
            positive = np.clip(diff, 0.0, None).sum(axis=2)
            negative = np.clip(-diff, 0.0, None).sum(axis=2)
            fd = np.maximum(positive, negative)
            cand_a, cand_b = np.nonzero(fd <= epsilon)
            if self.self_join and row == col:
                keep = cand_a < cand_b
                cand_a, cand_b = cand_a[keep], cand_b[keep]

            # Stage 2 — Hamming filter, vectorised over candidates.  Windows
            # have equal length, so Hamming(a, b) >= ED(a, b): Hamming <= eps
            # accepts outright.  The converse rejection holds at eps <= 1 (one
            # edit between equal-length strings must be a substitution); above
            # that, survivors fall through to the batched banded DP
            # (one kernel call per page pair, shared abandon threshold).
            local: List[Tuple[int, int]] = []
            dp_runs = 0
            if cand_a.size:
                hamming = np.count_nonzero(
                    self.windows_r[r_start + cand_a]
                    != self.windows_s[s_start + cand_b],
                    axis=1,
                )
                accepted = hamming <= epsilon
                for a, b in zip(cand_a[accepted].tolist(), cand_b[accepted].tolist()):
                    local.append((int(a), int(b)))
                if self.limit >= 2:
                    rej_a, rej_b = cand_a[~accepted], cand_b[~accepted]
                    dp_runs = int(rej_a.size)
                    if dp_runs:
                        dists = edit_batch(
                            self.windows_r[r_start + rej_a],
                            self.windows_s[s_start + rej_b],
                            self.limit,
                            recorder=recorder,
                        )
                        survived = dists <= epsilon
                        for a, b in zip(
                            rej_a[survived].tolist(), rej_b[survived].tolist()
                        ):
                            local.append((int(a), int(b)))

            cheap = len(r_windows) * len(s_windows)
            cpu = (
                self.cost_model.cpu_cost(cheap, 1.0)
                + self.cost_model.cpu_cost(int(cand_a.size), float(self.w) / 8.0)
                + self.cost_model.cpu_cost(dp_runs, self.dp_weight)
            )
        if recorder.enabled:
            recorder.count("refine.page_pairs")
            recorder.count("refine.comparisons", cheap + dp_runs)
            recorder.count("refine.pairs_found", len(local))
            recorder.count("text.fd_candidates", int(cand_a.size))
            recorder.count("text.dp_runs", dp_runs)
        if self.collect_pairs:
            pairs = _globalise(local, self.r_dataset, self.s_dataset, row, col)
            return pairs, len(pairs), cheap + dp_runs, cpu
        return [], len(local), cheap + dp_runs, cpu

    # -- cluster granularity -------------------------------------------------

    def join_cluster(self, entries: Sequence[Entry]) -> List[JoinerResult]:
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

            # Stage 1 — frequency-distance filter over the marked panels
            # only, each panel chunked along its columns to bound the
            # (rows, chunk, A) temporary.
            alpha = max(1, fs.shape[1])

            def fd_filter(sl: slice, panel_j: np.ndarray) -> np.ndarray:
                fr_rows = fr[sl]
                fs_panel = fs[panel_j]
                out = np.empty(
                    (fr_rows.shape[0], fs_panel.shape[0]), dtype=bool
                )
                chunk_cols = max(
                    1,
                    _FD_CELL_BUDGET // max(1, fr_rows.shape[0] * alpha),
                )
                for lo in range(0, fs_panel.shape[0], chunk_cols):
                    hi = lo + chunk_cols
                    diff = fs_panel[lo:hi][None, :, :] - fr_rows[:, None, :]
                    # Frequency vectors are exact integer counts and every
                    # window's counts sum to the window length, so the
                    # positive and negative parts of ``diff`` are equal
                    # and FD is exactly half the (even, integer) L1
                    # distance — the same float64 value the per-pair
                    # max-of-clipped-sums form produces.
                    out[:, lo:hi] = np.abs(diff).sum(axis=2) * 0.5 <= epsilon
                return out

            cand_i, cand_j, rank = block.filtered_cells(fd_filter)
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
            # order), then DP survivors (rejected order) — the per-pair
            # path's append order.
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
            w_over_8 = float(self.w) / 8.0
            cpu = [
                self.cost_model.cpu_cost(int(cheap[k]), 1.0)
                + self.cost_model.cpu_cost(int(fd_per_entry[k]), w_over_8)
                + self.cost_model.cpu_cost(int(dp_per_entry[k]), self.dp_weight)
                for k in range(n_entries)
            ]
            results = _scatter_results(
                block, g_r, g_s, out_rank, comparisons, cpu, self.collect_pairs
            )
        if recorder.enabled:
            recorder.count("refine.page_pairs", n_entries)
            recorder.count("refine.comparisons", int(comparisons.sum()))
            recorder.count("refine.pairs_found", int(out_rank.shape[0]))
            recorder.count("text.fd_candidates", int(cand_i.shape[0]))
            recorder.count("text.dp_runs", int(dp_per_entry.sum()))
        return results


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


def _globalise(
    local: List[Tuple[int, int]],
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    row: int,
    col: int,
) -> List[Tuple[int, int]]:
    """Map page-local index pairs to dataset-global id pairs.

    Self-join filtering (diagonal ``a < b``) happens before this point;
    off-diagonal marked entries are kept to the upper triangle by the
    matrix, and contiguous page ranges guarantee ordered global ids.
    """
    return [
        (
            r_dataset.global_object_id(row, a),
            s_dataset.global_object_id(col, b),
        )
        for a, b in local
    ]
