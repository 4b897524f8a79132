"""Per-page-pair joiners: the fused cluster cascade's per-entry oracle.

These are the page-pair kernels that ``NumericPagePairJoiner`` and
``TextPagePairJoiner`` ran once per marked page pair (their ``__call__``)
before :meth:`repro.core.joiners.PagePairJoiner.join_cluster` became the
only refine path.  Each takes the joiner whose configuration it reads
(datasets, distance, ε, cost model, self-join flag, pair collection,
recorder) plus one page pair and its two payloads, and returns a
:data:`PageResult`.  ``join_cluster`` must reproduce, for every entry of
any entry set, this module's result for that page pair bit for bit —
pairs in order, count, comparisons and modeled CPU — and the same
semantic counters (``tests/core/test_megabatch_equivalence.py``).
:func:`per_entry` splits a :class:`~repro.core.joiners.ClusterResult`
into page results for that comparison, and :func:`packed` goes the
other way.

The module also holds the two stand-in joiners executor tests use:
:class:`NoopJoiner` and :class:`EchoJoiner`, and :func:`regrouped_cells`,
the order a cascade panel listed its surviving cells in before
``_ClusterBlock.filtered_cells`` read them in entry-blocked order.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.joiners import ClusterResult, PagePairJoiner, TextPagePairJoiner
from repro.distance.vector import MinkowskiDistance
from repro.kernels.edit import edit_batch
from repro.storage.page import PagedDataset
from tests.oracles.kernels import euclidean_pairs

# (pairs collected, total pair count, comparisons, cpu seconds).  With
# collect_pairs=False the list stays empty but the count is exact.
PageResult = Tuple[List[Tuple[int, int]], int, int, float]


def packed(results: Sequence[PageResult]) -> ClusterResult:
    """Page results, in entry order, as one cluster result."""
    pairs = [pair for result in results for pair in result[0]]
    return ClusterResult(
        np.array(pairs, dtype=np.int64).reshape(-1, 2),
        np.array([result[1] for result in results], dtype=np.int64),
        np.array([result[2] for result in results], dtype=np.int64),
        np.array([result[3] for result in results], dtype=np.float64),
    )


def per_entry(result: ClusterResult) -> List[PageResult]:
    """A cluster result split into one page result per entry.

    Checks the array contract on the way: int64 ``(n, 2)`` pairs (none
    when they were not collected) and one int64/int64/float64 value per
    entry.  Values come back as Python ``int`` and ``float``.
    """
    assert result.pairs.dtype == np.int64 and result.pairs.ndim == 2
    assert result.pairs.shape[1] == 2
    assert result.counts.dtype == result.comparisons.dtype == np.int64
    assert result.cpu.dtype == np.float64
    num_entries = result.counts.shape[0]
    assert result.comparisons.shape == result.cpu.shape == (num_entries,)
    counts = result.counts.tolist()
    collected = result.pairs.shape[0] > 0
    assert result.pairs.shape[0] in (0, sum(counts))
    rows = [tuple(pair) for pair in result.pairs.tolist()]
    bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64))).tolist()
    return [
        (
            rows[bounds[k] : bounds[k + 1]] if collected else [],
            counts[k],
            result.comparisons[k].item(),
            result.cpu[k].item(),
        )
        for k in range(num_entries)
    ]


class NoopJoiner(PagePairJoiner):
    """Joins nothing: one empty result per entry, for tests of reads only."""

    def join_cluster(self, entries) -> ClusterResult:
        return ClusterResult.empty(len(entries))


class EchoJoiner(PagePairJoiner):
    """Each entry ``(row, col)`` yields itself as its one pair and charges
    ``comparisons`` and ``cpu``."""

    def __init__(self, comparisons: int = 1, cpu: float = 0.0) -> None:
        self.comparisons = comparisons
        self.cpu = cpu

    def join_cluster(self, entries) -> ClusterResult:
        k = len(entries)
        rows = np.array(entries, dtype=np.int64).reshape(k, 2)
        return ClusterResult.from_columns(
            rows[:, 0], rows[:, 1], np.ones(k, dtype=np.int64),
            np.full(k, self.comparisons), np.full(k, self.cpu),
        )


def regrouped_cells(
    decisions: np.ndarray,
    start: int,
    panel_j: np.ndarray,
    counts: np.ndarray,
    lo: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A panel's surviving cells as ``(cand_i, cand_j, pos)``, listed
    row-major over its ``(n, Σ counts)`` decision matrix and then
    regrouped by a stable sort on the panel-local entry.

    ``start`` is the left page's first stacked row, ``panel_j`` the
    panel's stacked right rows, ``counts`` the objects of each of its col
    pages (of any sizes) and ``lo`` the position of its first entry.
    """
    width = int(counts.sum())
    si, sj = np.divmod(np.flatnonzero(decisions), width)
    local = np.repeat(np.arange(counts.shape[0], dtype=np.uint16), counts)[sj]
    if counts.shape[0] > 1:
        regroup = np.argsort(local, kind="stable")
        si, sj, local = si[regroup], sj[regroup], local[regroup]
    return si + start, panel_j[sj], local.astype(np.int64) + lo


def page_pair(joiner, row: int, col: int) -> PageResult:
    """The oracle result for one page pair, payloads read from the pages."""
    r_payload = joiner.r_dataset.page_objects(row)
    s_payload = joiner.s_dataset.page_objects(col)
    if isinstance(joiner, TextPagePairJoiner):
        return text_page_pair(joiner, row, col, r_payload, s_payload)
    return numeric_page_pair(joiner, row, col, r_payload, s_payload)


class PerPairJoiner(PagePairJoiner):
    """Joins a cluster entry by entry through :func:`page_pair` with the
    wrapped joiner's configuration — the per-page-pair join an executor
    ran before the cascade, for whole-join comparisons."""

    def __init__(self, joiner) -> None:
        self.joiner = joiner

    def join_cluster(self, entries) -> ClusterResult:
        return packed([page_pair(self.joiner, row, col) for row, col in entries])


def numeric_page_pair(self, row: int, col: int, r_payload, s_payload) -> PageResult:
    recorder = self.recorder
    left = np.asarray(r_payload)
    right = np.asarray(s_payload)
    with recorder.span("execute.refine"):
        if isinstance(self.distance, MinkowskiDistance) and self.distance.p == 2.0:
            # Filter-then-refine, independent of the Gram decision kernel.
            local = euclidean_pairs(left, right, self.epsilon, recorder)
        else:
            local = self.distance.pairs_within(
                left, right, self.epsilon, recorder=recorder
            )
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


def text_page_pair(self, row: int, col: int, r_payload, s_payload) -> PageResult:
    recorder = self.recorder
    r_windows: Sequence[str] = r_payload
    s_windows: Sequence[str] = s_payload
    epsilon = self.epsilon
    windows_r = self.r_dataset.windows_matrix()
    windows_s = self.s_dataset.windows_matrix()
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
                windows_r[r_start + cand_a]
                != windows_s[s_start + cand_b],
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
                        windows_r[r_start + rej_a],
                        windows_s[s_start + rej_b],
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
