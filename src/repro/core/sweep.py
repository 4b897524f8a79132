"""Hierarchical plane sweep constructing the prediction matrix (Figure 1).

The algorithm descends two MBR hierarchies in lock-step.  For a pair of
intersecting internal nodes it recurses on their children; for a pair of
intersecting leaves it marks the corresponding page pair.  The
hierarchies are :class:`~repro.index.node.PageIndex` level arrays: a
node's children are one contiguous row range of the level below, so the
descent recurses on (level, start, stop) ranges.  At every level the
children are first passed through the iterative filter (Section 5.1) and
extended by ε/2, then swept along the first coordinate: an intersection
of ε/2-extended boxes is exactly the test "L∞ box distance ≤ ε", which
lower-bounds every L_p object distance as well as the frequency/edit
distance chain — hence Theorem 1 (no joining pair is ever missed).

The sweep itself is a **block sweep** over struct-of-arrays geometry
(:class:`~repro.geometry.BoxArray`): both sides are sorted by their
dimension-0 lower edge once, each box's dimension-0 overlap partners are
located with two ``np.searchsorted`` calls against the sorted starts, and
the surviving candidate block is reduced with one vectorised
remaining-dimension overlap mask.  No per-box event queue, no per-pair
``intersects()`` calls.  The produced marks and every ``SweepStats``
counter are identical to the original event sweep
(``tests/oracles/sweep_reference.py``): ``endpoints_processed`` still counts
two endpoints per swept box and ``intersection_tests`` still counts
exactly the pairs whose dimension-0 intervals overlap — the block sweep
merely finds them by binary search instead of by queue replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.core.filtering import DEFAULT_MAX_ROUNDS, iterative_filter
from repro.core.prediction import PredictionMatrix
from repro.geometry import BoxArray, Rect
from repro.index.node import PageIndex
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "SweepStats",
    "block_sweep_pairs",
    "marked_box_pairs",
    "build_prediction_matrix",
]


@dataclass
class SweepStats:
    """Work counters of one matrix construction (drives CPU accounting)."""

    endpoints_processed: int = 0
    intersection_tests: int = 0
    node_pairs_expanded: int = 0
    leaf_pairs_marked: int = 0
    filter_rounds: int = 0
    filtered_children: int = 0

    @property
    def total_operations(self) -> int:
        """A single scalar "operations" figure for the CPU cost model."""
        return (
            self.endpoints_processed
            + self.intersection_tests
            + self.node_pairs_expanded
            + self.filter_rounds
        )


def block_sweep_pairs(
    left: BoxArray,
    right: BoxArray,
    stats: Optional[SweepStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All intersecting cross pairs of two box arrays, as index arrays.

    Returns ``(i, j)`` with box ``left[i[k]]`` intersecting ``right[j[k]]``.
    Boxes are closed: touching boxes count as intersecting.  Pairs appear
    exactly once, in deterministic (but unspecified) order.

    Dimension-0 candidates are found by sorted binary search.  A cross
    pair overlaps in dimension 0 iff the later-starting box starts no
    later than the other ends, so every overlapping pair is found exactly
    once by two one-sided range queries against the sorted starts:

    * right boxes starting within ``[left.lo0, left.hi0]`` (ties: a right
      box starting exactly at a left start belongs here), and
    * left boxes starting within ``(right.lo0, right.hi0]``.
    """
    n, m = len(left), len(right)
    if stats is not None:
        stats.endpoints_processed += 2 * (n + m)
    if n == 0 or m == 0:
        return _EMPTY_PAIRS
    l_lo0, l_hi0 = left.lo[:, 0], left.hi[:, 0]
    r_lo0, r_hi0 = right.lo[:, 0], right.hi[:, 0]
    order_l = np.argsort(l_lo0, kind="stable")
    order_r = np.argsort(r_lo0, kind="stable")
    sorted_l_lo = l_lo0[order_l]
    sorted_r_lo = r_lo0[order_r]

    a_i, a_j = _expand_ranges(
        np.searchsorted(sorted_r_lo, l_lo0, side="left"),
        np.searchsorted(sorted_r_lo, l_hi0, side="right"),
        order_r,
    )
    b_j, b_i = _expand_ranges(
        np.searchsorted(sorted_l_lo, r_lo0, side="right"),
        np.searchsorted(sorted_l_lo, r_hi0, side="right"),
        order_l,
    )
    cand_i = np.concatenate([a_i, b_i])
    cand_j = np.concatenate([a_j, b_j])
    if stats is not None:
        # Counted in blocks: one "test" per dimension-0-overlapping pair,
        # exactly the pairs the event sweep tested one at a time.
        stats.intersection_tests += cand_i.size
    if left.dim > 1 and cand_i.size:
        ok = np.all(left.lo[cand_i, 1:] <= right.hi[cand_j, 1:], axis=1)
        ok &= np.all(right.lo[cand_j, 1:] <= left.hi[cand_i, 1:], axis=1)
        cand_i = cand_i[ok]
        cand_j = cand_j[ok]
    return cand_i, cand_j


_EMPTY_PAIRS = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


def _expand_ranges(
    start: np.ndarray, end: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-owner ``[start, end)`` ranges over ``order`` into pairs.

    Returns ``(owners, members)``: owner ``k`` repeated ``end[k]-start[k]``
    times alongside ``order[start[k]:end[k]]``.
    """
    counts = end - start
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_PAIRS
    owners = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    members = order[np.repeat(start, counts) + within]
    return owners, members


def marked_box_pairs(
    left: BoxArray,
    right: BoxArray,
    epsilon: float,
    stats: Optional[SweepStats] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The mark predicate of :func:`build_prediction_matrix` over leaf boxes.

    Returns every ``(i, j)`` whose ε/2-extended boxes intersect — exactly
    the entries a full hierarchy descent at threshold ``epsilon`` would
    mark for these leaves, regardless of tree shape or filter depth (the
    descent and the iterative filter only prune *node pair* visits; the
    final marked set is always the extended-leaf-box intersections).

    This is the incremental-delta primitive: appending pages to a
    resident dataset patches its prediction matrices by sweeping just the
    new/changed leaf boxes against the other side's resident bounds and
    ``mark_many``-ing the result, instead of rebuilding from the roots.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    half = epsilon / 2.0
    return block_sweep_pairs(left.extend(half), right.extend(half), stats)


def build_prediction_matrix(
    index_r: PageIndex,
    index_s: PageIndex,
    epsilon: float,
    max_filter_rounds: int = DEFAULT_MAX_ROUNDS,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[PredictionMatrix, SweepStats]:
    """Figure 1's algorithm PM over two index hierarchies.

    The matrix has one row per page of ``index_r`` and one column per
    page of ``index_s``.  ``max_filter_rounds=0`` disables the iterative
    filter entirely (ablation support).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    matrix = PredictionMatrix(index_r.num_pages, index_s.num_pages)
    stats = SweepStats()
    half = epsilon / 2.0
    with recorder.span("matrix.sweep"):
        _descend(
            _Span.root(index_r),
            _Span.root(index_s),
            half,
            matrix,
            stats,
            max_filter_rounds,
            recorder,
        )
    recorder.count("sweep.endpoints_processed", stats.endpoints_processed)
    recorder.count("sweep.candidate_pairs", stats.intersection_tests)
    recorder.count("sweep.node_pairs_expanded", stats.node_pairs_expanded)
    recorder.count("sweep.leaf_pairs_marked", stats.leaf_pairs_marked)
    recorder.count("filter.rounds", stats.filter_rounds)
    recorder.count("filter.children_filtered", stats.filtered_children)
    return matrix, stats


class _Span(NamedTuple):
    """One side of a descent level: rows ``[start, stop)`` of one index level.

    ``cover`` is the tight union of those rows — the parent's row, which
    the packer built as exactly that union, so the filter never
    re-reduces it.
    """

    index: PageIndex
    level: int
    start: int
    stop: int
    cover: Rect

    @classmethod
    def root(cls, index: PageIndex) -> "_Span":
        return cls(index, index.height, 0, 1, index.levels[-1].rect(0))

    def bounds(self) -> BoxArray:
        return self.index.levels[self.level][self.start : self.stop]

    def children(self, row: int) -> "_Span":
        """Row ``row``'s children — or the row itself when it is a leaf."""
        cover = self.index.levels[self.level].rect(row)
        if self.level == 0:
            return _Span(self.index, 0, row, row + 1, cover)
        start, stop = self.index.children(self.level, row)
        return _Span(self.index, self.level - 1, start, stop, cover)


def _descend(
    span_r: _Span,
    span_s: _Span,
    half_epsilon: float,
    matrix: PredictionMatrix,
    stats: SweepStats,
    max_filter_rounds: int,
    recorder: Recorder = NULL_RECORDER,
) -> None:
    extended_r = span_r.bounds().extend(half_epsilon)
    extended_s = span_s.bounds().extend(half_epsilon)
    if recorder.enabled:
        recorder.observe("sweep.block_size", len(extended_r) + len(extended_s))

    if max_filter_rounds > 0 and len(extended_r) > 1 and len(extended_s) > 1:
        with recorder.span("matrix.filter"):
            outcome = iterative_filter(
                extended_r,
                extended_s,
                max_filter_rounds,
                cover_left=span_r.cover.extend(half_epsilon),
                cover_right=span_s.cover.extend(half_epsilon),
                recorder=recorder,
            )
        stats.filter_rounds += outcome.rounds
        stats.filtered_children += int((~outcome.keep_left).sum()) + int(
            (~outcome.keep_right).sum()
        )
        kept_r = np.nonzero(outcome.keep_left)[0]
        kept_s = np.nonzero(outcome.keep_right)[0]
        idx_i, idx_j = block_sweep_pairs(extended_r[kept_r], extended_s[kept_s], stats)
        idx_i, idx_j = kept_r[idx_i], kept_s[idx_j]
    else:
        idx_i, idx_j = block_sweep_pairs(extended_r, extended_s, stats)

    if idx_i.size == 0:
        return
    rows_r = span_r.start + idx_i
    rows_s = span_s.start + idx_j
    if span_r.level == 0 and span_s.level == 0:
        # Only level 0 holds leaves: both rows are pages, so mark the pair.
        matrix.mark_many(rows_r, rows_s)
        stats.leaf_pairs_marked += int(idx_i.size)
        return
    stats.node_pairs_expanded += int(idx_i.size)
    for a, b in zip(rows_r.tolist(), rows_s.tolist()):
        _descend(
            span_r.children(a),
            span_s.children(b),
            half_epsilon,
            matrix,
            stats,
            max_filter_rounds,
            recorder,
        )
