"""Hierarchical plane sweep constructing the prediction matrix (Figure 1).

The algorithm descends two MBR hierarchies in lock-step.  For a pair of
intersecting internal nodes it recurses on their children; for a pair of
intersecting leaves it marks the corresponding page pair.  At every level
the children are first passed through the iterative filter (Section 5.1)
and extended by ε/2, then swept along the first coordinate: an
intersection of ε/2-extended boxes is exactly the test "L∞ box distance
≤ ε", which lower-bounds every L_p object distance as well as the
frequency/edit distance chain — hence Theorem 1 (no joining pair is ever
missed).

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
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.filtering import DEFAULT_MAX_ROUNDS, iterative_filter
from repro.core.prediction import PredictionMatrix
from repro.geometry import BoxArray, Rect
from repro.index.node import IndexNode
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "SweepStats",
    "sweep_pairs",
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


def sweep_pairs(
    left: Sequence[Tuple[Rect, object]],
    right: Sequence[Tuple[Rect, object]],
    stats: Optional[SweepStats] = None,
) -> Iterator[Tuple[object, object]]:
    """Plane sweep over ``(box, payload)`` lists, yielding payload pairs.

    The scalar-friendly wrapper around :func:`block_sweep_pairs`; pairs
    are yielded in (left index, right index) order.
    """
    boxes_l = BoxArray.from_rects([box for box, _payload in left])
    boxes_r = BoxArray.from_rects([box for box, _payload in right])
    idx_i, idx_j = block_sweep_pairs(boxes_l, boxes_r, stats)
    for k in np.lexsort((idx_j, idx_i)):
        yield left[idx_i[k]][1], right[idx_j[k]][1]


def build_prediction_matrix(
    root_r: IndexNode,
    root_s: IndexNode,
    epsilon: float,
    num_rows: int,
    num_cols: int,
    max_filter_rounds: int = DEFAULT_MAX_ROUNDS,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[PredictionMatrix, SweepStats]:
    """Figure 1's algorithm PM over two index hierarchies.

    ``num_rows`` / ``num_cols`` are the page counts of the two datasets
    (leaf counts of the hierarchies).  ``max_filter_rounds=0`` disables the
    iterative filter entirely (ablation support).
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    matrix = PredictionMatrix(num_rows, num_cols)
    stats = SweepStats()
    half = epsilon / 2.0
    with recorder.span("matrix.sweep"):
        _descend(
            _Group.of_single(root_r),
            _Group.of_single(root_s),
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


class _Group:
    """One side of a descent level: sibling nodes in struct-of-arrays form.

    ``cover`` is the tight union of ``bounds`` — for children groups it is
    cached on the parent node, so the filter never re-reduces it.
    """

    __slots__ = ("nodes", "bounds", "leaf_mask", "pages", "cover")

    def __init__(self, nodes, bounds, leaf_mask, pages, cover):
        self.nodes = nodes
        self.bounds = bounds
        self.leaf_mask = leaf_mask
        self.pages = pages
        self.cover = cover

    @classmethod
    def of_single(cls, node: IndexNode) -> "_Group":
        return cls(
            nodes=[node],
            bounds=BoxArray.from_rect(node.box),
            leaf_mask=np.asarray([node.is_leaf]),
            pages=np.asarray([node.page_no if node.page_no is not None else -1]),
            cover=node.box,
        )

    @classmethod
    def of_children(cls, node: IndexNode) -> "_Group":
        """The node's children — or the node itself when it is a leaf."""
        if node.is_leaf:
            return cls.of_single(node)
        return cls(
            nodes=node.children,
            bounds=node.children_bounds(),
            leaf_mask=node.children_leaf_mask(),
            pages=node.children_pages(),
            cover=node.children_cover(),
        )

    def __len__(self) -> int:
        return len(self.nodes)


def _descend(
    group_r: _Group,
    group_s: _Group,
    half_epsilon: float,
    matrix: PredictionMatrix,
    stats: SweepStats,
    max_filter_rounds: int,
    recorder: Recorder = NULL_RECORDER,
) -> None:
    extended_r = group_r.bounds.extend(half_epsilon)
    extended_s = group_s.bounds.extend(half_epsilon)
    if recorder.enabled:
        recorder.observe("sweep.block_size", len(group_r) + len(group_s))

    if max_filter_rounds > 0 and len(group_r) > 1 and len(group_s) > 1:
        with recorder.span("matrix.filter"):
            outcome = iterative_filter(
                extended_r,
                extended_s,
                max_filter_rounds,
                cover_left=group_r.cover.extend(half_epsilon),
                cover_right=group_s.cover.extend(half_epsilon),
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
    both_leaves = group_r.leaf_mask[idx_i] & group_s.leaf_mask[idx_j]
    if both_leaves.any():
        rows = group_r.pages[idx_i[both_leaves]]
        cols = group_s.pages[idx_j[both_leaves]]
        matrix.mark_many(rows, cols)
        stats.leaf_pairs_marked += int(both_leaves.sum())
    expand_i = idx_i[~both_leaves]
    expand_j = idx_j[~both_leaves]
    stats.node_pairs_expanded += expand_i.size
    for a, b in zip(expand_i.tolist(), expand_j.tolist()):
        _descend(
            _Group.of_children(group_r.nodes[a]),
            _Group.of_children(group_s.nodes[b]),
            half_epsilon,
            matrix,
            stats,
            max_filter_rounds,
            recorder,
        )
