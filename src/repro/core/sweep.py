"""Hierarchical plane sweep constructing the prediction matrix (Figure 1).

The algorithm descends two MBR hierarchies in lock-step.  For a pair of
intersecting internal nodes it goes on to their children; for a pair of
intersecting leaves it marks the corresponding page pair.  The
hierarchies are :class:`~repro.index.node.PageIndex` level arrays: a
node's children are one contiguous row range of the level below.  At
every level the children are extended by ε/2, passed through the
iterative filter (Section 5.1), then swept along the first coordinate:
an intersection of ε/2-extended boxes is exactly the test "L∞ box
distance ≤ ε", which lower-bounds every L_p object distance as well as
the frequency/edit distance chain — hence Theorem 1 (no joining pair is
ever missed).

The descent runs one tree level at a time.  The frontier is the array of
(R row, S row) node pairs that intersected one level up; each pair's
children form one *segment* (a side already at leaf level keeps its own
row).  Each depth then makes one :func:`iterative_filter` call over
every segment with more than one child per side and one
:func:`block_sweep_pairs` call over the kept boxes of all segments, so
numpy sees a few level-sized blocks instead of one small block per node
pair.

The sweep itself is a **block sweep** over struct-of-arrays geometry
(:class:`~repro.geometry.BoxArray`): both sides are sorted by their
dimension-0 lower edge once, each box's dimension-0 overlap partners are
located with two ``np.searchsorted`` calls against the sorted starts, and
the surviving candidate block is reduced with one vectorised
remaining-dimension overlap mask.  With segments the sorted keys are
(segment, exact rank) pairs, so no search crosses a segment.  The
produced marks and every ``SweepStats`` counter are identical to the
original per-node-pair event sweep (``tests/oracles/sweep_reference.py``):
``endpoints_processed`` still counts two endpoints per swept box and
``intersection_tests`` still counts exactly the pairs whose dimension-0
intervals overlap — the block sweep merely finds them by binary search
instead of by queue replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.filtering import DEFAULT_MAX_ROUNDS, iterative_filter
from repro.core.prediction import PredictionMatrix
from repro.geometry import BoxArray
from repro.index.node import PageIndex
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "SweepStats",
    "block_sweep_pairs",
    "check_matrix_arguments",
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


def check_matrix_arguments(
    epsilon: float, max_filter_rounds: int = DEFAULT_MAX_ROUNDS
) -> None:
    """Raise ``ValueError`` for a NaN or negative ``epsilon`` or bad round count.

    ``max_filter_rounds`` must be a non-negative ``int`` (a ``bool`` is
    not one).  ``join()``, the serving session and the matrix builders
    call this before any work, so a bad argument never reaches a cache
    key.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if (
        isinstance(max_filter_rounds, bool)
        or not isinstance(max_filter_rounds, (int, np.integer))
        or max_filter_rounds < 0
    ):
        raise ValueError(
            f"max_filter_rounds must be a non-negative int, got {max_filter_rounds!r}"
        )


def block_sweep_pairs(
    left: BoxArray,
    right: BoxArray,
    stats: Optional[SweepStats] = None,
    segments: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All intersecting cross pairs of two box arrays, as index arrays.

    Returns ``(i, j)`` with box ``left[i[k]]`` intersecting ``right[j[k]]``.
    Boxes are closed: touching boxes count as intersecting.  Pairs appear
    exactly once, in deterministic (but unspecified) order.

    ``segments=(seg_left, seg_right)`` gives each box a segment id; only
    boxes of one segment pair up, exactly as if each segment were swept
    on its own.  Without it, every box is in one segment.

    Dimension-0 candidates are found by sorted binary search.  A cross
    pair overlaps in dimension 0 iff the later-starting box starts no
    later than the other ends, so every overlapping pair is found exactly
    once by two one-sided range queries against the sorted starts:

    * right boxes starting within ``[left.lo0, left.hi0]`` (ties: a right
      box starting exactly at a left start belongs here), and
    * left boxes starting within ``(right.lo0, right.hi0]``.

    With segments, the searches run on (segment, exact rank) keys, so they
    never cross a segment and ties behave as within one segment.
    """
    n, m = len(left), len(right)
    if stats is not None:
        stats.endpoints_processed += 2 * (n + m)
    if n == 0 or m == 0:
        return _EMPTY_PAIRS
    l_lo0, l_hi0 = left.lo[:, 0], left.hi[:, 0]
    r_lo0, r_hi0 = right.lo[:, 0], right.hi[:, 0]
    if segments is not None:
        l_lo0, l_hi0, r_lo0, r_hi0 = _segment_keys(
            segments, l_lo0, l_hi0, r_lo0, r_hi0
        )
    order_l = np.argsort(l_lo0, kind="stable")
    order_r = np.argsort(r_lo0, kind="stable")
    sorted_l_lo = l_lo0[order_l]
    sorted_r_lo = r_lo0[order_r]

    a_i, at_r = _expand_ranges(
        np.searchsorted(sorted_r_lo, l_lo0, side="left"),
        np.searchsorted(sorted_r_lo, l_hi0, side="right"),
    )
    b_j, at_l = _expand_ranges(
        np.searchsorted(sorted_l_lo, r_lo0, side="right"),
        np.searchsorted(sorted_l_lo, r_hi0, side="right"),
    )
    cand_i = np.concatenate([a_i, order_l[at_l]])
    cand_j = np.concatenate([order_r[at_r], b_j])
    if stats is not None:
        # Counted in blocks: one "test" per dimension-0-overlapping pair,
        # exactly the pairs the event sweep tested one at a time.
        stats.intersection_tests += cand_i.size
    if left.dim > 1 and cand_i.size:
        ok = _overlap_beyond_dim0(left, right, cand_i, cand_j)
        cand_i = cand_i[ok]
        cand_j = cand_j[ok]
    return cand_i, cand_j


_EMPTY_PAIRS = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)

# Candidate pairs are tested in blocks of about this many coordinates per
# gathered array, so a level with many candidates never gathers them all.
_TEST_BLOCK_ELEMENTS = 1 << 18


def _segment_keys(
    segments: Tuple[np.ndarray, np.ndarray], *edges: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Left lo/hi and right lo/hi edges as int64 keys ordered by (segment, value).

    Equal values share a rank, so ties compare exactly as the raw values.
    """
    seg_left, seg_right = segments
    values, rank = np.unique(np.concatenate(edges), return_inverse=True)
    owners = np.concatenate((seg_left, seg_left, seg_right, seg_right))
    keys = owners.astype(np.int64) * len(values) + rank
    n = len(edges[0])
    return tuple(np.split(keys, (n, 2 * n, 2 * n + len(edges[2]))))


def _overlap_beyond_dim0(
    left: BoxArray, right: BoxArray, cand_i: np.ndarray, cand_j: np.ndarray
) -> np.ndarray:
    """Which candidate pairs also overlap in dimensions ``1 … d−1``."""
    ok = np.empty(cand_i.size, dtype=bool)
    block = max(1, _TEST_BLOCK_ELEMENTS // (left.dim - 1))
    for start in range(0, cand_i.size, block):
        i = cand_i[start : start + block]
        j = cand_j[start : start + block]
        part = np.all(left.lo[i, 1:] <= right.hi[j, 1:], axis=1)
        part &= np.all(right.lo[j, 1:] <= left.hi[i, 1:], axis=1)
        ok[start : start + block] = part
    return ok


def _expand_ranges(start: np.ndarray, end: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every position of the ranges ``[start[k], end[k])``, with its ``k``.

    Returns ``(owners, positions)``: ``k`` repeated ``end[k]-start[k]``
    times alongside ``start[k], …, end[k]-1``.
    """
    counts = end - start
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_PAIRS
    owners = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    shift = start - (np.cumsum(counts) - counts)
    return owners, np.arange(total, dtype=np.int64) + np.repeat(shift, counts)


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
    check_matrix_arguments(epsilon)
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
    filter entirely (ablation support).  Raises ``ValueError`` for a
    negative or NaN ``epsilon`` and for ``max_filter_rounds`` that is not
    a non-negative int.
    """
    check_matrix_arguments(epsilon, max_filter_rounds)
    matrix = PredictionMatrix(index_r.num_pages, index_s.num_pages)
    stats = SweepStats()
    half = epsilon / 2.0
    with recorder.span("matrix.sweep"):
        tree_r = [level.extend(half) for level in index_r.levels]
        tree_s = [level.extend(half) for level in index_s.levels]
        level_r, level_s = index_r.height, index_s.height
        # Depth 0 is one segment: the two roots, each its own cover.
        rows_r = rows_s = seg_r = seg_s = np.zeros(1, dtype=np.int64)
        covers = (tree_r[level_r], tree_s[level_s])
        while True:
            hit_r, hit_s = _sweep_depth(
                (tree_r[level_r], rows_r, seg_r),
                (tree_s[level_s], rows_s, seg_s),
                covers,
                max_filter_rounds,
                stats,
                recorder,
            )
            if hit_r.size == 0:
                break
            if level_r == 0 and level_s == 0:
                # Only level 0 holds leaves: both rows are pages, so mark.
                matrix.mark_many(hit_r, hit_s)
                stats.leaf_pairs_marked += int(hit_r.size)
                break
            stats.node_pairs_expanded += int(hit_r.size)
            covers = (tree_r[level_r][hit_r], tree_s[level_s][hit_s])
            seg_r, rows_r, level_r = _children(index_r, level_r, hit_r)
            seg_s, rows_s, level_s = _children(index_s, level_s, hit_s)
    recorder.count("sweep.endpoints_processed", stats.endpoints_processed)
    recorder.count("sweep.candidate_pairs", stats.intersection_tests)
    recorder.count("sweep.node_pairs_expanded", stats.node_pairs_expanded)
    recorder.count("sweep.leaf_pairs_marked", stats.leaf_pairs_marked)
    recorder.count("filter.rounds", stats.filter_rounds)
    recorder.count("filter.children_filtered", stats.filtered_children)
    return matrix, stats


# One side of a depth: its ε/2-extended level, the rows gathered at this
# depth and each row's segment (the node pair it descends from).
_DepthSide = Tuple[BoxArray, np.ndarray, np.ndarray]


def _sweep_depth(
    side_r: _DepthSide,
    side_s: _DepthSide,
    covers: Tuple[BoxArray, BoxArray],
    max_filter_rounds: int,
    stats: SweepStats,
    recorder: Recorder,
) -> Tuple[np.ndarray, np.ndarray]:
    """Filter and sweep every segment of one depth; the intersecting row pairs.

    ``covers`` holds each segment's two parent boxes, the exact unions of
    its children.  Segments with more than one child per side are
    filtered first, all in one :func:`iterative_filter` call.
    """
    (level_r, rows_r, seg_r), (level_s, rows_s, seg_s) = side_r, side_s
    num_segments = len(covers[0])
    size_r = np.bincount(seg_r, minlength=num_segments)
    size_s = np.bincount(seg_s, minlength=num_segments)
    if recorder.enabled:
        recorder.observe_many("sweep.block_size", size_r + size_s)
    kept_r, kept_s = rows_r, rows_s
    filtered = (size_r > 1) & (size_s > 1)
    if max_filter_rounds > 0 and filtered.any():
        in_r, in_s = filtered[seg_r], filtered[seg_s]
        number = np.cumsum(filtered) - 1
        with recorder.span("matrix.filter"):
            outcome = iterative_filter(
                level_r[rows_r[in_r]],
                level_s[rows_s[in_s]],
                max_filter_rounds,
                cover_left=covers[0][filtered],
                cover_right=covers[1][filtered],
                recorder=recorder,
                segments=(number[seg_r[in_r]], number[seg_s[in_s]]),
            )
        stats.filter_rounds += outcome.rounds
        stats.filtered_children += int((~outcome.keep_left).sum()) + int(
            (~outcome.keep_right).sum()
        )
        keep_r, keep_s = ~in_r, ~in_s
        keep_r[in_r] = outcome.keep_left
        keep_s[in_s] = outcome.keep_right
        kept_r, kept_s = rows_r[keep_r], rows_s[keep_s]
        seg_r, seg_s = seg_r[keep_r], seg_s[keep_s]
    i, j = block_sweep_pairs(
        level_r[kept_r], level_s[kept_s], stats, segments=(seg_r, seg_s)
    )
    return kept_r[i], kept_s[j]


def _children(
    index: PageIndex, level: int, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The next depth under ``rows`` of ``level``: (segment, child row, level).

    Row ``k``'s children form segment ``k``; a leaf is its own child.
    """
    if level == 0:
        return np.arange(rows.size, dtype=np.int64), rows, 0
    owners, children = _expand_ranges(*index.children(level, rows))
    return owners, children, level - 1
