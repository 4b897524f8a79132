"""The original per-``Rect`` matrix construction, kept as a reference.

This is the pre-vectorisation implementation of the hierarchical plane
sweep (event-queue dict sweep) and the iterative filter (``Rect | None``
working lists), frozen verbatim.  It is **not** used by the join path —
``repro.core.sweep`` runs the struct-of-arrays block sweep — but it
serves two purposes:

* the equivalence suite checks that the vectorised pipeline produces a
  set-identical :class:`PredictionMatrix` and identical ``SweepStats``
  on random hierarchies;
* the matrix-build micro-benchmark measures the vectorised pipeline's
  speedup against this implementation, honestly, on the same inputs.

Its input adapter (:func:`_node_view`) turns a
:class:`~repro.index.node.PageIndex`'s level arrays into the node objects
the frozen descent walks; everything below the adapter is unchanged.  An
optional ``observe(name, value)`` sink receives the histogram samples the
shipped pipeline records (``sweep.block_size`` once per node pair visited,
``filter.round_survivors`` once per filter round that leaves both sides
non-empty); it only watches, the algorithm is the frozen one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.filtering import DEFAULT_MAX_ROUNDS, FilterOutcome, _empty_outcome
from repro.core.prediction import PredictionMatrix
from repro.core.sweep import SweepStats
from repro.geometry import Rect, union_all
from repro.index.node import PageIndex

__all__ = ["build_prediction_matrix_reference"]


Observe = Callable[[str, int], None]


def _ignore(name: str, value: int) -> None:
    pass


def build_prediction_matrix_reference(
    index_r: PageIndex,
    index_s: PageIndex,
    epsilon: float,
    max_filter_rounds: int = DEFAULT_MAX_ROUNDS,
    observe: Observe = _ignore,
) -> Tuple[PredictionMatrix, SweepStats]:
    """Figure 1's algorithm PM, scalar-geometry edition."""
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    matrix = PredictionMatrix(index_r.num_pages, index_s.num_pages)
    stats = SweepStats()
    half = epsilon / 2.0
    _descend(
        [_node_view(index_r)], [_node_view(index_s)], half, matrix, stats,
        max_filter_rounds, observe,
    )
    return matrix, stats


# -- input adapter: level arrays -> node objects ---------------------------------


@dataclass
class IndexNode:
    """One node of the hierarchy: its box, children and (leaves) page."""

    box: Rect
    children: List["IndexNode"] = field(default_factory=list)
    page_no: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


def _node_view(index: PageIndex) -> IndexNode:
    """The root node of ``index``, built bottom-up from its level arrays."""
    nodes = [
        IndexNode(box=Rect(box.lo.copy(), box.hi.copy()), page_no=page_no)
        for page_no, box in enumerate(index.levels[0])
    ]
    for level in range(1, len(index.levels)):
        nodes = [
            IndexNode(
                box=Rect(box.lo.copy(), box.hi.copy()),
                children=nodes[slice(*index.children(level, row))],
            )
            for row, box in enumerate(index.levels[level])
        ]
    return nodes[0]


def _sweep_pairs(
    left: Sequence[Tuple[Rect, object]],
    right: Sequence[Tuple[Rect, object]],
    stats: SweepStats | None = None,
) -> Iterator[Tuple[object, object]]:
    """Event-queue plane sweep over dimension 0 (the original sweep)."""
    events: List[Tuple[float, int, int, int]] = []
    for idx, (box, _payload) in enumerate(left):
        events.append((float(box.lo[0]), 0, 0, idx))
        events.append((float(box.hi[0]), 1, 0, idx))
    for idx, (box, _payload) in enumerate(right):
        events.append((float(box.lo[0]), 0, 1, idx))
        events.append((float(box.hi[0]), 1, 1, idx))
    events.sort()

    active_left: dict[int, Tuple[Rect, object]] = {}
    active_right: dict[int, Tuple[Rect, object]] = {}
    for _coord, side_flag, which, idx in events:
        if stats is not None:
            stats.endpoints_processed += 1
        if which == 0:
            if side_flag == 1:
                active_left.pop(idx, None)
                continue
            box, payload = left[idx]
            active_left[idx] = (box, payload)
            for other_box, other_payload in active_right.values():
                if stats is not None:
                    stats.intersection_tests += 1
                if box.intersects(other_box):
                    yield payload, other_payload
        else:
            if side_flag == 1:
                active_right.pop(idx, None)
                continue
            box, payload = right[idx]
            active_right[idx] = (box, payload)
            for other_box, other_payload in active_left.values():
                if stats is not None:
                    stats.intersection_tests += 1
                if other_box.intersects(box):
                    yield other_payload, payload


def _descend(
    nodes_r: List[IndexNode],
    nodes_s: List[IndexNode],
    half_epsilon: float,
    matrix: PredictionMatrix,
    stats: SweepStats,
    max_filter_rounds: int,
    observe: Observe,
) -> None:
    extended_r = [_extend(node.box, half_epsilon) for node in nodes_r]
    extended_s = [_extend(node.box, half_epsilon) for node in nodes_s]
    observe("sweep.block_size", len(nodes_r) + len(nodes_s))

    if max_filter_rounds > 0 and len(nodes_r) > 1 and len(nodes_s) > 1:
        outcome = _iterative_filter(
            extended_r, extended_s, max_filter_rounds, observe
        )
        stats.filter_rounds += outcome.rounds
        stats.filtered_children += int((~outcome.keep_left).sum()) + int(
            (~outcome.keep_right).sum()
        )
        left_items = [
            (extended_r[k], nodes_r[k])
            for k in range(len(nodes_r))
            if outcome.keep_left[k]
        ]
        right_items = [
            (extended_s[k], nodes_s[k])
            for k in range(len(nodes_s))
            if outcome.keep_right[k]
        ]
    else:
        left_items = list(zip(extended_r, nodes_r))
        right_items = list(zip(extended_s, nodes_s))

    for node_r, node_s in _sweep_pairs(left_items, right_items, stats):
        assert isinstance(node_r, IndexNode) and isinstance(node_s, IndexNode)
        if node_r.is_leaf and node_s.is_leaf:
            assert node_r.page_no is not None and node_s.page_no is not None
            matrix.mark(node_r.page_no, node_s.page_no)
            stats.leaf_pairs_marked += 1
        else:
            stats.node_pairs_expanded += 1
            _descend(
                node_r.children if node_r.children else [node_r],
                node_s.children if node_s.children else [node_s],
                half_epsilon,
                matrix,
                stats,
                max_filter_rounds,
                observe,
            )


def _extend(box: Rect, amount: float) -> Rect:
    # The pre-optimisation extend: always allocates, even for amount == 0,
    # so the benchmark baseline stays what PR 1 actually shipped.
    return Rect._unchecked(box.lo - amount, box.hi + amount)


# -- the original Rect-list iterative filter -----------------------------------


def _iterative_filter(
    left: Sequence[Rect],
    right: Sequence[Rect],
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    observe: Observe = _ignore,
) -> FilterOutcome:
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    n_left, n_right = len(left), len(right)
    if n_left == 0 or n_right == 0:
        return _empty_outcome(n_left, n_right, rounds=0)

    work_left: List[Rect | None] = list(left)
    work_right: List[Rect | None] = list(right)
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        changed = _filter_round(work_left, work_right)
        if not _any_alive(work_left) or not _any_alive(work_right):
            return _empty_outcome(n_left, n_right, rounds)
        observe("filter.round_survivors", _alive_count(work_left) + _alive_count(work_right))
        if not changed:
            break
    return FilterOutcome(
        keep_left=np.asarray([box is not None for box in work_left], dtype=bool),
        keep_right=np.asarray([box is not None for box in work_right], dtype=bool),
        rounds=rounds,
    )


def _any_alive(boxes: List[Rect | None]) -> bool:
    return any(box is not None for box in boxes)


def _alive_count(boxes: List[Rect | None]) -> int:
    return sum(box is not None for box in boxes)


def _kill_all(boxes: List[Rect | None]) -> None:
    for k in range(len(boxes)):
        boxes[k] = None


def _filter_round(work_left: List[Rect | None], work_right: List[Rect | None]) -> bool:
    alive_left = [box for box in work_left if box is not None]
    alive_right = [box for box in work_right if box is not None]
    cover_left = union_all(alive_left)
    cover_right = union_all(alive_right)
    overlap = cover_left.intersection(cover_right)
    if overlap is None:
        _kill_all(work_left)
        _kill_all(work_right)
        return True

    bound_left = _covering_of_clips(alive_left, overlap)
    bound_right = _covering_of_clips(alive_right, overlap)
    if bound_left is None or bound_right is None:
        _kill_all(work_left)
        _kill_all(work_right)
        return True
    joint = bound_left.intersection(bound_right)
    if joint is None:
        _kill_all(work_left)
        _kill_all(work_right)
        return True

    changed = _clip_side(work_left, joint)
    changed |= _clip_side(work_right, joint)
    return changed


def _covering_of_clips(boxes: List[Rect], region: Rect) -> Rect | None:
    clips = [box.intersection(region) for box in boxes]
    alive = [clip for clip in clips if clip is not None]
    if not alive:
        return None
    return union_all(alive)


def _clip_side(work: List[Rect | None], joint: Rect) -> bool:
    changed = False
    for k, box in enumerate(work):
        if box is None:
            continue
        clipped = box.intersection(joint)
        if clipped is None:
            work[k] = None
            changed = True
        elif clipped != box:
            work[k] = clipped
            changed = True
    return changed
