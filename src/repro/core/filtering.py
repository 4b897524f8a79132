"""Iterative MBR filtering (Section 5.1, Figure 2), segment-native.

Given two sets of child MBRs under a pair of index nodes, filter out the
children that cannot participate in any intersecting pair.  One round:

1. ``I``   = intersection of the two covering MBRs;
2. ``B_R`` = MBR covering ``I ∩ R_i`` over children ``R_i`` that meet ``I``
   (``B_S`` symmetric);
3. ``B_RS`` = ``B_R ∩ B_S``;
4. keep only children intersecting ``B_RS``, clip them to ``B_RS`` for the
   next round, and recompute the covering MBRs.

Repeated until a fixed point or ``max_rounds`` (the paper caps at K = 5 so
filtering stays linear time).  Because ``B_RS ⊆ I``, one round is already
at least as selective as the Brinkhoff et al. filter, which keeps
everything intersecting ``I`` (kept as a test oracle in
``tests/oracles/brinkhoff.py``).

One call filters many node pairs at once.  ``segments`` labels every
child with the node pair (segment) it belongs to; each segment's
children sit in one row of padded ``(segments, fanout, d)`` blocks, so
every round runs on all segments as whole-array operations: a segment's
box broadcasts over its children, and its covers are masked reductions
along one axis.  A segment leaves the working set when it empties,
reaches its fixed point or has run ``max_rounds`` rounds, so every
segment sees exactly the rounds it would see alone; the plane sweep
calls this once per tree level.  Without ``segments`` the call is the
one-segment case.  Covering boxes are never recomputed from scratch:
callers that already hold tight covers (the sweep holds the parent
MBRs) pass them via ``cover_left``/``cover_right`` for round 1, and each
round hands the covers of its survivors to the next round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.geometry import BoxArray, Rect, as_box_array
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["FilterOutcome", "iterative_filter"]

DEFAULT_MAX_ROUNDS = 5


@dataclass(frozen=True)
class FilterOutcome:
    """Which children survived the filter.

    ``keep_left[i]`` / ``keep_right[j]`` are boolean masks over the input
    child lists; ``rounds`` is how many refinement rounds actually ran,
    summed over segments.
    """

    keep_left: np.ndarray
    keep_right: np.ndarray
    rounds: int

    @property
    def surviving_pairs(self) -> int:
        """Candidate pair count after filtering (the paper's |R'| x |S'|)."""
        return int(self.keep_left.sum()) * int(self.keep_right.sum())


def _empty_outcome(n_left: int, n_right: int, rounds: int) -> FilterOutcome:
    return FilterOutcome(
        keep_left=np.zeros(n_left, dtype=bool),
        keep_right=np.zeros(n_right, dtype=bool),
        rounds=rounds,
    )


def iterative_filter(
    left: "BoxArray | Iterable[Rect]",
    right: "BoxArray | Iterable[Rect]",
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    cover_left: "Rect | BoxArray | None" = None,
    cover_right: "Rect | BoxArray | None" = None,
    recorder: Recorder = NULL_RECORDER,
    segments: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> FilterOutcome:
    """Run the paper's iterative filter over child-MBR sets.

    The inputs are the (already ε/2-extended) child boxes of index nodes,
    as a :class:`BoxArray` or any iterable of :class:`Rect`.  Children
    whose mask is ``False`` cannot intersect any child on the other side
    of their segment and are excluded from the plane sweep.

    ``segments=(seg_left, seg_right)`` gives each child's segment id:
    non-decreasing, numbered ``0 … k−1``, every segment with children on
    both sides.  Segments are filtered independently.  Without it, all
    children form one segment.

    ``cover_left``/``cover_right`` are optional *tight* covering boxes of
    each segment's children (their exact unions): a :class:`Rect` for one
    segment, a :class:`BoxArray` with one row per segment otherwise.  The
    sweep passes the parent MBRs here, which saves the first round's
    union reduction.  A loose cover would weaken round 1 and could change
    where a segment's rounds stop, so callers must only pass exact unions.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {max_rounds}")
    boxes_left = as_box_array(left)
    boxes_right = as_box_array(right)
    n_left, n_right = len(boxes_left), len(boxes_right)
    if n_left == 0 or n_right == 0:
        return _empty_outcome(n_left, n_right, rounds=0)
    if segments is None:
        segments = (np.zeros(n_left, dtype=np.int64), np.zeros(n_right, dtype=np.int64))
    sides = (
        _Side(boxes_left, segments[0], cover_left),
        _Side(boxes_right, segments[1], cover_right),
    )
    left_side, right_side = sides
    active = len(left_side.rows)
    rounds = 0
    for round_no in range(1, max_rounds + 1):
        rounds += active
        # Step 1: I = intersection of the covering MBRs.
        i_lo = np.maximum(left_side.cover_lo, right_side.cover_lo)
        i_hi = np.minimum(left_side.cover_hi, right_side.cover_hi)
        # Steps 2-3: B_RS = B_R ∩ B_S, where B_R is I ∩ the cover of the
        # children meeting I (clipping commutes with covering).  It is
        # empty when I is, or when no child of one side meets I.
        j_lo, j_hi = i_lo, i_hi
        for side in sides:
            b_lo, b_hi = side.cover_of(side.meeting(i_lo, i_hi))
            j_lo = np.maximum(j_lo, b_lo)
            j_hi = np.minimum(j_hi, b_hi)
        ok = np.all(j_lo <= j_hi, axis=1)
        # Step 4: drop children missing B_RS, clip survivors to it; their
        # covers carry over as the next round's covers.
        alive_l, changed_l = left_side.clip(j_lo, j_hi, ok)
        alive_r, changed_r = right_side.clip(j_lo, j_hi, ok)
        ok &= (alive_l > 0) & (alive_r > 0)
        if recorder.enabled:
            # Segments that end empty are not observed here; the sweep's
            # ``filter.children_filtered`` counter covers them.
            recorder.observe_many("filter.round_survivors", (alive_l + alive_r)[ok])
        # A segment goes on while it survives, still changes and has
        # rounds left; the others leave with their current survivors.
        going = ok & (changed_l | changed_r)
        if round_no == max_rounds:
            going[:] = False
        for side in sides:
            side.settle(ok & ~going, going)
        active = int(going.sum())
        if active == 0:
            break
    return FilterOutcome(left_side.keep, right_side.keep, rounds)


class _Side:
    """One side's working set: the children of the active segments.

    Segment ``k``'s children sit in row ``k`` of padded ``(k, f, d)``
    blocks, so a per-segment box broadcasts over its children and a
    per-segment reduction runs along axis 1.  ``rows`` maps slots back to
    input positions and ``alive`` marks the slots holding a child that is
    still in (padding never is).

    The blocks keep the *unclipped* children.  Each round's ``B_RS`` lies
    inside the previous round's (it lies in ``I``, which lies in the
    covers of children already clipped to the previous ``B_RS``), so a
    child clipped so far is exactly ``child ∩ B_RS`` of the last round;
    and since the next ``I`` and ``B_RS`` lie inside that too, testing or
    covering the unclipped child against them gives exactly what the
    clipped child would.  Only the covers carry the clipping forward.
    """

    def __init__(self, boxes: BoxArray, seg: np.ndarray, cover) -> None:
        counts = np.bincount(seg)
        slot = np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)
        shape = (counts.size, int(counts.max()))
        self.rows = np.zeros(shape, dtype=np.int64)
        self.rows[seg, slot] = np.arange(len(seg))
        self.alive = np.zeros(shape, dtype=bool)
        self.alive[seg, slot] = True
        self.lo = np.zeros(shape + (boxes.dim,))
        self.hi = np.zeros(shape + (boxes.dim,))
        self.lo[seg, slot] = boxes.lo
        self.hi[seg, slot] = boxes.hi
        self.keep = np.zeros(len(seg), dtype=bool)
        if cover is None:
            self.cover_lo, self.cover_hi = self.cover_of(self.alive)
        else:
            self.cover_lo = np.atleast_2d(cover.lo)
            self.cover_hi = np.atleast_2d(cover.hi)

    def meeting(self, region_lo: np.ndarray, region_hi: np.ndarray) -> np.ndarray:
        """``(k, f)``: which alive children meet their segment's region."""
        hit = self.lo <= region_hi[:, None, :]
        hit &= self.hi >= region_lo[:, None, :]
        return np.all(hit, axis=2) & self.alive

    def cover_of(self, members: np.ndarray):
        """Per-segment cover of the ``members`` children; (+inf, −inf) if none."""
        members = members[:, :, None]
        return (
            np.minimum.reduce(self.lo, axis=1, where=members, initial=np.inf),
            np.maximum.reduce(self.hi, axis=1, where=members, initial=-np.inf),
        )

    def clip(self, j_lo: np.ndarray, j_hi: np.ndarray, ok: np.ndarray):
        """Step 4: keep the children meeting ``B_RS``; per-segment (survivors, changed).

        Segments not ``ok`` lose every child.  A side is unchanged (no
        child dropped or clipped) exactly when ``B_RS`` equals its cover:
        ``B_RS`` lies inside the cover, and holds every child only if it
        holds their cover.
        """
        survives = self.meeting(j_lo, j_hi)
        survives &= ok[:, None]
        changed = np.any(j_lo != self.cover_lo, axis=1)
        changed |= np.any(j_hi != self.cover_hi, axis=1)
        c_lo, c_hi = self.cover_of(survives)
        self.cover_lo = np.maximum(c_lo, j_lo)
        self.cover_hi = np.minimum(c_hi, j_hi)
        self.alive = survives
        return survives.sum(axis=1), changed

    def settle(self, done: np.ndarray, going: np.ndarray) -> None:
        """Record the survivors of ``done`` segments; keep those of ``going``."""
        self.keep[self.rows[self.alive & done[:, None]]] = True
        self.rows, self.alive = self.rows[going], self.alive[going]
        self.lo, self.hi = self.lo[going], self.hi[going]
        self.cover_lo, self.cover_hi = self.cover_lo[going], self.cover_hi[going]
