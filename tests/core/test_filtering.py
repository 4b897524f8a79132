"""Unit tests for the iterative MBR filter."""

import numpy as np
import pytest

from repro.core.filtering import iterative_filter
from repro.geometry import Rect
from tests.oracles.brinkhoff import brinkhoff_filter


def paper_figure2_children():
    """A layout in the spirit of Figure 2: two node groups, partial overlap."""
    left = [
        Rect([0, 4], [2, 6]),    # R1: far from the overlap
        Rect([1, 1], [3, 3]),    # R2: inside overlap region
        Rect([4, 0], [6, 1.5]),  # R3
        Rect([2, 2], [4, 4]),    # R4: central
        Rect([0, 0], [1, 1]),    # R5: corner
        Rect([5, 4], [6, 6]),    # R6
    ]
    right = [
        Rect([2.5, 2.5], [4.5, 4.5]),  # S1: overlaps R4
        Rect([7, 7], [9, 9]),          # S2: far away
        Rect([3, 1], [5, 2]),          # S3
        Rect([8, 0], [9, 1]),          # S4: far away
        Rect([2, 5], [3, 7]),          # S5
        Rect([6, 6], [7, 8]),          # S6
    ]
    return left, right


class TestCorrectness:
    def test_never_drops_an_intersecting_pair(self, rng):
        """The load-bearing guarantee: filtered-out children cannot
        intersect any child on the other side."""
        for trial in range(30):
            left = [_random_rect(rng) for _ in range(8)]
            right = [_random_rect(rng) for _ in range(8)]
            outcome = iterative_filter(left, right)
            for i, a in enumerate(left):
                for j, b in enumerate(right):
                    if a.intersects(b):
                        assert outcome.keep_left[i], f"dropped left {i} (trial {trial})"
                        assert outcome.keep_right[j], f"dropped right {j} (trial {trial})"

    def test_disjoint_covers_filter_everything(self):
        left = [Rect([0, 0], [1, 1])]
        right = [Rect([5, 5], [6, 6])]
        outcome = iterative_filter(left, right)
        assert not outcome.keep_left.any()
        assert not outcome.keep_right.any()

    def test_empty_inputs(self):
        outcome = iterative_filter([], [Rect([0, 0], [1, 1])])
        assert outcome.surviving_pairs == 0


class TestStrength:
    def test_at_least_as_strong_as_brinkhoff(self, rng):
        for _ in range(30):
            left = [_random_rect(rng) for _ in range(8)]
            right = [_random_rect(rng) for _ in range(8)]
            ours = iterative_filter(left, right, max_rounds=1)
            theirs = brinkhoff_filter(left, right)
            # Anything we keep, Brinkhoff keeps too (we filter a subset).
            assert not np.any(ours.keep_left & ~theirs.keep_left)
            assert not np.any(ours.keep_right & ~theirs.keep_right)

    def test_figure2_style_reduction(self):
        left, right = paper_figure2_children()
        theirs = brinkhoff_filter(left, right)
        ours = iterative_filter(left, right)
        assert ours.surviving_pairs <= theirs.surviving_pairs

    def test_more_rounds_never_weaker(self, rng):
        for _ in range(20):
            left = [_random_rect(rng) for _ in range(6)]
            right = [_random_rect(rng) for _ in range(6)]
            one = iterative_filter(left, right, max_rounds=1)
            five = iterative_filter(left, right, max_rounds=5)
            assert not np.any(five.keep_left & ~one.keep_left)
            assert not np.any(five.keep_right & ~one.keep_right)


class TestTermination:
    def test_round_cap_respected(self, rng):
        left = [_random_rect(rng) for _ in range(10)]
        right = [_random_rect(rng) for _ in range(10)]
        outcome = iterative_filter(left, right, max_rounds=5)
        assert outcome.rounds <= 5

    def test_fixed_point_stops_early(self):
        # Identical boxes: the first round changes nothing beyond clipping.
        boxes = [Rect([0, 0], [1, 1])] * 3
        outcome = iterative_filter(boxes, list(boxes), max_rounds=5)
        assert outcome.rounds < 5
        assert outcome.keep_left.all()

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            iterative_filter([Rect([0, 0], [1, 1])], [Rect([0, 0], [1, 1])], max_rounds=0)


def _random_rect(rng) -> Rect:
    lo = rng.uniform(0, 8, size=2)
    return Rect(lo, lo + rng.uniform(0.2, 3, size=2))
