"""Unit tests for the Rect geometry primitive."""

import math

import pytest

from repro.geometry import Rect, union_all


class TestConstruction:
    def test_basic(self):
        rect = Rect([0, 0], [2, 3])
        assert rect.dim == 2
        assert rect.lo.tolist() == [0.0, 0.0] and rect.hi.tolist() == [2.0, 3.0]

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Rect([1, 0], [0, 1])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            Rect([0, 0], [1, 1, 1])


class TestPredicates:
    def test_intersects_overlap(self):
        assert Rect([0, 0], [2, 2]).intersects(Rect([1, 1], [3, 3]))

    def test_intersects_touching_edges(self):
        # Closed rectangles: shared boundary counts.
        assert Rect([0, 0], [1, 1]).intersects(Rect([1, 0], [2, 1]))

    def test_disjoint(self):
        assert not Rect([0, 0], [1, 1]).intersects(Rect([2, 2], [3, 3]))

    def test_disjoint_in_one_dim_only(self):
        assert not Rect([0, 0], [1, 1]).intersects(Rect([0.2, 5], [0.8, 6]))


class TestOperations:
    def test_intersection(self):
        overlap = Rect([0, 0], [2, 2]).intersection(Rect([1, 1], [3, 3]))
        assert overlap == Rect([1, 1], [2, 2])

    def test_intersection_disjoint_is_none(self):
        assert Rect([0, 0], [1, 1]).intersection(Rect([2, 2], [3, 3])) is None

    def test_union(self):
        combined = Rect([0, 0], [1, 1]).union(Rect([2, 2], [3, 3]))
        assert combined == Rect([0, 0], [3, 3])

    def test_extend(self):
        grown = Rect([1, 1], [2, 2]).extend(0.5)
        assert grown == Rect([0.5, 0.5], [2.5, 2.5])

    def test_extend_rejects_negative(self):
        with pytest.raises(ValueError):
            Rect([0, 0], [1, 1]).extend(-0.1)

    def test_union_all(self):
        rects = [Rect([k, 0], [k + 1, 1]) for k in range(4)]
        assert union_all(rects) == Rect([0, 0], [4, 1])

    def test_union_all_rejects_empty(self):
        with pytest.raises(ValueError):
            union_all([])


class TestDistances:
    def test_min_dist_disjoint_euclidean(self):
        a = Rect([0, 0], [1, 1])
        b = Rect([4, 5], [6, 7])
        assert a.min_dist(b) == pytest.approx(math.hypot(3, 4))

    def test_min_dist_overlapping_is_zero(self):
        assert Rect([0, 0], [2, 2]).min_dist(Rect([1, 1], [3, 3])) == 0.0

    def test_min_dist_linf(self):
        a = Rect([0, 0], [1, 1])
        b = Rect([4, 5], [6, 7])
        assert a.min_dist(b, p=float("inf")) == 4.0

    def test_min_dist_symmetry(self):
        a = Rect([0, 0], [1, 2])
        b = Rect([5, -3], [6, -1])
        assert a.min_dist(b) == pytest.approx(b.min_dist(a))


class TestExtensionIntersectionEquivalence:
    """Extending both boxes by eps/2 and testing intersection is exactly
    the L-infinity mindist <= eps test — the prediction matrix relies on
    this equivalence."""

    @pytest.mark.parametrize("eps", [0.0, 0.1, 1.0, 3.0])
    def test_equivalence(self, eps, rng):
        for _ in range(50):
            lo1 = rng.uniform(-5, 5, size=3)
            lo2 = rng.uniform(-5, 5, size=3)
            a = Rect(lo1, lo1 + rng.uniform(0, 2, size=3))
            b = Rect(lo2, lo2 + rng.uniform(0, 2, size=3))
            by_extension = a.extend(eps / 2).intersects(b.extend(eps / 2))
            by_mindist = a.min_dist(b, p=float("inf")) <= eps
            assert by_extension == by_mindist
