"""BoxArray must agree with per-Rect geometry on every vectorised operation."""

import numpy as np
import pytest

from repro.geometry import BoxArray, Rect, as_box_array


def random_rects(rng, n, d=3):
    lo = rng.uniform(-5, 5, size=(n, d))
    return [Rect(lo[k], lo[k] + rng.uniform(0, 3, size=d)) for k in range(n)]


class TestConstruction:
    def test_from_rects_roundtrip(self, rng):
        rects = random_rects(rng, 7)
        boxes = BoxArray.from_rects(rects)
        assert len(boxes) == 7 and boxes.dim == 3
        assert list(boxes) == rects
        assert boxes[2] == rects[2]

    def test_empty(self):
        boxes = BoxArray.empty(4)
        assert len(boxes) == 0 and boxes.dim == 4
        assert list(BoxArray.from_rects([])) == []

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoxArray(np.ones((2, 2)), np.zeros((2, 2)))

    def test_fancy_indexing(self, rng):
        rects = random_rects(rng, 6)
        boxes = BoxArray.from_rects(rects)
        picked = boxes[np.array([4, 1])]
        assert list(picked) == [rects[4], rects[1]]
        masked = boxes[np.array([True, False, True, False, False, False])]
        assert list(masked) == [rects[0], rects[2]]

    def test_as_box_array_passthrough_and_coercion(self, rng):
        rects = random_rects(rng, 3)
        boxes = BoxArray.from_rects(rects)
        assert as_box_array(boxes) is boxes
        assert list(as_box_array(rects)) == rects


class TestVectorisedOps:
    def test_extend_matches_rect(self, rng):
        rects = random_rects(rng, 5)
        grown = BoxArray.from_rects(rects).extend(0.7)
        assert list(grown) == [rect.extend(0.7) for rect in rects]

    def test_extend_zero_returns_self(self, rng):
        boxes = BoxArray.from_rects(random_rects(rng, 4))
        assert boxes.extend(0.0) is boxes

    def test_extend_rejects_negative(self, rng):
        with pytest.raises(ValueError):
            BoxArray.from_rects(random_rects(rng, 2)).extend(-0.1)

    def test_intersects_matrix_matches_rect(self, rng):
        left = random_rects(rng, 8)
        right = random_rects(rng, 6)
        got = BoxArray.from_rects(left).intersects_matrix(BoxArray.from_rects(right))
        for i, a in enumerate(left):
            for j, b in enumerate(right):
                assert got[i, j] == a.intersects(b)

    @pytest.mark.parametrize("p", [1.0, 2.0, float("inf")])
    def test_min_dist_matrix_matches_rect(self, rng, p):
        left = random_rects(rng, 6)
        right = random_rects(rng, 5)
        got = BoxArray.from_rects(left).min_dist_matrix(BoxArray.from_rects(right), p)
        want = np.array([[a.min_dist(b, p) for b in right] for a in left])
        np.testing.assert_allclose(got, want)


class TestRectExtendShortcut:
    def test_extend_zero_returns_self(self):
        rect = Rect([0, 1], [2, 3])
        assert rect.extend(0.0) is rect

    def test_extend_nonzero_allocates(self):
        rect = Rect([0, 1], [2, 3])
        grown = rect.extend(0.5)
        assert grown is not rect
        assert grown == Rect([-0.5, 0.5], [2.5, 3.5])
