"""Unit tests for R*-tree range search and nearest neighbours."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.index.rstar import RStarTree


def _inserted(points, max_entries):
    tree = RStarTree(max_entries=max_entries)
    for k in range(points.shape[0]):
        tree.insert_point(points[k], k)
    return tree


@pytest.fixture(scope="module")
def tree_and_points():
    # Built once: 400 insertions take about a second, and no test mutates it.
    points = np.random.default_rng(12345).random((400, 2))
    return _inserted(points, 16), points


@pytest.fixture
def inserted_tree_and_points(rng):
    points = rng.random((150, 2))
    return _inserted(points, 8), points


class TestRangeSearch:
    @pytest.mark.parametrize("fixture", ["tree_and_points", "inserted_tree_and_points"])
    def test_matches_brute_force(self, fixture, request, rng):
        tree, points = request.getfixturevalue(fixture)
        for _ in range(10):
            lo = rng.random(2) * 0.8
            query = Rect(lo, lo + rng.random(2) * 0.3)
            expected = {
                k for k in range(points.shape[0]) if query.contains_point(points[k])
            }
            assert set(tree.range_search(query)) == expected

    def test_empty_region(self, tree_and_points):
        tree, _ = tree_and_points
        assert tree.range_search(Rect([5, 5], [6, 6])) == []

    def test_whole_space(self, tree_and_points):
        tree, points = tree_and_points
        assert sorted(tree.range_search(Rect([0, 0], [1, 1]))) == list(
            range(points.shape[0])
        )


class TestNearestNeighbours:
    def test_matches_brute_force(self, tree_and_points, rng):
        tree, points = tree_and_points
        for _ in range(10):
            query = rng.random(2)
            dists = np.linalg.norm(points - query, axis=1)
            for k in (1, 5, 10):
                expected = set(np.argsort(dists)[:k].tolist())
                got = set(tree.nearest_neighbours(query, k))
                # Distances can tie; compare by distance values instead.
                expected_d = sorted(dists[list(expected)])
                got_d = sorted(dists[list(got)])
                assert np.allclose(expected_d, got_d)

    def test_k_exceeds_size(self, rng):
        points = rng.random((5, 2))
        tree = _inserted(points, 4)
        assert sorted(tree.nearest_neighbours([0.5, 0.5], k=50)) == [0, 1, 2, 3, 4]

    def test_nearest_of_exact_point(self, tree_and_points):
        tree, points = tree_and_points
        nearest = tree.nearest_neighbours(points[7], k=1)
        assert nearest == [7]

    def test_rejects_bad_k(self, tree_and_points):
        tree, _ = tree_and_points
        with pytest.raises(ValueError):
            tree.nearest_neighbours([0.5, 0.5], k=0)
