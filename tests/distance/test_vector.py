"""Unit tests for Minkowski distances and the block pair kernel."""

import math

import numpy as np
import pytest

from repro.distance.vector import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
)
from repro.kernels.minkowski import minkowski_pair_arrays


def pairs_within(left, right, epsilon, p=2.0, **kwargs):
    """``minkowski_pair_arrays`` as a set of ``(i, j)`` tuples."""
    rows, cols = minkowski_pair_arrays(left, right, epsilon, p, **kwargs)
    return set(zip(rows.tolist(), cols.tolist()))


class TestScalar:
    def test_euclidean(self):
        assert EuclideanDistance().distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan(self):
        assert ManhattanDistance().distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert ChebyshevDistance().distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_p_three(self):
        d = MinkowskiDistance(3.0)
        assert d.distance([0], [2]) == pytest.approx(2.0)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            MinkowskiDistance(0.5)
        with pytest.raises(ValueError):
            MinkowskiDistance(float("nan"))


class TestPairsWithin:
    def test_brute_force_agreement(self, rng):
        left = rng.random((30, 3))
        right = rng.random((25, 3))
        d = EuclideanDistance()
        expected = {
            (i, j)
            for i in range(30)
            for j in range(25)
            if d.distance(left[i], right[j]) <= 0.4
        }
        assert pairs_within(left, right, 0.4) == expected

    def test_chunking_boundary(self, rng):
        # Force multiple chunks through the kernel's chunk size.
        left = rng.random((20, 2))
        right = rng.random((10, 2))
        chunked = minkowski_pair_arrays(left, right, 0.3, 2.0, chunk_rows=8)
        unchunked = minkowski_pair_arrays(left, right, 0.3, 2.0)
        assert chunked[0].size > 0
        assert np.array_equal(chunked[0], unchunked[0])
        assert np.array_equal(chunked[1], unchunked[1])

    def test_zero_epsilon_exact_matches(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert pairs_within(pts, pts.copy(), 0.0) == {(0, 0), (1, 1)}

    def test_comparison_weight_is_unit(self):
        assert EuclideanDistance().comparison_weight == 1.0
