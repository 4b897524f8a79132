"""Vectorized block sweep vs. brute force and vs. the reference sweep.

The prediction matrix is defined point-wise: page pair ``(i, j)`` is
marked iff the L∞ box distance between the two page MBRs is at most ε
(equivalently, the ε/2-extended boxes intersect).  The block sweep must
reproduce exactly that set on *any* hierarchy — including ε = 0, boxes
that touch exactly at distance ε, and duplicate coordinates that stress
the sorted-search tie handling — and must additionally match the frozen
reference implementation counter for counter.
"""

import numpy as np
import pytest

from repro.core.join import IndexedDataset
from repro.core.sweep import SweepStats, block_sweep_pairs, build_prediction_matrix
from repro.geometry import BoxArray, Rect
from tests.oracles.sweep_reference import build_prediction_matrix_reference


def brute_force_marks(index_r, index_s, epsilon):
    """All-pairs L∞ ``min_dist <= eps`` over the page MBRs."""
    dists = index_r.leaf_bounds().min_dist_matrix(index_s.leaf_bounds(), p=float("inf"))
    rows, cols = np.nonzero(dists <= epsilon)
    return set(zip(rows.tolist(), cols.tolist()))


def spatial_dataset(rng, n, d, page_capacity=8, duplicates=False, integer_grid=False):
    pts = rng.random((n, d))
    if integer_grid:
        # Small-integer coordinates: extended boxes touch *exactly* at
        # epsilon multiples, and coordinates repeat across points.
        pts = np.floor(pts * 6)
    if duplicates:
        # Repeat a block of points so leaf boxes share identical edges.
        pts[n // 2 :] = pts[: n - n // 2]
    return IndexedDataset.from_points(pts, page_capacity=page_capacity)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.3])
    def test_rstar_hierarchies(self, rng, d, epsilon):
        r = spatial_dataset(rng, 150, d)
        s = spatial_dataset(rng, 130, d)
        matrix, _ = build_prediction_matrix(r.index, s.index, epsilon)
        assert set(matrix.entries()) == brute_force_marks(r.index, s.index, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0])
    def test_touching_boxes_and_duplicate_coordinates(self, rng, epsilon):
        """Integer grids make ε-extended boxes touch exactly; duplicates
        make endpoint ties ubiquitous in the sorted sweep order."""
        r = spatial_dataset(rng, 120, 2, duplicates=True, integer_grid=True)
        s = spatial_dataset(rng, 120, 2, duplicates=True, integer_grid=True)
        matrix, _ = build_prediction_matrix(r.index, s.index, epsilon)
        assert set(matrix.entries()) == brute_force_marks(r.index, s.index, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 2.0])
    def test_mr_index_hierarchies(self, rng, epsilon):
        """Sequence-window hierarchies (MR-index) sweep identically."""
        series_r = rng.normal(size=700).cumsum()
        series_s = rng.normal(size=600).cumsum()
        r = IndexedDataset.from_time_series(series_r, window_length=8, windows_per_page=32)
        s = IndexedDataset.from_time_series(series_s, window_length=8, windows_per_page=32)
        matrix, _ = build_prediction_matrix(r.index, s.index, epsilon)
        assert set(matrix.entries()) == brute_force_marks(r.index, s.index, epsilon)

    def test_self_join_hierarchy(self, rng):
        ds = spatial_dataset(rng, 160, 3)
        matrix, _ = build_prediction_matrix(ds.index, ds.index, 0.1)
        assert set(matrix.entries()) == brute_force_marks(ds.index, ds.index, 0.1)


class TestAgainstReference:
    """Marks must be set-identical and SweepStats counter-identical."""

    @pytest.mark.parametrize("max_filter_rounds", [0, 1, 5])
    @pytest.mark.parametrize("d,epsilon", [(2, 0.1), (2, 0.0), (5, 0.4), (16, 1.0)])
    def test_marks_and_stats_identical(self, rng, d, epsilon, max_filter_rounds):
        r = spatial_dataset(rng, 200, d)
        s = spatial_dataset(rng, 180, d)
        got, got_stats = build_prediction_matrix(
            r.index, s.index, epsilon,
            max_filter_rounds=max_filter_rounds,
        )
        want, want_stats = build_prediction_matrix_reference(
            r.index, s.index, epsilon,
            max_filter_rounds=max_filter_rounds,
        )
        assert got == want
        assert got_stats == want_stats

    def test_duplicate_coordinates_stats_identical(self, rng):
        r = spatial_dataset(rng, 140, 2, duplicates=True, integer_grid=True)
        s = spatial_dataset(rng, 140, 2, duplicates=True, integer_grid=True)
        got, got_stats = build_prediction_matrix(r.index, s.index, 1.0)
        want, want_stats = build_prediction_matrix_reference(r.index, s.index, 1.0)
        assert got == want
        assert got_stats == want_stats


class TestBlockSweepPairs:
    def test_matches_intersects_matrix(self, rng):
        """The dimension-0 search + remaining-dims mask finds each
        intersecting pair exactly once."""
        for _ in range(20):
            left = BoxArray(
                lo := rng.uniform(0, 5, size=(12, 3)), lo + rng.uniform(0, 2, size=(12, 3))
            )
            right = BoxArray(
                lo2 := rng.uniform(0, 5, size=(10, 3)), lo2 + rng.uniform(0, 2, size=(10, 3))
            )
            i, j = block_sweep_pairs(left, right)
            got = sorted(zip(i.tolist(), j.tolist()))
            assert len(got) == len(set(got)), "pair emitted twice"
            want = sorted(zip(*map(list, np.nonzero(left.intersects_matrix(right)))))
            assert got == want

    def test_intersection_tests_counts_dim0_overlaps(self, rng):
        """Documented counter definition: one test per pair overlapping in
        dimension 0, exactly what the event sweep used to count."""
        lo_l = rng.uniform(0, 5, size=(15, 2))
        lo_r = rng.uniform(0, 5, size=(11, 2))
        left = BoxArray(lo_l, lo_l + rng.uniform(0, 2, size=(15, 2)))
        right = BoxArray(lo_r, lo_r + rng.uniform(0, 2, size=(11, 2)))
        stats = SweepStats()
        block_sweep_pairs(left, right, stats)
        dim0_overlaps = int(
            np.sum(
                (left.lo[:, None, 0] <= right.hi[None, :, 0])
                & (right.lo[None, :, 0] <= left.hi[:, None, 0])
            )
        )
        assert stats.intersection_tests == dim0_overlaps
        assert stats.endpoints_processed == 2 * (15 + 11)
