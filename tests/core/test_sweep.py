"""Unit tests for the plane sweep and prediction-matrix construction."""

import numpy as np
import pytest

from repro.core.join import IndexedDataset
from repro.core.sweep import block_sweep_pairs, build_prediction_matrix
from repro.geometry import BoxArray


def swept(left, right):
    i, j = block_sweep_pairs(left, right)
    return sorted(zip(i.tolist(), j.tolist()))


class TestSweepPairs:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            left, right = self._boxes(rng, 12), self._boxes(rng, 10)
            brute = [
                (a, b)
                for a, box_a in enumerate(left)
                for b, box_b in enumerate(right)
                if box_a.intersects(box_b)
            ]
            assert swept(left, right) == brute

    def test_touching_boxes_detected(self):
        left = BoxArray(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        right = BoxArray(np.array([[1.0, 0.0]]), np.array([[2.0, 1.0]]))
        assert swept(left, right) == [(0, 0)]

    def test_empty_sides(self):
        one = BoxArray(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert swept(BoxArray.empty(2), one) == []

    @staticmethod
    def _boxes(rng, n):
        lo = rng.uniform(0, 5, size=(n, 2))
        return BoxArray(lo, lo + rng.uniform(0, 2, size=(n, 2)))


class TestBuildPredictionMatrix:
    def test_completeness_theorem1_vectors(self, rng):
        """Theorem 1: every truly-joining object pair's page pair is marked."""
        pts_r = rng.random((150, 2))
        pts_s = rng.random((120, 2))
        r = IndexedDataset.from_points(pts_r, page_capacity=8)
        s = IndexedDataset.from_points(pts_s, page_capacity=8)
        epsilon = 0.15
        matrix, _ = build_prediction_matrix(r.index, s.index, epsilon)
        vec_r, vec_s = r.paged.vectors, s.paged.vectors
        for i in range(vec_r.shape[0]):
            dists = np.linalg.norm(vec_s - vec_r[i], axis=1)
            for j in np.nonzero(dists <= epsilon)[0]:
                page_r = r.paged.page_of_object(i)
                page_s = s.paged.page_of_object(int(j))
                assert matrix.is_marked(page_r, page_s)

    def test_zero_epsilon_still_complete(self, rng):
        pts = rng.random((60, 2))
        r = IndexedDataset.from_points(pts, page_capacity=8)
        s = IndexedDataset.from_points(pts.copy(), page_capacity=8)
        matrix, _ = build_prediction_matrix(r.index, s.index, 0.0)
        for i in range(60):
            page_r = r.paged.page_of_object(int(np.nonzero(r.index.order == i)[0][0]))
            # the same point exists in s; its page pair must be marked
            page_s = s.paged.page_of_object(int(np.nonzero(s.index.order == i)[0][0]))
            assert matrix.is_marked(page_r, page_s)

    def test_filter_depth_does_not_change_completeness(self, rng):
        pts_r = rng.random((100, 2))
        pts_s = rng.random((100, 2))
        r = IndexedDataset.from_points(pts_r, page_capacity=8)
        s = IndexedDataset.from_points(pts_s, page_capacity=8)
        m_nofilter, _ = build_prediction_matrix(
            r.index, s.index, 0.1, max_filter_rounds=0
        )
        m_filtered, _ = build_prediction_matrix(
            r.index, s.index, 0.1, max_filter_rounds=5
        )
        # Filtering prunes *non-candidates* only: identical marks.
        assert m_nofilter == m_filtered

    def test_stats_populated(self, rng):
        r = IndexedDataset.from_points(rng.random((100, 2)), page_capacity=8)
        s = IndexedDataset.from_points(rng.random((100, 2)), page_capacity=8)
        matrix, stats = build_prediction_matrix(r.index, s.index, 0.1)
        assert stats.endpoints_processed > 0
        assert stats.intersection_tests > 0
        assert stats.leaf_pairs_marked == matrix.num_marked
        assert stats.total_operations > 0

    def test_rejects_negative_epsilon(self, rng):
        r = IndexedDataset.from_points(rng.random((20, 2)), page_capacity=8)
        with pytest.raises(ValueError):
            build_prediction_matrix(r.index, r.index, -0.1)

    def test_text_completeness(self, dna_dataset):
        """Theorem 1 chain for strings: ED <= eps => page pair marked."""
        from repro.distance.edit import edit_distance

        ds = dna_dataset.paged
        epsilon = 1
        matrix, _ = build_prediction_matrix(
            dna_dataset.index, dna_dataset.index,
            epsilon,
        )
        text = ds.sequence
        w = ds.window_length
        # Sample window pairs; any pair within edit distance 1 must have
        # its page pair marked.
        step = 17
        offsets = range(0, ds.num_windows, step)
        for p in offsets:
            for q in offsets:
                if edit_distance(text[p : p + w], text[q : q + w], max_dist=epsilon) <= epsilon:
                    assert matrix.is_marked(ds.page_of_offset(p), ds.page_of_offset(q))
