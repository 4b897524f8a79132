"""Unit tests for square clustering (SC)."""

import numpy as np
import pytest

from repro.core.prediction import PredictionMatrix
from repro.core.square import square_clustering


def random_matrix(rng, rows=30, cols=30, density=0.1):
    m = PredictionMatrix(rows, cols)
    mask = rng.random((rows, cols)) < density
    for r, c in zip(*np.nonzero(mask)):
        m.mark(int(r), int(c))
    if m.num_marked == 0:
        m.mark(0, 0)
    return m


class TestPartitionProperties:
    def test_every_entry_in_exactly_one_cluster(self, rng):
        for _ in range(10):
            matrix = random_matrix(rng)
            clusters, _ = square_clustering(matrix, buffer_pages=8)
            seen = [entry for cluster in clusters for entry in cluster.entries]
            assert sorted(seen) == sorted(matrix.entries())
            assert len(seen) == len(set(seen))

    def test_source_matrix_unmodified(self, rng):
        matrix = random_matrix(rng)
        before = matrix.num_marked
        square_clustering(matrix, buffer_pages=8)
        assert matrix.num_marked == before

    def test_clusters_fit_buffer(self, rng):
        for buffer_pages in (2, 4, 8, 16):
            matrix = random_matrix(rng, density=0.2)
            clusters, _ = square_clustering(matrix, buffer_pages=buffer_pages)
            for cluster in clusters:
                assert cluster.fits_in_buffer(buffer_pages), (
                    f"cluster {cluster} exceeds B={buffer_pages}"
                )

    def test_cluster_ids_sequential(self, rng):
        clusters, _ = square_clustering(random_matrix(rng), buffer_pages=8)
        assert [c.cluster_id for c in clusters] == list(range(len(clusters)))


class TestShape:
    def test_dense_matrix_yields_square_clusters(self):
        """On a fully dense region, SC should produce r = c = B/2 clusters."""
        matrix = PredictionMatrix(10, 10)
        for r in range(10):
            for c in range(10):
                matrix.mark(r, c)
        clusters, _ = square_clustering(matrix, buffer_pages=10)
        # The first (non-boundary) clusters are 5x5.
        big = [c for c in clusters if c.num_entries == 25]
        assert big, "expected at least one full 5x5 cluster"
        for cluster in big:
            assert len(cluster.rows) == 5
            assert len(cluster.cols) == 5

    def test_single_row_matrix(self):
        matrix = PredictionMatrix(1, 40)
        for c in range(40):
            matrix.mark(0, c)
        clusters, _ = square_clustering(matrix, buffer_pages=6)
        for cluster in clusters:
            assert len(cluster.rows) == 1
            assert cluster.num_pages <= 6

    def test_single_column_matrix(self):
        matrix = PredictionMatrix(40, 1)
        for r in range(40):
            matrix.mark(r, 0)
        clusters, _ = square_clustering(matrix, buffer_pages=6)
        seen = sorted(e for c in clusters for e in c.entries)
        assert seen == [(r, 0) for r in range(40)]

    def test_aspect_parameter(self, rng):
        matrix = random_matrix(rng, density=0.3)
        square, _ = square_clustering(matrix, buffer_pages=12, target_aspect=1.0)
        skewed, _ = square_clustering(matrix, buffer_pages=12, target_aspect=3.0)
        mean_rows_square = np.mean([len(c.rows) for c in square])
        mean_rows_skewed = np.mean([len(c.rows) for c in skewed])
        assert mean_rows_skewed >= mean_rows_square


class TestEdgeCases:
    def test_rejects_tiny_buffer(self):
        with pytest.raises(ValueError):
            square_clustering(PredictionMatrix(2, 2), buffer_pages=1)

    def test_rejects_bad_aspect(self):
        """NaN and inf used to reach round() and fail there."""
        matrix = PredictionMatrix(3, 3)
        matrix.mark(1, 1)
        for aspect in (0, -0.5, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="target_aspect must be a positive finite"):
                square_clustering(matrix, buffer_pages=4, target_aspect=aspect)

    def test_empty_matrix(self):
        clusters, stats = square_clustering(PredictionMatrix(5, 5), buffer_pages=4)
        assert clusters == []
        assert stats.clusters_built == 0

    def test_single_entry(self):
        matrix = PredictionMatrix(5, 5)
        matrix.mark(3, 3)
        clusters, _ = square_clustering(matrix, buffer_pages=4)
        assert len(clusters) == 1
        assert clusters[0].entries == ((3, 3),)

    def test_minimum_buffer_two(self):
        matrix = PredictionMatrix(3, 3)
        for k in range(3):
            matrix.mark(k, k)
        clusters, _ = square_clustering(matrix, buffer_pages=2)
        assert sum(c.num_entries for c in clusters) == 3
        for cluster in clusters:
            assert cluster.num_pages <= 2

    def test_stats_counted(self, rng):
        _clusters, stats = square_clustering(random_matrix(rng), buffer_pages=8)
        assert stats.entries_scanned > 0
        assert stats.columns_scanned > 0
        assert stats.total_operations > 0
