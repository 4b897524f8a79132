"""The shipped clustering pipeline vs. the frozen scalar reference.

SC's per-column sweep and the CSR work-matrix implementations of CC and
the sharing-graph scheduler must be *bit-identical* to the reference
implementations in ``tests/oracles/clusters_reference.py``: same
cluster assignments in the same growth order, same stats counters, same
sharing-graph weights and same greedy schedules — on random matrices of
varying shape, density, buffer size and aspect ratio, and on the
degenerate single-row / single-column shapes where the column sweep and
the rectangle growth hit their boundary branches.
"""

import numpy as np
import pytest

from repro.core.clusters import Cluster
from repro.core.costcluster import LinearDiskModelCost, cost_clustering
from repro.core.prediction import PredictionMatrix
from repro.core.schedule import greedy_cluster_order, schedule_savings, sharing_graph
from repro.core.square import square_clustering
from repro.costmodel import DEFAULT_COST_MODEL
from tests.oracles.clusters_reference import (
    cost_clustering_reference,
    greedy_cluster_order_reference,
    sharing_graph_reference,
    square_clustering_reference,
)


def random_matrix(rng, num_rows, num_cols, density):
    """A random sparse prediction matrix with at least one marked entry."""
    matrix = PredictionMatrix(num_rows, num_cols)
    mask = rng.random((num_rows, num_cols)) < density
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        rows = np.asarray([int(rng.integers(num_rows))])
        cols = np.asarray([int(rng.integers(num_cols))])
    matrix.mark_many(rows, cols)
    return matrix


def assert_clusters_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.cluster_id == w.cluster_id
        assert g.entries == w.entries


def linear_disk_closure(row_blocks, col_blocks, model):
    """The set-based page cost the reference evaluates, block for block.

    Mirrors ``SimulatedDisk.cost_of_read_set``: dedupe the physical
    blocks, sort, charge one seek per run.
    """

    def page_set_cost(rows, cols):
        blocks = sorted(
            {int(row_blocks[r]) for r in rows} | {int(col_blocks[c]) for c in cols}
        )
        if not blocks:
            return 0.0
        seeks = 1 + sum(1 for prev, cur in zip(blocks, blocks[1:]) if cur != prev + 1)
        return model.io_cost(transfers=len(blocks), seeks=seeks)

    return page_set_cost


SHAPES = [
    (1, 1, 1.0),
    (1, 24, 0.5),  # single row: phase 1 picks it immediately
    (24, 1, 0.5),  # single column: every cluster is that column
    (8, 8, 0.8),
    (20, 20, 0.15),
    (30, 12, 0.3),
    (12, 30, 0.3),
    (40, 40, 0.05),
]


class TestSquareClusteringEquivalence:
    @pytest.mark.parametrize("num_rows,num_cols,density", SHAPES)
    @pytest.mark.parametrize("buffer_pages", [2, 3, 7, 16])
    def test_random_matrices(self, rng, num_rows, num_cols, density, buffer_pages):
        matrix = random_matrix(rng, num_rows, num_cols, density)
        got, got_stats = square_clustering(matrix, buffer_pages)
        want, want_stats = square_clustering_reference(matrix, buffer_pages)
        assert_clusters_identical(got, want)
        assert got_stats == want_stats

    @pytest.mark.parametrize("target_aspect", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_aspect_ratios(self, rng, target_aspect):
        matrix = random_matrix(rng, 25, 25, 0.2)
        got, got_stats = square_clustering(matrix, 9, target_aspect=target_aspect)
        want, want_stats = square_clustering_reference(
            matrix, 9, target_aspect=target_aspect
        )
        assert_clusters_identical(got, want)
        assert got_stats == want_stats

    @pytest.mark.parametrize(
        "num_rows,num_cols,density,buffer_pages",
        [
            (128, 128, 1.0, 64),  # full density, large clusters
            (538, 538, 0.05, 100),  # landsat's matrix shape and buffer
        ],
    )
    def test_large_clusters(self, rng, num_rows, num_cols, density, buffer_pages):
        matrix = random_matrix(rng, num_rows, num_cols, density)
        got, got_stats = square_clustering(matrix, buffer_pages)
        want, want_stats = square_clustering_reference(matrix, buffer_pages)
        assert_clusters_identical(got, want)
        assert got_stats == want_stats

    def test_matrix_not_mutated(self, rng):
        matrix = random_matrix(rng, 15, 15, 0.3)
        before = list(matrix.entries())
        square_clustering(matrix, 6)
        assert list(matrix.entries()) == before

    def test_every_entry_in_exactly_one_cluster(self, rng):
        matrix = random_matrix(rng, 20, 20, 0.25)
        clusters, _ = square_clustering(matrix, 8)
        seen = [e for c in clusters for e in c.entries]
        assert sorted(seen) == sorted(matrix.entries())
        assert len(seen) == len(set(seen))


class TestCostClusteringEquivalence:
    @pytest.mark.parametrize("num_rows,num_cols,density", SHAPES)
    @pytest.mark.parametrize("buffer_pages", [2, 5, 12])
    def test_generic_callback(self, rng, num_rows, num_cols, density, buffer_pages):
        """Any plain (rows, cols) -> float callback: both sides call it."""
        matrix = random_matrix(rng, num_rows, num_cols, density)

        def page_set_cost(rows, cols):
            return float(len(rows) + 2 * len(cols))

        got, got_stats = cost_clustering(
            matrix, buffer_pages, page_set_cost, rng=np.random.default_rng(7)
        )
        want, want_stats = cost_clustering_reference(
            matrix, buffer_pages, page_set_cost, rng=np.random.default_rng(7)
        )
        assert_clusters_identical(got, want)
        assert got_stats == want_stats

    @pytest.mark.parametrize("num_rows,num_cols,density", SHAPES)
    @pytest.mark.parametrize("col_base_offset", [0, 1000])
    def test_incremental_disk_model(
        self, rng, num_rows, num_cols, density, col_base_offset
    ):
        """The incremental LinearDiskModelCost path vs. the reference fed
        the equivalent set-based closure.  ``col_base_offset=0`` overlays
        both extents on the same blocks (the self-join layout)."""
        matrix = random_matrix(rng, num_rows, num_cols, density)
        row_blocks = np.arange(num_rows, dtype=np.int64)
        col_blocks = col_base_offset + np.arange(num_cols, dtype=np.int64)
        spec = LinearDiskModelCost(row_blocks, col_blocks, DEFAULT_COST_MODEL)
        closure = linear_disk_closure(row_blocks, col_blocks, DEFAULT_COST_MODEL)
        for buffer_pages in (2, 6, 14):
            got, got_stats = cost_clustering(
                matrix, buffer_pages, spec, rng=np.random.default_rng(3)
            )
            want, want_stats = cost_clustering_reference(
                matrix, buffer_pages, closure, rng=np.random.default_rng(3)
            )
            assert_clusters_identical(got, want)
            assert got_stats == want_stats

    @pytest.mark.parametrize("histogram_bins", [1, 4, 32])
    def test_histogram_bins_and_default_rng(self, rng, histogram_bins):
        matrix = random_matrix(rng, 18, 22, 0.2)

        def page_set_cost(rows, cols):
            return float(len(set(rows) | {c + 100 for c in cols}))

        got, got_stats = cost_clustering(
            matrix, 8, page_set_cost, histogram_bins=histogram_bins
        )
        want, want_stats = cost_clustering_reference(
            matrix, 8, page_set_cost, histogram_bins=histogram_bins
        )
        assert_clusters_identical(got, want)
        assert got_stats == want_stats

    def test_matrix_not_mutated(self, rng):
        matrix = random_matrix(rng, 12, 12, 0.3)
        before = list(matrix.entries())
        cost_clustering(matrix, 6, lambda rows, cols: float(len(rows) + len(cols)))
        assert list(matrix.entries()) == before


def random_clusters(rng, count, page_space=30):
    clusters = []
    for cid in range(count):
        n = int(rng.integers(1, 10))
        entries = tuple(
            sorted(
                {
                    (int(r), int(c))
                    for r, c in zip(
                        rng.integers(0, page_space, size=n),
                        rng.integers(0, page_space, size=n),
                    )
                }
            )
        )
        clusters.append(Cluster(cluster_id=cid, entries=entries))
    return clusters


class TestSharingGraphEquivalence:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 20])
    @pytest.mark.parametrize("self_join", [False, True])
    def test_graph_and_order_identical(self, rng, count, self_join):
        clusters = random_clusters(rng, count)
        r_id = "d0"
        s_id = "d0" if self_join else "d1"
        assert sharing_graph(clusters, r_id, s_id) == sharing_graph_reference(
            clusters, r_id, s_id
        )
        got = greedy_cluster_order(clusters, r_id, s_id)
        want = greedy_cluster_order_reference(clusters, r_id, s_id)
        assert [c.cluster_id for c in got] == [c.cluster_id for c in want]
        assert schedule_savings(got, r_id, s_id) == schedule_savings(want, r_id, s_id)

    def test_disjoint_clusters_keep_creation_order(self):
        clusters = [
            Cluster(cluster_id=0, entries=((0, 0),)),
            Cluster(cluster_id=1, entries=((5, 5),)),
            Cluster(cluster_id=2, entries=((9, 9),)),
        ]
        ordered = greedy_cluster_order(clusters, "r", "s")
        assert [c.cluster_id for c in ordered] == [0, 1, 2]
        assert sharing_graph(clusters, "r", "s") == {}

    def test_self_join_dedupes_row_col_page(self):
        """In a self join a page marked as both row and column is one
        physical page, so it contributes 1 (not 2) to the edge weight."""
        a = Cluster(cluster_id=0, entries=((3, 3),))
        b = Cluster(cluster_id=1, entries=((3, 7), (7, 3)))
        assert sharing_graph([a, b], "d", "d") == {(0, 1): 1}
        assert sharing_graph([a, b], "d", "other") == {(0, 1): 2}


class TestEndToEndPipelineEquivalence:
    def test_sc_plus_schedule_identical(self, rng):
        matrix = random_matrix(rng, 30, 30, 0.12)
        got_clusters, _ = square_clustering(matrix, 10)
        want_clusters, _ = square_clustering_reference(matrix, 10)
        got = greedy_cluster_order(got_clusters, "r", "s")
        want = greedy_cluster_order_reference(want_clusters, "r", "s")
        assert [c.entries for c in got] == [c.entries for c in want]
