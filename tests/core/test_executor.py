"""Unit tests for the cluster executor."""

import numpy as np
import pytest

from repro.core.clusters import Cluster
from repro.core.executor import execute_clusters
from repro.storage.buffer import BufferPool
from repro.storage.page import VectorPagedDataset
from tests.oracles.joiners import EchoJoiner


@pytest.fixture
def datasets():
    r = VectorPagedDataset(
        np.arange(32, dtype=float).reshape(16, 2), objects_per_page=2, dataset_id="R"
    )
    s = VectorPagedDataset(
        np.arange(24, dtype=float).reshape(12, 2), objects_per_page=2, dataset_id="S"
    )
    return r, s


counting_joiner = EchoJoiner(comparisons=4, cpu=0.001)


class SpyJoiner(EchoJoiner):
    """An echo joiner that records the entries of every call."""

    def __init__(self) -> None:
        super().__init__(comparisons=4, cpu=0.001)
        self.calls = []

    def join_cluster(self, entries):
        self.calls.append(list(entries))
        return super().join_cluster(entries)


class TestExecution:
    def test_joins_every_entry(self, disk, datasets):
        r, s = datasets
        pool = BufferPool(disk, capacity=6)
        clusters = [
            Cluster(0, ((0, 0), (0, 1), (1, 0))),
            Cluster(1, ((5, 5), (6, 5))),
        ]
        outcome = execute_clusters(clusters, pool, r, s, counting_joiner)
        assert sorted(outcome.pairs) == [(0, 0), (0, 1), (1, 0), (5, 5), (6, 5)]
        assert outcome.num_pairs == 5
        assert outcome.cpu_seconds == pytest.approx(0.005)

    def test_lemma2_reads_equal_pages(self, disk, datasets):
        """Lemma 2: one batched load of r + c pages joins the cluster."""
        r, s = datasets
        pool = BufferPool(disk, capacity=6)
        cluster = Cluster(0, ((0, 0), (0, 1), (1, 0), (1, 1)))
        outcome = execute_clusters([cluster], pool, r, s, counting_joiner)
        assert outcome.pages_read == cluster.num_pages == 4
        assert disk.stats.transfers == 4

    def test_reuse_between_consecutive_clusters(self, disk, datasets):
        """Lemma 4: shared pages of consecutive clusters are not re-read."""
        r, s = datasets
        pool = BufferPool(disk, capacity=6)
        first = Cluster(0, ((0, 0), (1, 1)))   # pages R0,R1,S0,S1
        second = Cluster(1, ((1, 2), (2, 1)))  # pages R1,R2,S1,S2 — shares R1,S1
        outcome = execute_clusters([first, second], pool, r, s, counting_joiner)
        assert outcome.pages_read == 4 + 2
        assert outcome.pages_reused == 2
        assert outcome.pages_reused == first.shared_pages(second, "R", "S")

    def test_oversized_cluster_rejected(self, disk, datasets):
        r, s = datasets
        pool = BufferPool(disk, capacity=3)
        too_big = Cluster(0, ((0, 0), (1, 1)))  # 4 pages > 3
        with pytest.raises(ValueError):
            execute_clusters([too_big], pool, r, s, counting_joiner)

    def test_self_join_shared_page_counts_once(self, disk, datasets):
        r, _ = datasets
        pool = BufferPool(disk, capacity=6)
        diagonal = Cluster(0, ((2, 2), (2, 3)))
        outcome = execute_clusters([diagonal], pool, r, r, counting_joiner)
        # pages {2, 3} of the single dataset: two physical reads only.
        assert outcome.pages_read == 2

    def test_empty_schedule(self, disk, datasets):
        r, s = datasets
        pool = BufferPool(disk, capacity=6)
        outcome = execute_clusters([], pool, r, s, counting_joiner)
        assert outcome.pairs == []
        assert disk.stats.transfers == 0

    def test_one_cascade_per_schedule(self, disk, datasets):
        """Every scheduled page pair joins in one call, in schedule order."""
        r, s = datasets
        spy = SpyJoiner()
        clusters = [
            Cluster(0, ((5, 5), (6, 5))),
            Cluster(1, ((0, 0), (0, 1), (1, 0))),
        ]
        outcome = execute_clusters(clusters, BufferPool(disk, capacity=6), r, s, spy)
        assert spy.calls == [[(5, 5), (6, 5), (0, 0), (0, 1), (1, 0)]]
        assert list(outcome.pairs) == [(5, 5), (6, 5), (0, 0), (0, 1), (1, 0)]
        spy.calls.clear()
        execute_clusters([], BufferPool(disk, capacity=6), r, s, spy)
        assert spy.calls == []
