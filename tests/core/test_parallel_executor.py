"""Parallel cluster execution: same answer, same simulated I/O as serial.

With ``workers > 1`` clusters are joined in shard worker processes
(:func:`~repro.core.executor.execute_clusters_sharded`), while all
buffer/disk traffic stays in the parent in serial order, so every
simulated counter — page reads, seeks, buffer hits, io seconds — is
identical to ``workers = 1``, and results merge in schedule order so
even the pairs *list* (not just the set) matches.
"""

import numpy as np
import pytest

from repro.core.clusters import Cluster
from repro.core.executor import execute_clusters, execute_clusters_sharded
from repro.core.join import IndexedDataset, join
from repro.core.joiners import NumericPagePairJoiner
from repro.distance.vector import MinkowskiDistance
from repro.obs import SHARDING_VARIANT_COUNTER_PREFIXES, InMemoryRecorder
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import VectorPagedDataset
from repro.storage.shm import shm_available


@pytest.fixture
def datasets():
    r = VectorPagedDataset(
        np.arange(32, dtype=float).reshape(16, 2), objects_per_page=2, dataset_id="R"
    )
    s = VectorPagedDataset(
        np.arange(24, dtype=float).reshape(12, 2), objects_per_page=2, dataset_id="S"
    )
    return r, s


@pytest.fixture
def joiner(cost_model, datasets):
    r, s = datasets
    return NumericPagePairJoiner(r, s, MinkowskiDistance(2), 3.0, cost_model, False)


CLUSTERS = [
    Cluster(0, ((0, 0), (0, 1), (1, 0))),
    Cluster(1, ((1, 1), (2, 2))),
    Cluster(2, ((5, 5), (6, 5), (7, 5))),
    Cluster(3, ((3, 3),)),
]


class TestExecutorParallelism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_outcome_identical_to_serial(self, cost_model, datasets, joiner, workers):
        r, s = datasets
        serial_disk = SimulatedDisk(cost_model)
        serial = execute_clusters(CLUSTERS, BufferPool(serial_disk, 8), r, s, joiner)
        parallel_disk = SimulatedDisk(cost_model)
        parallel = execute_clusters_sharded(
            CLUSTERS, BufferPool(parallel_disk, 8), r, s, joiner, workers=workers,
        )
        assert serial.pairs, "calibration: the clusters should hold results"
        assert parallel.pairs == serial.pairs  # order included
        assert parallel.num_pairs == serial.num_pairs
        assert parallel.comparisons == serial.comparisons
        assert parallel.cpu_seconds == serial.cpu_seconds
        assert parallel.pages_read == serial.pages_read
        assert parallel.pages_reused == serial.pages_reused
        assert parallel_disk.stats.transfers == serial_disk.stats.transfers
        assert parallel_disk.stats.seeks == serial_disk.stats.seeks
        assert parallel_disk.stats.buffer_hits == serial_disk.stats.buffer_hits
        assert parallel_disk.stats.io_seconds == serial_disk.stats.io_seconds

    def test_rejects_bad_worker_count(self, disk, datasets, joiner):
        r, s = datasets
        with pytest.raises(ValueError):
            execute_clusters_sharded([], BufferPool(disk, 8), r, s, joiner, workers=0)

    def test_oversized_cluster_still_rejected(self, disk, datasets, joiner):
        r, s = datasets
        too_big = Cluster(0, ((0, 0), (1, 1)))  # 4 pages > 3
        with pytest.raises(ValueError):
            execute_clusters_sharded(
                [too_big], BufferPool(disk, 3), r, s, joiner, workers=2
            )


def _report_counters(result):
    rep = result.report
    return (
        rep.page_reads,
        rep.seeks,
        rep.buffer_hits,
        rep.io_seconds,
        rep.cpu_seconds,
        rep.comparisons,
        rep.result_pairs,
    )


def _stable_counters(recorder):
    return {
        name: value
        for name, value in recorder.metrics_snapshot()["counters"].items()
        if not name.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
    }


def _inputs(kind):
    """A small join of each object kind: ``(r, s, epsilon, buffer_pages)``."""
    rng = np.random.default_rng(11)
    if kind == "vector":
        r = IndexedDataset.from_points(rng.random((400, 2)), page_capacity=16)
        s = IndexedDataset.from_points(rng.random((300, 2)), page_capacity=16)
        return r, s, 0.05, 10
    if kind == "text":
        text = "".join(rng.choice(list("ACGT"), size=1500))
        ds = IndexedDataset.from_string(text, window_length=12, windows_per_page=64)
        return ds, ds, 2, 8
    ds = IndexedDataset.from_time_series(
        rng.normal(size=600).cumsum(), window_length=12, windows_per_page=32,
        dtw_band=2,
    )
    return ds, ds, 0.5, 10


class TestJoinParallelism:
    """End-to-end: join(..., workers=k) replays workers=1 exactly."""

    @pytest.mark.skipif(
        not shm_available(), reason="platform without usable shared memory"
    )
    @pytest.mark.parametrize("kind", ["vector", "text", "dtw"])
    def test_workers_alone_shard(self, kind):
        """``workers=2`` without ``shard_strategy`` runs the sharded
        executor, and its pairs, report and counters equal serial's."""
        r, s, epsilon, buffer_pages = _inputs(kind)
        serial_rec, sharded_rec = InMemoryRecorder(), InMemoryRecorder()
        serial = join(r, s, epsilon, buffer_pages=buffer_pages, recorder=serial_rec)
        sharded = join(
            r, s, epsilon, buffer_pages=buffer_pages, workers=2, recorder=sharded_rec
        )
        assert sharded_rec.counter("executor.shards") >= 1
        assert serial.num_pairs > 0
        assert sharded.pairs == serial.pairs
        assert _report_counters(sharded) == _report_counters(serial)
        assert _stable_counters(sharded_rec) == _stable_counters(serial_rec)

    @pytest.mark.parametrize("method", ["sc", "cc", "rand-sc"])
    def test_spatial_join(self, rng, method):
        pts = rng.random((400, 2))
        r = IndexedDataset.from_points(pts, page_capacity=16, dataset_id="PR")
        s = IndexedDataset.from_points(rng.random((300, 2)), page_capacity=16, dataset_id="PS")
        serial = join(r, s, 0.05, method=method, buffer_pages=10, workers=1)
        parallel = join(r, s, 0.05, method=method, buffer_pages=10, workers=3)
        assert parallel.pairs == serial.pairs
        assert _report_counters(parallel) == _report_counters(serial)

    def test_text_join(self):
        rng = np.random.default_rng(7)
        text = "".join(rng.choice(list("ACGT"), size=1500))
        ds = IndexedDataset.from_string(
            text, window_length=12, windows_per_page=64, dataset_id="G"
        )
        serial = join(ds, ds, 2, method="sc", buffer_pages=8, workers=1)
        parallel = join(ds, ds, 2, method="sc", buffer_pages=8, workers=2)
        assert parallel.pairs == serial.pairs
        assert _report_counters(parallel) == _report_counters(serial)

    def test_dtw_join(self, rng):
        seq = rng.normal(size=600).cumsum()
        ds = IndexedDataset.from_time_series(
            seq, window_length=12, windows_per_page=32, dtw_band=2, dataset_id="W"
        )
        serial = join(ds, ds, 0.5, method="sc", buffer_pages=10, workers=1)
        parallel = join(ds, ds, 0.5, method="sc", buffer_pages=10, workers=2)
        assert parallel.pairs == serial.pairs
        assert _report_counters(parallel) == _report_counters(serial)
