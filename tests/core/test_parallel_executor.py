"""Parallel cluster execution: same answer, same simulated I/O as serial.

The executor's contract (ISSUE 1 tentpole): with ``workers > 1`` all
buffer/disk traffic stays on the main thread in serial order, so every
simulated counter — page reads, seeks, buffer hits, io seconds — is
identical to ``workers = 1``, and results merge in schedule order so
even the pairs *list* (not just the set) matches.
"""

import numpy as np
import pytest

from repro.core.clusters import Cluster
from repro.core.executor import execute_clusters
from repro.core.join import IndexedDataset, join
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import VectorPagedDataset
from tests.oracles.joiners import EchoJoiner

counting_joiner = EchoJoiner(comparisons=4, cpu=0.001)


@pytest.fixture
def datasets():
    r = VectorPagedDataset(
        np.arange(32, dtype=float).reshape(16, 2), objects_per_page=2, dataset_id="R"
    )
    s = VectorPagedDataset(
        np.arange(24, dtype=float).reshape(12, 2), objects_per_page=2, dataset_id="S"
    )
    return r, s


CLUSTERS = [
    Cluster(0, ((0, 0), (0, 1), (1, 0))),
    Cluster(1, ((1, 1), (2, 2))),
    Cluster(2, ((5, 5), (6, 5), (7, 5))),
    Cluster(3, ((3, 3),)),
]


class TestExecutorParallelism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_outcome_identical_to_serial(self, cost_model, datasets, workers):
        r, s = datasets
        serial_disk = SimulatedDisk(cost_model)
        serial = execute_clusters(
            CLUSTERS, BufferPool(serial_disk, 8), r, s, counting_joiner
        )
        parallel_disk = SimulatedDisk(cost_model)
        parallel = execute_clusters(
            CLUSTERS, BufferPool(parallel_disk, 8), r, s, counting_joiner,
            workers=workers,
        )
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

    def test_rejects_bad_worker_count(self, disk, datasets):
        r, s = datasets
        with pytest.raises(ValueError):
            execute_clusters([], BufferPool(disk, 8), r, s, counting_joiner, workers=0)

    def test_oversized_cluster_still_rejected(self, disk, datasets):
        r, s = datasets
        too_big = Cluster(0, ((0, 0), (1, 1)))  # 4 pages > 3
        with pytest.raises(ValueError):
            execute_clusters(
                [too_big], BufferPool(disk, 3), r, s, counting_joiner, workers=2
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


class TestJoinParallelism:
    """End-to-end: join(..., workers=k) replays workers=1 exactly."""

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
