"""Sharded process execution: bit-identical to serial, counters included.

The contract: ``join(..., workers=k)`` with ``k > 1`` (or any
``shard_strategy``) runs worker *processes* over shared-memory page
blocks, yet the merged pairs list, every report counter, and every
simulated-I/O recorder counter match the serial run exactly.  Shard-attributed counters
(``executor.shard.*``) are the only additions, and their per-shard sums
equal the serial totals.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.core.clusters import Cluster
from repro.core.executor import execute_clusters_sharded
from repro.core.join import IndexedDataset, join
from repro.core.planner import ShardPlan
from repro.core.sharding import resolve_start_method
from repro.obs import SHARDING_VARIANT_COUNTER_PREFIXES, InMemoryRecorder
from repro.storage.buffer import BufferPool
from repro.storage.shm import shm_available
from repro.storage.page import VectorPagedDataset
from tests.oracles.joiners import EchoJoiner

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform without usable shared memory"
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
    """Recorder counters minus the documented per-shard extras."""
    return {
        name: value
        for name, value in recorder.metrics_snapshot()["counters"].items()
        if not name.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
    }


def _hand_plan(kind, num_clusters, shards):
    """A partition the planner does not make, as a ``ShardPlan``:
    contiguous schedule segments (``"chunk"``) or schedule index modulo
    the shard count (``"roundrobin"``)."""
    if kind == "chunk":
        bounds = np.linspace(0, num_clusters, shards + 1).astype(int)
        members = [range(bounds[k], bounds[k + 1]) for k in range(shards)]
    else:
        members = [range(k, num_clusters, shards) for k in range(shards)]
    members = tuple(tuple(m) for m in members if len(m))
    return ShardPlan(kind, members, tuple(0 for _ in members), 0)


@pytest.fixture
def spatial():
    rng = np.random.default_rng(12345)
    r = IndexedDataset.from_points(
        rng.random((400, 2)), page_capacity=16, dataset_id="PR"
    )
    s = IndexedDataset.from_points(
        rng.random((300, 2)), page_capacity=16, dataset_id="PS"
    )
    return r, s


class TestJoinSharded:
    @pytest.mark.parametrize("method", ["sc", "cc", "rand-sc"])
    def test_spatial_cross_join(self, spatial, method):
        r, s = spatial
        serial = join(r, s, 0.05, method=method, buffer_pages=10, workers=1)
        sharded = join(
            r, s, 0.05, method=method, buffer_pages=10,
            workers=2, shard_strategy="affinity",
        )
        assert sharded.pairs == serial.pairs  # list order included
        assert _report_counters(sharded) == _report_counters(serial)

    @pytest.mark.parametrize("strategy", ["affinity", "chunk", "roundrobin"])
    def test_text_self_join_all_strategies(self, strategy):
        rng = np.random.default_rng(7)
        text = "".join(rng.choice(list("ACGT"), size=1500))
        ds = IndexedDataset.from_string(
            text, window_length=12, windows_per_page=64, dataset_id="G"
        )
        serial = join(
            ds, ds, 2, method="sc", buffer_pages=8, workers=1, keep_details=True
        )
        if strategy != "affinity":
            strategy = _hand_plan(strategy, len(serial.clusters), 2)
        sharded = join(
            ds, ds, 2, method="sc", buffer_pages=8,
            workers=2, shard_strategy=strategy,
        )
        assert sharded.pairs == serial.pairs
        assert _report_counters(sharded) == _report_counters(serial)

    def test_dtw_self_join(self, rng):
        seq = rng.normal(size=600).cumsum()
        ds = IndexedDataset.from_time_series(
            seq, window_length=12, windows_per_page=32, dtw_band=2, dataset_id="W"
        )
        serial = join(
            ds, ds, 0.5, method="sc", buffer_pages=10, workers=1, keep_details=True
        )
        sharded = join(
            ds, ds, 0.5, method="sc", buffer_pages=10, workers=3,
            shard_strategy=_hand_plan("roundrobin", len(serial.clusters), 3),
        )
        assert sharded.pairs == serial.pairs
        assert _report_counters(sharded) == _report_counters(serial)

    def test_count_only(self, spatial):
        r, s = spatial
        serial = join(r, s, 0.05, method="sc", buffer_pages=10, count_only=True)
        sharded = join(
            r, s, 0.05, method="sc", buffer_pages=10, count_only=True,
            workers=4, shard_strategy="affinity",
        )
        assert sharded.pairs == [] == serial.pairs
        assert sharded.num_pairs == serial.num_pairs
        assert _report_counters(sharded) == _report_counters(serial)

    def test_workers_four(self, spatial):
        r, s = spatial
        serial = join(r, s, 0.05, method="sc", buffer_pages=10)
        sharded = join(
            r, s, 0.05, method="sc", buffer_pages=10,
            workers=4, shard_strategy="affinity",
        )
        assert sharded.pairs == serial.pairs
        assert _report_counters(sharded) == _report_counters(serial)


def _report_fields(result):
    """Every ``CostReport`` field but the host-time stage seconds."""
    rep = dataclasses.asdict(result.report)
    rep["extra"] = {k: v for k, v in rep["extra"].items() if k != "stage_seconds"}
    return rep


class TestShardTransport:
    def test_spawn_workers_match_serial(self, spatial, monkeypatch):
        """With ``fork`` hidden the pool spawns fresh interpreters; the
        merged pairs, every report field and the stable counters still
        equal the serial join's."""
        import multiprocessing as mp

        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("platform without spawn")
        r, s = spatial
        serial_rec, sharded_rec = InMemoryRecorder(), InMemoryRecorder()
        serial = join(r, s, 0.05, buffer_pages=10, recorder=serial_rec)
        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        assert resolve_start_method(1) == "spawn"
        sharded = join(
            r, s, 0.05, buffer_pages=10, recorder=sharded_rec,
            workers=min(2, os.cpu_count() or 1), shard_strategy="affinity",
        )
        assert sharded.pairs == serial.pairs
        assert _report_fields(sharded) == _report_fields(serial)
        assert _stable_counters(sharded_rec) == _stable_counters(serial_rec)

    def test_run_shard_ships_owned_pair_arrays(self, cost_model):
        """In process, a shard's payload holds one owned ``(k, 2)`` int64
        pair array per cluster and no Python tuples of pairs; absorbed in
        schedule order they are the serial join's pairs list."""
        from repro.core.executor import ExecutionOutcome
        from repro.core.joiners import ClusterResult, make_numeric_joiner
        from repro.core.sharding import build_shard_task, run_shard, share_datasets
        from repro.storage.shm import ShmArena

        rng = np.random.default_rng(5)
        r = IndexedDataset.from_points(rng.random((1500, 2)), page_capacity=32)
        s = IndexedDataset.from_points(rng.random((1200, 2)), page_capacity=32)
        serial = join(
            r, s, 0.06, buffer_pages=12, cost_model=cost_model, keep_details=True
        )
        assert serial.num_pairs >= 10_000, "calibration: a large result"
        joiner = make_numeric_joiner(
            r.paged, s.paged, r.distance, 0.06, cost_model, False
        )
        with ShmArena() as arena:
            r_spec, s_spec = share_datasets(r.paged, s.paged, arena)
            task = build_shard_task(
                0, [(i, c.entries) for i, c in enumerate(serial.clusters)],
                r_spec, s_spec, joiner, arena, False,
            )
            payload = run_shard(task)
        results = payload["results"]
        assert sorted(results) == list(range(len(serial.clusters)))
        outcome = ExecutionOutcome()
        for index in range(len(serial.clusters)):
            result = results[index]
            assert type(result) is ClusterResult
            for array in (result.pairs, result.counts, result.comparisons, result.cpu):
                assert type(array) is np.ndarray
                assert array.flags.owndata and array.base is None
            assert result.pairs.dtype == np.int64 and result.pairs.ndim == 2
            assert result.pairs.shape == (int(result.counts.sum()), 2)
            outcome.absorb(result)
        assert outcome.pairs == serial.pairs
        assert outcome.num_pairs == serial.num_pairs
        assert outcome.cpu_seconds == serial.report.cpu_seconds
        assert outcome.comparisons == serial.report.comparisons


class TestShardedTelemetry:
    def test_recorder_counters_match_serial(self, spatial):
        r, s = spatial
        serial_rec, sharded_rec = InMemoryRecorder(), InMemoryRecorder()
        serial = join(
            r, s, 0.05, method="sc", buffer_pages=10, recorder=serial_rec
        )
        sharded = join(
            r, s, 0.05, method="sc", buffer_pages=10, recorder=sharded_rec,
            workers=2, shard_strategy="affinity",
        )
        assert sharded.pairs == serial.pairs
        stable = _stable_counters(serial_rec)
        assert _stable_counters(sharded_rec) == stable
        # Kernel invocations are compared too: one cascade per cluster.
        assert stable["kernel.minkowski.invocations"] == stable["executor.clusters"]

    def test_per_shard_io_sums_to_totals(self, spatial):
        r, s = spatial
        rec = InMemoryRecorder()
        join(
            r, s, 0.05, method="sc", buffer_pages=10, recorder=rec,
            workers=2, shard_strategy="affinity",
        )
        counters = rec.metrics_snapshot()["counters"]
        shards = counters["executor.shards"]
        assert shards >= 1
        for metric in ("pages_read", "pages_reused", "clusters"):
            total = counters[f"executor.{metric}"]
            split = sum(
                counters[f"executor.shard.{k}.{metric}"] for k in range(shards)
            )
            assert split == total, metric

    def test_worker_spans_merged_with_shard_attr(self, spatial):
        r, s = spatial
        rec = InMemoryRecorder()
        join(
            r, s, 0.05, method="sc", buffer_pages=10, recorder=rec,
            workers=2, shard_strategy="affinity",
        )
        shard_spans = [sp for sp in rec.spans if "shard" in sp.attrs]
        assert shard_spans, "worker spans must fold into the parent recorder"
        assert {sp.attrs["shard"] for sp in shard_spans} <= {0, 1}
        ids = [sp.span_id for sp in rec.spans]
        assert len(set(ids)) == len(ids)

    def test_lemma_audits_stay_clean(self, spatial):
        r, s = spatial
        rec = InMemoryRecorder()
        join(
            r, s, 0.05, method="sc", buffer_pages=10, recorder=rec,
            workers=2, shard_strategy="affinity",
        )
        counters = rec.metrics_snapshot()["counters"]
        violations = [
            name for name in counters if "lemma" in name and "violation" in name
        ]
        assert all(counters[name] == 0 for name in violations)


class TestRandomPartitionsProperty:
    def test_any_partition_reproduces_serial(self, spatial):
        """Property: EVERY partition of the schedule merges to the serial
        pairs list — correctness cannot depend on the planner's choices."""
        r, s = spatial
        serial = join(r, s, 0.05, method="sc", buffer_pages=10, keep_details=True)
        num_clusters = len(serial.clusters)
        rng = np.random.default_rng(99)
        for trial in range(3):
            assignment = rng.integers(0, 3, size=num_clusters)
            members = tuple(
                tuple(int(i) for i in np.flatnonzero(assignment == shard))
                for shard in range(3)
                if np.any(assignment == shard)
            )
            plan = ShardPlan(
                strategy="random",
                shards=members,
                costs=tuple(0 for _ in members),
                duplicated_pages=0,
            )
            sharded = join(
                r, s, 0.05, method="sc", buffer_pages=10,
                workers=len(members), shard_strategy=plan,
            )
            assert sharded.pairs == serial.pairs, f"trial {trial}"
            assert _report_counters(sharded) == _report_counters(serial)


class TestFailureModes:
    def test_plain_callable_joiner_rejected(self, cost_model):
        """A custom joiner has no picklable recipe for the workers."""
        from repro.storage.disk import SimulatedDisk

        r = VectorPagedDataset(
            np.arange(16, dtype=float).reshape(8, 2),
            objects_per_page=2, dataset_id="R",
        )
        s = VectorPagedDataset(
            np.arange(12, dtype=float).reshape(6, 2),
            objects_per_page=2, dataset_id="S",
        )

        pool = BufferPool(SimulatedDisk(cost_model), 8)
        with pytest.raises(ValueError, match="cannot be shipped"):
            execute_clusters_sharded(
                [Cluster(0, ((0, 0),))], pool, r, s, EchoJoiner(), workers=2
            )

    def test_rejects_bad_worker_count(self, spatial):
        r, s = spatial
        with pytest.raises(ValueError):
            join(r, s, 0.05, buffer_pages=10, workers=0, shard_strategy="affinity")

    def test_spawn_oversubscription_is_a_clear_error(self, monkeypatch):
        import multiprocessing as mp

        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        cpus = os.cpu_count() or 1
        with pytest.raises(RuntimeError, match="exceeds os.cpu_count"):
            resolve_start_method(cpus + 1)
        # Within the CPU budget spawn is accepted.
        assert resolve_start_method(1) == "spawn"

    def test_fork_preferred_when_available(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("platform without fork")
        assert resolve_start_method(10_000) == "fork"

    def test_crashed_worker_raises_and_leaks_nothing(
        self, spatial, monkeypatch
    ):
        """A worker dying mid-shard surfaces as RuntimeError and every
        shared segment is still reclaimed by the parent."""
        from pathlib import Path

        shm_dir = Path("/dev/shm")
        before = set(shm_dir.iterdir()) if shm_dir.is_dir() else set()
        monkeypatch.setenv("_REPRO_SHARD_FAULT", "exit")
        r, s = spatial
        with pytest.raises(RuntimeError, match="shard worker"):
            join(
                r, s, 0.05, method="sc", buffer_pages=10,
                workers=2, shard_strategy="affinity",
            )
        if shm_dir.is_dir():
            leaked = {
                p for p in set(shm_dir.iterdir()) - before
                if p.name.startswith("psm_")
            }
            assert leaked == set()

    def test_empty_schedule(self, cost_model):
        from repro.core.joiners import NumericPagePairJoiner
        from repro.distance.vector import MinkowskiDistance
        from repro.storage.disk import SimulatedDisk

        r = VectorPagedDataset(
            np.arange(16, dtype=float).reshape(8, 2),
            objects_per_page=2, dataset_id="R",
        )
        joiner = NumericPagePairJoiner(
            r, r, MinkowskiDistance(2), 0.1, cost_model, True
        )
        pool = BufferPool(SimulatedDisk(cost_model), 8)
        outcome = execute_clusters_sharded([], pool, r, r, joiner, workers=2)
        assert outcome.pairs == []
        assert outcome.pages_read == 0
