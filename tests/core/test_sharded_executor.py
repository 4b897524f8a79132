"""Sharded process execution: bit-identical to serial, counters included.

The contract: ``join(..., workers=k)`` with ``k > 1`` (or any
``shard_strategy``) runs worker *processes* over shared-memory page
blocks, yet the merged pairs list, every report counter, and every
simulated-I/O recorder counter match the serial run exactly.  Shard-attributed counters
(``executor.shard.*``) are the only additions, and their per-shard sums
equal the serial totals.  The workers belong to one warm pool per
process and start method, reused by every sharded join.
"""

import dataclasses
import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import sharding
from repro.core.clusters import Cluster
from repro.core.executor import execute_clusters_sharded
from repro.core.join import IndexedDataset, join
from repro.core.planner import ShardPlan
from repro.core.sharding import resolve_start_method, shard_pool, shutdown_shard_pools
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


_SHM = Path("/dev/shm")


def _shm_entries():
    """Names in ``/dev/shm`` (empty where the platform has none)."""
    return {p.name for p in _SHM.iterdir()} if _SHM.is_dir() else set()


def _worker_pids(recorder):
    """The worker processes whose spans a sharded join merged."""
    return {sp.attrs["worker_pid"] for sp in recorder.spans if "worker_pid" in sp.attrs}


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
        """With ``fork`` hidden the shards run in a spawn pool, not in a
        warm fork pool; the merged pairs, every report field and the
        stable counters still equal the serial join's."""
        if "spawn" not in mp.get_all_start_methods():
            pytest.skip("platform without spawn")
        r, s = spatial
        serial_rec, sharded_rec = InMemoryRecorder(), InMemoryRecorder()
        serial = join(r, s, 0.05, buffer_pages=10, recorder=serial_rec)
        # A warm pool of the default start method must not be reused.
        join(r, s, 0.05, buffer_pages=10, workers=2)
        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        assert resolve_start_method() == "spawn"
        try:
            sharded = join(
                r, s, 0.05, buffer_pages=10, recorder=sharded_rec,
                workers=min(2, os.cpu_count() or 1), shard_strategy="affinity",
            )
            children = {p.pid: p for p in mp.active_children()}
            pids = _worker_pids(sharded_rec)
            assert pids
            spawned = mp.get_context("spawn").Process
            assert all(isinstance(children[pid], spawned) for pid in pids)
        finally:
            shutdown_shard_pools()  # no idle interpreters for later tests
        assert sharded.pairs == serial.pairs
        assert _report_fields(sharded) == _report_fields(serial)
        assert _stable_counters(sharded_rec) == _stable_counters(serial_rec)

    def test_run_shard_ships_owned_pair_arrays(self, cost_model):
        """In process, a shard's payload holds one owned ``(k, 2)`` int64
        pair array per cluster and no Python tuples of pairs; absorbed in
        schedule order they are the serial join's pairs list."""
        from repro.core.executor import ExecutionOutcome
        from repro.core.joiners import ClusterResult, NumericPagePairJoiner
        from repro.core.sharding import build_shard_task, run_shard, share_datasets
        from repro.storage.shm import ShmArena

        rng = np.random.default_rng(5)
        r = IndexedDataset.from_points(rng.random((1500, 2)), page_capacity=32)
        s = IndexedDataset.from_points(rng.random((1200, 2)), page_capacity=32)
        serial = join(
            r, s, 0.06, buffer_pages=12, cost_model=cost_model, keep_details=True
        )
        assert serial.num_pairs >= 10_000, "calibration: a large result"
        joiner = NumericPagePairJoiner(
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
        # Kernel invocations count cascades: one per join when serial,
        # one per shard when sharded.
        serial_counts = serial_rec.metrics_snapshot()["counters"]
        sharded_counts = sharded_rec.metrics_snapshot()["counters"]
        assert serial_counts["kernel.minkowski.invocations"] == 1
        assert (
            sharded_counts["kernel.minkowski.invocations"]
            == sharded_counts["executor.shards"]
        )

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

    def test_fork_preferred_when_available(self):
        import multiprocessing as mp

        if "fork" not in mp.get_all_start_methods():
            pytest.skip("platform without fork")
        assert resolve_start_method() == "fork"

    def test_crashed_worker_raises_and_leaks_nothing(
        self, spatial, monkeypatch
    ):
        """A warm worker dying mid-shard surfaces as RuntimeError, every
        shared segment is still reclaimed by the parent, and the next
        sharded join runs on a fresh pool with the serial join's result.

        The pool is warmed before the crash hook is set: a worker forked
        earlier must still see it."""
        r, s = spatial
        kwargs = dict(method="sc", buffer_pages=10, workers=2, shard_strategy="affinity")
        serial = join(r, s, 0.05, method="sc", buffer_pages=10)
        join(r, s, 0.05, **kwargs)
        crashed = shard_pool(resolve_start_method())
        before = _shm_entries()
        monkeypatch.setenv("_REPRO_SHARD_FAULT", "exit")
        with pytest.raises(RuntimeError, match="shard worker"):
            join(r, s, 0.05, **kwargs)
        assert _shm_entries() - before == set()
        monkeypatch.delenv("_REPRO_SHARD_FAULT")
        again = join(r, s, 0.05, **kwargs)
        assert shard_pool(resolve_start_method()) is not crashed
        assert again.pairs == serial.pairs
        assert _report_counters(again) == _report_counters(serial)
        assert _shm_entries() - before == set()

    def test_replay_error_settles_the_shards_first(
        self, spatial, cost_model, monkeypatch
    ):
        """When the parent's replay raises while shards are queued and
        running (here: a cluster larger than the buffer), every task of
        the join is cancelled or finished before its segments are
        unlinked, so none reaches the next join."""
        from repro.core.joiners import NumericPagePairJoiner
        from repro.storage.disk import SimulatedDisk

        r, s = spatial
        serial = join(r, s, 0.05, buffer_pages=10, keep_details=True)
        clusters = serial.clusters
        joiner = NumericPagePairJoiner(r.paged, s.paged, r.distance, 0.05, cost_model, False)
        submitted = []

        class RecordingPool:
            def __init__(self, pool):
                self.pool = pool

            def submit(self, fn, *args):
                future = self.pool.submit(fn, *args)
                submitted.append(future)
                return future

        real_pool = sharding.shard_pool
        monkeypatch.setattr(sharding, "shard_pool", lambda method: RecordingPool(real_pool(method)))
        before = _shm_entries()
        one_each = ShardPlan("single", tuple((i,) for i in range(len(clusters))),
                             tuple(0 for _ in clusters), 0)
        too_small = BufferPool(SimulatedDisk(cost_model), 1)
        with pytest.raises(ValueError, match="exceeds the available buffer"):
            execute_clusters_sharded(
                clusters, too_small, r.paged, s.paged, joiner,
                workers=len(clusters), plan=one_each,
            )
        assert len(submitted) == len(clusters)
        assert all(future.done() for future in submitted)
        assert _shm_entries() - before == set()
        monkeypatch.undo()
        again = join(r, s, 0.05, buffer_pages=10, workers=2)
        assert again.pairs == serial.pairs

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


class TestWarmPool:
    def test_consecutive_joins_share_the_workers(self, spatial, monkeypatch):
        """After the first sharded join, later ones build no pool and run
        in the worker processes that already exist."""
        r, s = spatial

        def sharded_pids():
            recorder = InMemoryRecorder()
            join(r, s, 0.05, buffer_pages=10, recorder=recorder, workers=2)
            pids = _worker_pids(recorder)
            assert pids
            return pids

        first = sharded_pids()
        workers = {p.pid for p in mp.active_children()}

        def no_new_pool(*args, **kwargs):
            raise AssertionError("a sharded join built a process pool")

        monkeypatch.setattr(sharding, "ProcessPoolExecutor", no_new_pool)
        later = sharded_pids() | sharded_pids()
        assert first | later <= workers
        assert {p.pid for p in mp.active_children()} == workers

    def test_concurrent_joins_race_for_one_pool(self, spatial, monkeypatch):
        """Threads that start sharded joins at once, with more shards than
        CPUs, build one pool between them and each get the serial result."""
        import threading

        r, s = spatial
        serial = join(r, s, 0.05, buffer_pages=10)
        built = []
        real = sharding.ProcessPoolExecutor

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        shutdown_shard_pools()
        monkeypatch.setattr(sharding, "ProcessPoolExecutor", counting)
        shards = (os.cpu_count() or 1) + 1
        barrier = threading.Barrier(4)
        results, errors = [], []

        def client():
            try:
                barrier.wait(timeout=30)
                for _ in range(2):
                    results.append(join(r, s, 0.05, buffer_pages=10, workers=shards).pairs)
            except Exception as exc:  # reported below, with the thread's error
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(built) == 1
        assert len(results) == 8 and all(pairs == serial.pairs for pairs in results)

    def test_process_exits_cleanly_after_a_sharded_join(self, tmp_path):
        """A script that runs one sharded join and returns exits with
        status 0 and an empty stderr, even when it stops multiprocessing's
        resource tracker itself first (as the end-to-end benchmark does),
        and leaves no shared-memory segment behind."""
        script = tmp_path / "one_join.py"
        script.write_text(textwrap.dedent(
            """
            import sys
            import numpy as np
            from repro.core.join import IndexedDataset, join

            rng = np.random.default_rng(1)
            r = IndexedDataset.from_points(rng.random((2000, 2)), page_capacity=32)
            s = IndexedDataset.from_points(rng.random((1500, 2)), page_capacity=32)
            result = join(r, s, 0.03, buffer_pages=12, workers=2)
            assert result.num_pairs > 0
            sys.modules["multiprocessing.resource_tracker"]._resource_tracker._stop()
            """
        ))
        src = Path(sharding.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        before = _shm_entries()
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True,
            text=True, timeout=15,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert {n for n in _shm_entries() - before if n.startswith("psm_")} == set()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_workers_exit_when_the_parent_is_killed(self):
        """Warm workers whose parent dies without stopping them (SIGKILL)
        exit by themselves instead of idling for good."""
        script = textwrap.dedent(
            """
            import time
            import numpy as np
            from repro.core.join import IndexedDataset, join
            from repro.obs import InMemoryRecorder

            rng = np.random.default_rng(1)
            r = IndexedDataset.from_points(rng.random((2000, 2)), page_capacity=32)
            s = IndexedDataset.from_points(rng.random((1500, 2)), page_capacity=32)
            recorder = InMemoryRecorder()
            join(r, s, 0.03, buffer_pages=12, workers=2, recorder=recorder)
            print(*{sp.attrs["worker_pid"] for sp in recorder.spans
                    if "worker_pid" in sp.attrs}, flush=True)
            time.sleep(60)
            """
        )
        src = Path(sharding.__file__).resolve().parents[2]
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
            proc.communicate(timeout=15)
        assert pids

        def running(pid):
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids))
