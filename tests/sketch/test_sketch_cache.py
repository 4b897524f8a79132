"""Sketch-cache persistence: keying, round trips, corrupt-entry
degradation, concurrent same-key writers (mirrors the prediction-matrix
cache contract in ``tests/core/test_matrix_cache.py``)."""

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.obs import InMemoryRecorder
from repro.sketch.config import PrefilterConfig
from repro.sketch.signatures import build_sketches, sketch_params_fingerprint
from repro.storage.persist import (
    dataset_fingerprint,
    invalidate_sketch_cache,
    load_sketches,
    save_sketches,
    sketch_cache_key,
)


@pytest.fixture
def dataset(rng):
    return IndexedDataset.from_points(rng.random((300, 4)), page_capacity=16)


@pytest.fixture
def config():
    return PrefilterConfig()


def _key(dataset, config):
    return sketch_cache_key(
        dataset_fingerprint(dataset), sketch_params_fingerprint(dataset, config)
    )


class TestKeying:
    def test_deterministic(self, dataset, config):
        assert _key(dataset, config) == _key(dataset, config)

    def test_sensitive_to_params(self, dataset, config):
        assert _key(dataset, config) != _key(
            dataset, PrefilterConfig(num_hashes=config.num_hashes + 1)
        )
        assert _key(dataset, config) != _key(
            dataset, PrefilterConfig(seed=config.seed + 1)
        )

    def test_sensitive_to_data(self, dataset, config, rng):
        other = IndexedDataset.from_points(rng.random((300, 4)), page_capacity=16)
        assert _key(dataset, config) != _key(other, config)


class TestSaveLoad:
    def test_round_trip_exact(self, tmp_path, dataset, config):
        sketches = build_sketches(dataset, config)
        save_sketches(sketches, tmp_path, "k1")
        restored = load_sketches(tmp_path, "k1")
        assert restored.kind == sketches.kind
        assert restored.signatures.dtype == sketches.signatures.dtype
        assert restored.counts.dtype == sketches.counts.dtype
        np.testing.assert_array_equal(restored.signatures, sketches.signatures)
        np.testing.assert_array_equal(restored.counts, sketches.counts)

    def test_minhash_round_trip(self, tmp_path, dna_dataset, config):
        sketches = build_sketches(dna_dataset, config)
        assert sketches.kind == "minhash"
        save_sketches(sketches, tmp_path, "k1")
        restored = load_sketches(tmp_path, "k1")
        assert restored.kind == "minhash"
        assert restored.signatures.dtype == np.uint64
        np.testing.assert_array_equal(restored.signatures, sketches.signatures)

    def test_miss_returns_none(self, tmp_path):
        assert load_sketches(tmp_path, "nothing") is None

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="PageSketches"):
            save_sketches(np.zeros(3), tmp_path, "k1")

    def test_invalidate_single_and_all(self, tmp_path, dataset, config):
        sketches = build_sketches(dataset, config)
        save_sketches(sketches, tmp_path, "a")
        save_sketches(sketches, tmp_path, "b")
        assert invalidate_sketch_cache(tmp_path, "a") == 1
        assert load_sketches(tmp_path, "a") is None
        assert load_sketches(tmp_path, "b") is not None
        assert invalidate_sketch_cache(tmp_path) == 1
        assert load_sketches(tmp_path, "b") is None
        assert invalidate_sketch_cache(tmp_path) == 0

    def test_coexists_with_matrix_cache(self, tmp_path, dataset, config):
        # Both caches share one directory; invalidating one must not
        # touch the other (distinct filename prefixes).
        from repro.core.sweep import build_prediction_matrix
        from repro.storage.persist import (
            invalidate_matrix_cache,
            load_matrix,
            save_matrix,
        )

        matrix, _ = build_prediction_matrix(dataset.index, dataset.index, 0.1)
        save_matrix(matrix, tmp_path, "shared-key")
        save_sketches(build_sketches(dataset, config), tmp_path, "shared-key")
        assert invalidate_matrix_cache(tmp_path) == 1
        assert load_sketches(tmp_path, "shared-key") is not None
        assert invalidate_sketch_cache(tmp_path) == 1
        assert load_matrix(tmp_path, "shared-key") is None


class TestAtomicity:
    """Concurrent cache users share one directory; writes must be atomic
    and corrupt entries must degrade to misses, never errors."""

    def test_no_lingering_tmp_files(self, tmp_path, dataset, config):
        save_sketches(build_sketches(dataset, config), tmp_path, "k1")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "sk_k1.npz"]
        assert leftovers == []

    def test_corrupt_entry_is_a_miss(self, tmp_path, dataset, config):
        sketches = build_sketches(dataset, config)
        target = save_sketches(sketches, tmp_path, "k1")
        target.write_bytes(target.read_bytes()[:20])
        assert load_sketches(tmp_path, "k1") is None
        target.write_bytes(b"not a zip archive")
        assert load_sketches(tmp_path, "k1") is None
        save_sketches(sketches, tmp_path, "k1")
        assert load_sketches(tmp_path, "k1") is not None

    def test_corrupt_entry_join_rebuilds_as_miss(self, tmp_path, dataset):
        config = PrefilterConfig()
        cold = join(
            dataset, dataset, 0.05, method="sc", buffer_pages=16,
            matrix_cache=tmp_path, prefilter=config,
        )
        for entry in tmp_path.glob("sk_*.npz"):
            entry.write_bytes(b"\x00" * 64)
        rec = InMemoryRecorder()
        rebuilt = join(
            dataset, dataset, 0.05, method="sc", buffer_pages=16,
            matrix_cache=tmp_path, prefilter=config, recorder=rec,
        )
        counters = rec.metrics_snapshot()["counters"]
        assert counters["prefilter.sketch_cache_misses"] == 1
        assert counters["prefilter.sketch_builds"] == 1
        assert sorted(rebuilt.pairs) == sorted(cold.pairs)

    def test_concurrent_writers_same_key(self, tmp_path, dataset, config):
        """Racing writers on one key never expose a partial file."""
        import multiprocessing

        sketches = build_sketches(dataset, config)
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        procs = [
            ctx.Process(target=_save_worker, args=(sketches, str(tmp_path), "shared"))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        restored = load_sketches(tmp_path, "shared")
        np.testing.assert_array_equal(restored.signatures, sketches.signatures)
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name != "sk_shared.npz"
        ]
        assert leftovers == []


def _save_worker(sketches, directory, key):
    for _ in range(5):
        save_sketches(sketches, directory, key)


class TestJoinWithSketchCache:
    def test_second_join_hits_for_both_sides(self, tmp_path, dataset, rng):
        other = IndexedDataset.from_points(rng.random((250, 4)), page_capacity=16)
        config = PrefilterConfig()
        rec_cold, rec_warm = InMemoryRecorder(), InMemoryRecorder()
        cold = join(
            dataset, other, 0.05, method="sc", buffer_pages=16,
            matrix_cache=tmp_path, prefilter=config, recorder=rec_cold,
        )
        warm = join(
            dataset, other, 0.05, method="sc", buffer_pages=16,
            matrix_cache=tmp_path, prefilter=config, recorder=rec_warm,
        )
        cold_counters = rec_cold.metrics_snapshot()["counters"]
        warm_counters = rec_warm.metrics_snapshot()["counters"]
        assert cold_counters["prefilter.sketch_cache_misses"] == 2
        assert cold_counters["prefilter.sketch_builds"] == 2
        assert warm_counters["prefilter.sketch_cache_hits"] == 2
        assert "prefilter.sketch_builds" not in warm_counters
        assert sorted(warm.pairs) == sorted(cold.pairs)

    def test_self_join_builds_one_sketch(self, tmp_path, dataset):
        rec = InMemoryRecorder()
        join(
            dataset, dataset, 0.05, method="sc", buffer_pages=16,
            matrix_cache=tmp_path, prefilter="approximate", recorder=rec,
        )
        counters = rec.metrics_snapshot()["counters"]
        assert counters["prefilter.sketch_builds"] == 1

    def test_no_cache_dir_always_builds(self, dataset):
        rec1, rec2 = InMemoryRecorder(), InMemoryRecorder()
        for rec in (rec1, rec2):
            join(
                dataset, dataset, 0.05, method="sc", buffer_pages=16,
                prefilter="approximate", recorder=rec,
            )
        for rec in (rec1, rec2):
            counters = rec.metrics_snapshot()["counters"]
            assert counters["prefilter.sketch_builds"] == 1
            assert "prefilter.sketch_cache_hits" not in counters
