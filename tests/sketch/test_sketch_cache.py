"""Sketch caching in a ResidentStore: keying, hits, dataset-named keys
(mirrors the prediction-matrix cache contract in
``tests/core/test_matrix_cache.py``)."""

import pytest

from repro.core.join import IndexedDataset, join
from repro.obs import InMemoryRecorder
from repro.serve.store import ResidentStore
from repro.sketch.config import PrefilterConfig
from repro.sketch.signatures import build_sketches
from repro.storage.persist import dataset_fingerprint, sketch_cache_key


@pytest.fixture
def dataset(rng):
    return IndexedDataset.from_points(rng.random((300, 4)), page_capacity=16)


@pytest.fixture
def config():
    return PrefilterConfig()


class TestKeying:
    def test_deterministic(self, dataset, config):
        assert sketch_cache_key(dataset, config) == sketch_cache_key(dataset, config)

    def test_sensitive_to_params(self, dataset, config):
        key = sketch_cache_key(dataset, config)
        assert key != sketch_cache_key(
            dataset, PrefilterConfig(num_hashes=config.num_hashes + 1)
        )
        assert key != sketch_cache_key(dataset, PrefilterConfig(seed=config.seed + 1))

    def test_sensitive_to_data(self, dataset, config, rng):
        other = IndexedDataset.from_points(rng.random((300, 4)), page_capacity=16)
        assert sketch_cache_key(dataset, config) != sketch_cache_key(other, config)

    def test_names_the_dataset(self, fingerprint_twins, config):
        twin, moved = fingerprint_twins
        assert dataset_fingerprint(twin) == dataset_fingerprint(moved)
        assert sketch_cache_key(twin, config) != sketch_cache_key(moved, config)


class TestSaveLoad:
    def test_miss_returns_none(self):
        assert ResidentStore().load_sketches("nothing") is None

    def test_coexists_with_matrix_cache(self, dataset, config):
        # Matrices and sketches live side by side in one store; one key
        # in both namespaces must not collide.
        from repro.core.sweep import build_prediction_matrix

        matrix, _ = build_prediction_matrix(dataset.index, dataset.index, 0.1)
        sketches = build_sketches(dataset, config)
        store = ResidentStore()
        store.save_matrix(matrix, "shared-key")
        store.save_sketches(sketches, "shared-key")
        assert store.load_sketches("shared-key") is sketches
        assert store.load_matrix("shared-key") == matrix
        assert store.stats()["matrices"] == store.stats()["sketches"] == 1


def _counters(rec):
    return rec.metrics_snapshot()["counters"]


def _prefiltered(r, s, store=None, recorder=None):
    return join(
        r, s, 0.05, method="sc", buffer_pages=16, matrix_cache=store,
        prefilter="approximate", recorder=recorder,
    )


class TestJoinWithSketchCache:
    def test_second_join_hits_for_both_sides(self, dataset, rng):
        other = IndexedDataset.from_points(rng.random((250, 4)), page_capacity=16)
        store = ResidentStore()
        rec_cold, rec_warm = InMemoryRecorder(), InMemoryRecorder()
        cold = _prefiltered(dataset, other, store, rec_cold)
        warm = _prefiltered(dataset, other, store, rec_warm)
        cold_counters, warm_counters = _counters(rec_cold), _counters(rec_warm)
        assert cold_counters["prefilter.sketch_cache_misses"] == 2
        assert cold_counters["prefilter.sketch_builds"] == 2
        assert warm_counters["prefilter.sketch_cache_hits"] == 2
        assert "prefilter.sketch_builds" not in warm_counters
        assert warm.pairs == cold.pairs

    def test_self_join_builds_one_sketch(self, dataset):
        rec = InMemoryRecorder()
        _prefiltered(dataset, dataset, ResidentStore(), rec)
        assert _counters(rec)["prefilter.sketch_builds"] == 1

    def test_no_cache_always_builds(self, dataset):
        for _ in range(2):
            rec = InMemoryRecorder()
            _prefiltered(dataset, dataset, recorder=rec)
            counters = _counters(rec)
            assert counters["prefilter.sketch_builds"] == 1
            assert "prefilter.sketch_cache_hits" not in counters

    def test_twin_with_equal_fingerprint_builds_its_own_sketches(
        self, fingerprint_twins
    ):
        """The matrix may be shared (it depends on page boxes alone); the
        sketches may not (they summarise the points)."""
        twin, moved = fingerprint_twins
        store = ResidentStore()
        _prefiltered(twin, twin, store)
        rec, rec_fresh = InMemoryRecorder(), InMemoryRecorder()
        served = _prefiltered(moved, moved, store, rec)
        fresh = _prefiltered(moved, moved, recorder=rec_fresh)
        counters, fresh_counters = _counters(rec), _counters(rec_fresh)
        assert served.report.extra["matrix_cache"] == "hit"
        assert counters["prefilter.sketch_builds"] == 1
        assert "prefilter.sketch_cache_hits" not in counters
        for name in ("prefilter.cells_scored", "prefilter.cells_unmarked",
                     "prefilter.est_recall_ppm"):
            assert counters.get(name) == fresh_counters.get(name), name
        assert served.pairs == fresh.pairs
