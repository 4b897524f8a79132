"""Prediction-matrix caching in a ResidentStore: keying, hits, zero-sweep loads."""

import sys

import pytest

from repro.core.join import IndexedDataset, join

# ``repro.core``'s __init__ rebinds the name ``join`` to the function, so
# the submodule must be fetched from sys.modules for monkeypatching.
join_mod = sys.modules["repro.core.join"]
from repro.core.sweep import build_prediction_matrix
from repro.serve.store import ResidentStore
from repro.storage.persist import dataset_fingerprint, matrix_cache_key


@pytest.fixture
def datasets(rng):
    r = IndexedDataset.from_points(rng.random((200, 2)), page_capacity=8)
    s = IndexedDataset.from_points(rng.random((150, 2)), page_capacity=8)
    return r, s


class TestFingerprint:
    def test_deterministic_and_distinct(self, rng, datasets):
        r, s = datasets
        assert dataset_fingerprint(r) == dataset_fingerprint(r)
        assert dataset_fingerprint(r) != dataset_fingerprint(s)

    def test_stable_across_save_load(self, tmp_path, datasets):
        from repro.storage.persist import load_dataset, save_dataset

        r, _ = datasets
        save_dataset(r, tmp_path / "r")
        restored = load_dataset(tmp_path / "r")
        assert dataset_fingerprint(restored) == dataset_fingerprint(r)

    def test_key_sensitive_to_epsilon_and_rounds(self, datasets):
        r, s = datasets
        fp_r, fp_s = dataset_fingerprint(r), dataset_fingerprint(s)
        base = matrix_cache_key(fp_r, fp_s, 0.1, 5)
        assert base == matrix_cache_key(fp_r, fp_s, 0.1, 5)
        assert base != matrix_cache_key(fp_r, fp_s, 0.2, 5)
        assert base != matrix_cache_key(fp_r, fp_s, 0.1, 3)
        assert base != matrix_cache_key(fp_s, fp_r, 0.1, 5)


class TestSaveLoad:
    def test_roundtrip_identical_matrix(self, datasets):
        r, s = datasets
        matrix, _ = build_prediction_matrix(r.index, s.index, 0.1)
        store = ResidentStore()
        store.save_matrix(matrix, "k1")
        restored = store.load_matrix("k1")
        assert restored == matrix
        assert restored.num_marked == matrix.num_marked

    def test_miss_returns_none(self):
        assert ResidentStore().load_matrix("nothing") is None

    def test_loaded_matrix_is_a_private_copy(self, datasets):
        """The join unmarks the matrix it saved and the ones it loads
        (triangle cut, prefilter); neither may reach the stored entry."""
        r, s = datasets
        matrix, _ = build_prediction_matrix(r.index, s.index, 0.1)
        reference = matrix.copy()
        store = ResidentStore()
        store.save_matrix(matrix, "k1")
        matrix.keep_upper_triangle()
        loaded = store.load_matrix("k1")
        assert loaded is not matrix and loaded == reference
        loaded.keep_upper_triangle()
        assert store.load_matrix("k1") == reference
        assert store.stats()["matrix_hits"] == 2


class TestJoinWithCache:
    def test_second_join_runs_zero_sweep_operations(self, datasets, monkeypatch):
        """The acceptance contract: a cache hit skips the sweep entirely."""
        r, s = datasets
        store = ResidentStore()
        cold = join(r, s, 0.1, method="sc", buffer_pages=16, matrix_cache=store)
        assert cold.report.extra["matrix_cache"] == "miss"
        assert cold.report.extra["matrix_seconds"] > 0.0

        def bomb(*args, **kwargs):
            raise AssertionError("cache hit must not rebuild the prediction matrix")

        monkeypatch.setattr(join_mod, "build_prediction_matrix", bomb)
        warm = join(r, s, 0.1, method="sc", buffer_pages=16, matrix_cache=store)
        assert warm.report.extra["matrix_cache"] == "hit"
        # Zero sweep operations => zero matrix CPU seconds charged.
        assert warm.report.extra["matrix_seconds"] == 0.0
        assert warm.pairs == cold.pairs
        assert warm.report.extra["marked_entries"] == cold.report.extra["marked_entries"]

    def test_cache_off_by_default(self, datasets):
        r, s = datasets
        result = join(r, s, 0.1, method="pm-nlj", buffer_pages=16)
        assert result.report.extra["matrix_cache"] == "off"

    def test_self_join_triangle_applied_after_load(self, rng):
        pts = rng.random((120, 2))
        ds = IndexedDataset.from_points(pts, page_capacity=8)
        store = ResidentStore()
        cold = join(ds, ds, 0.05, method="sc", buffer_pages=16, matrix_cache=store)
        warm = join(ds, ds, 0.05, method="sc", buffer_pages=16, matrix_cache=store)
        assert warm.report.extra["matrix_cache"] == "hit"
        assert warm.pairs == cold.pairs
        assert warm.report.extra["marked_entries"] == cold.report.extra["marked_entries"]
        # The stored entry is the untrimmed build: a cross join against an
        # equal copy hits it and keeps both triangles.
        copy = IndexedDataset.from_points(pts, page_capacity=8)
        cross = join(ds, copy, 0.05, method="sc", buffer_pages=16, matrix_cache=store)
        assert cross.report.extra["matrix_cache"] == "hit"
        assert cross.report.extra["marked_entries"] > warm.report.extra["marked_entries"]

    def test_different_epsilon_misses(self, datasets):
        r, s = datasets
        store = ResidentStore()
        join(r, s, 0.1, method="pm-nlj", buffer_pages=16, matrix_cache=store)
        other = join(r, s, 0.12, method="pm-nlj", buffer_pages=16, matrix_cache=store)
        assert other.report.extra["matrix_cache"] == "miss"

    def test_directory_rejected_before_any_work(self, tmp_path, datasets, monkeypatch):
        r, s = datasets

        def bomb(*args, **kwargs):
            raise AssertionError("a rejected cache must not build a matrix")

        monkeypatch.setattr(join_mod, "build_prediction_matrix", bomb)
        for cache in (str(tmp_path), tmp_path):
            with pytest.raises(TypeError, match="ResidentStore"):
                join(r, s, 0.1, method="sc", buffer_pages=16, matrix_cache=cache)
        assert list(tmp_path.iterdir()) == []
