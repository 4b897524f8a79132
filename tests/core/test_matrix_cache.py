"""Prediction-matrix caching: keying, hits, invalidation, zero-sweep loads."""

import sys

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join

# ``repro.core``'s __init__ rebinds the name ``join`` to the function, so
# the submodule must be fetched from sys.modules for monkeypatching.
join_mod = sys.modules["repro.core.join"]
from repro.core.sweep import build_prediction_matrix
from repro.storage.persist import (
    dataset_fingerprint,
    invalidate_matrix_cache,
    load_matrix,
    matrix_cache_key,
    save_matrix,
)


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
    def test_roundtrip_identical_matrix(self, tmp_path, datasets):
        r, s = datasets
        matrix, _ = build_prediction_matrix(r.index, s.index, 0.1)
        save_matrix(matrix, tmp_path, "k1")
        restored = load_matrix(tmp_path, "k1")
        assert restored == matrix
        assert restored.num_marked == matrix.num_marked

    def test_miss_returns_none(self, tmp_path):
        assert load_matrix(tmp_path, "nothing") is None

    def test_invalidate_single_and_all(self, tmp_path, datasets):
        r, s = datasets
        matrix, _ = build_prediction_matrix(r.index, s.index, 0.1)
        save_matrix(matrix, tmp_path, "a")
        save_matrix(matrix, tmp_path, "b")
        assert invalidate_matrix_cache(tmp_path, "a") == 1
        assert load_matrix(tmp_path, "a") is None
        assert load_matrix(tmp_path, "b") is not None
        assert invalidate_matrix_cache(tmp_path) == 1
        assert load_matrix(tmp_path, "b") is None
        assert invalidate_matrix_cache(tmp_path) == 0


class TestAtomicity:
    """Concurrent cache users (parallel pytest workers, simultaneous
    figure runs) share one directory; writes must be atomic and corrupt
    entries must degrade to misses, never errors."""

    def _matrix(self, datasets):
        r, s = datasets
        matrix, _ = build_prediction_matrix(r.index, s.index, 0.1)
        return matrix

    def test_no_lingering_tmp_files(self, tmp_path, datasets):
        matrix = self._matrix(datasets)
        save_matrix(matrix, tmp_path, "k1")
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "pm_k1.npz"]
        assert leftovers == []

    def test_corrupt_entry_is_a_miss(self, tmp_path, datasets):
        matrix = self._matrix(datasets)
        target = save_matrix(matrix, tmp_path, "k1")
        # Truncate to simulate a writer killed mid-write (pre-atomic-rename
        # leftovers) or disk trouble.
        target.write_bytes(target.read_bytes()[:20])
        assert load_matrix(tmp_path, "k1") is None
        # Garbage that is not even a zip header.
        target.write_bytes(b"not a zip archive")
        assert load_matrix(tmp_path, "k1") is None
        # A rebuild replaces the bad entry.
        save_matrix(matrix, tmp_path, "k1")
        assert load_matrix(tmp_path, "k1") == matrix

    def test_corrupt_entry_join_rebuilds_as_miss(self, tmp_path, datasets):
        r, s = datasets
        cold = join(r, s, 0.1, method="sc", buffer_pages=16, matrix_cache=tmp_path)
        (entry,) = tmp_path.glob("pm_*.npz")
        entry.write_bytes(b"\x00" * 64)
        rebuilt = join(r, s, 0.1, method="sc", buffer_pages=16, matrix_cache=tmp_path)
        assert rebuilt.report.extra["matrix_cache"] == "miss"
        assert sorted(rebuilt.pairs) == sorted(cold.pairs)

    def test_concurrent_writers_same_key(self, tmp_path, datasets):
        """Racing writers on one key never expose a partial file."""
        import multiprocessing

        matrix = self._matrix(datasets)
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        procs = [
            ctx.Process(target=_save_worker, args=(matrix, str(tmp_path), "shared"))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        restored = load_matrix(tmp_path, "shared")
        assert restored == matrix
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name != "pm_shared.npz"
        ]
        assert leftovers == []

    def test_invalidate_tolerates_concurrent_unlink(self, tmp_path, datasets):
        matrix = self._matrix(datasets)
        target = save_matrix(matrix, tmp_path, "k1")
        # Simulate another worker unlinking between glob/exists and unlink.
        real_unlink = type(target).unlink

        def racing_unlink(self, missing_ok=False):
            real_unlink(self, missing_ok=True)  # the "other worker" wins
            return real_unlink(self, missing_ok=missing_ok)

        import unittest.mock as mock

        with mock.patch.object(type(target), "unlink", racing_unlink):
            assert invalidate_matrix_cache(tmp_path, "k1") == 1
        assert load_matrix(tmp_path, "k1") is None


def _save_worker(matrix, directory, key):
    for _ in range(5):
        save_matrix(matrix, directory, key)


class TestJoinWithCache:
    def test_second_join_runs_zero_sweep_operations(
        self, tmp_path, datasets, monkeypatch
    ):
        """The acceptance contract: a cache hit skips the sweep entirely."""
        r, s = datasets
        cold = join(r, s, 0.1, method="sc", buffer_pages=16, matrix_cache=tmp_path)
        assert cold.report.extra["matrix_cache"] == "miss"
        assert cold.report.extra["matrix_seconds"] > 0.0

        def bomb(*args, **kwargs):
            raise AssertionError("cache hit must not rebuild the prediction matrix")

        monkeypatch.setattr(join_mod, "build_prediction_matrix", bomb)
        warm = join(r, s, 0.1, method="sc", buffer_pages=16, matrix_cache=tmp_path)
        assert warm.report.extra["matrix_cache"] == "hit"
        # Zero sweep operations => zero matrix CPU seconds charged.
        assert warm.report.extra["matrix_seconds"] == 0.0
        assert sorted(warm.pairs) == sorted(cold.pairs)
        assert warm.report.extra["marked_entries"] == cold.report.extra["marked_entries"]

    def test_cache_off_by_default(self, datasets):
        r, s = datasets
        result = join(r, s, 0.1, method="pm-nlj", buffer_pages=16)
        assert result.report.extra["matrix_cache"] == "off"

    def test_self_join_triangle_applied_after_load(self, tmp_path, rng):
        pts = rng.random((120, 2))
        ds = IndexedDataset.from_points(pts, page_capacity=8)
        cold = join(ds, ds, 0.05, method="sc", buffer_pages=16, matrix_cache=tmp_path)
        warm = join(ds, ds, 0.05, method="sc", buffer_pages=16, matrix_cache=tmp_path)
        assert warm.report.extra["matrix_cache"] == "hit"
        assert sorted(warm.pairs) == sorted(cold.pairs)
        assert warm.report.extra["marked_entries"] == cold.report.extra["marked_entries"]

    def test_invalidation_forces_rebuild(self, tmp_path, datasets):
        r, s = datasets
        join(r, s, 0.1, method="pm-nlj", buffer_pages=16, matrix_cache=tmp_path)
        assert invalidate_matrix_cache(tmp_path) == 1
        rebuilt = join(r, s, 0.1, method="pm-nlj", buffer_pages=16, matrix_cache=tmp_path)
        assert rebuilt.report.extra["matrix_cache"] == "miss"

    def test_different_epsilon_misses(self, tmp_path, datasets):
        r, s = datasets
        join(r, s, 0.1, method="pm-nlj", buffer_pages=16, matrix_cache=tmp_path)
        other = join(r, s, 0.12, method="pm-nlj", buffer_pages=16, matrix_cache=tmp_path)
        assert other.report.extra["matrix_cache"] == "miss"

    def test_harness_shares_matrix_across_methods(self, tmp_path, datasets):
        from repro.experiments.harness import run_methods

        r, s = datasets
        runs = run_methods(
            r, s, 0.1, ["pm-nlj", "sc"], buffer_pages=16,
            matrix_cache=str(tmp_path),
        )
        assert runs["pm-nlj"].report.extra["matrix_cache"] == "miss"
        assert runs["sc"].report.extra["matrix_cache"] == "hit"
        assert runs["sc"].report.extra["matrix_seconds"] == 0.0
