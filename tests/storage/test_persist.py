"""Round-trip tests for dataset persistence."""

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.datasets import markov_dna
from repro.serve.incremental import append_to_dataset
from repro.storage.persist import (
    FingerprintChain,
    dataset_fingerprint,
    load_dataset,
    save_dataset,
)


def assert_same_levels(a, b):
    assert a.fanout == b.fanout
    assert len(a.levels) == len(b.levels)
    for got, want in zip(a.levels, b.levels):
        assert got.lo.tobytes() == want.lo.tobytes()
        assert got.hi.tobytes() == want.hi.tobytes()


class TestVectorRoundTrip:
    def test_join_identical_after_reload(self, rng, tmp_path):
        original = IndexedDataset.from_points(rng.random((200, 2)), page_capacity=16)
        other = IndexedDataset.from_points(rng.random((150, 2)), page_capacity=16)
        before = join(original, other, 0.05, method="sc", buffer_pages=10)

        save_dataset(original, tmp_path / "ds")
        restored = load_dataset(tmp_path / "ds")
        after = join(restored, other, 0.05, method="sc", buffer_pages=10)
        assert sorted(before.pairs) == sorted(after.pairs)
        assert before.report.page_reads == after.report.page_reads

    def test_structure_preserved(self, rng, tmp_path):
        original = IndexedDataset.from_points(rng.random((120, 3)), page_capacity=8)
        save_dataset(original, tmp_path / "ds")
        restored = load_dataset(tmp_path / "ds")
        assert restored.kind == "vector"
        assert restored.num_pages == original.num_pages
        assert np.array_equal(restored.index.order, original.index.order)
        assert np.array_equal(restored.paged.vectors, original.paged.vectors)
        assert_same_levels(restored.index, original.index)
        assert restored.index.num_index_nodes == original.index.num_index_nodes

    def test_distance_preserved(self, rng, tmp_path):
        original = IndexedDataset.from_points(rng.random((50, 2)), page_capacity=8, p=1.0)
        save_dataset(original, tmp_path / "ds")
        restored = load_dataset(tmp_path / "ds")
        assert restored.distance.p == 1.0


class TestSequenceRoundTrip:
    def test_text_round_trip(self, dna_dataset, tmp_path):
        save_dataset(dna_dataset, tmp_path / "dna")
        restored = load_dataset(tmp_path / "dna")
        assert restored.kind == "text"
        assert restored.paged.sequence == dna_dataset.paged.sequence
        assert np.array_equal(restored.features, dna_dataset.features)
        before = join(dna_dataset, dna_dataset, 1, method="sc", buffer_pages=10)
        after = join(restored, restored, 1, method="sc", buffer_pages=10)
        assert sorted(before.pairs) == sorted(after.pairs)

    def test_series_round_trip(self, rng, tmp_path):
        seq = rng.normal(size=300).cumsum()
        original = IndexedDataset.from_time_series(seq, window_length=8, windows_per_page=16)
        save_dataset(original, tmp_path / "series")
        restored = load_dataset(tmp_path / "series")
        assert restored.kind == "series"
        assert np.array_equal(np.asarray(restored.paged.sequence), seq)

    def test_dtw_series_round_trip(self, rng, tmp_path):
        seq = rng.normal(size=300).cumsum()
        original = IndexedDataset.from_time_series(
            seq, window_length=8, windows_per_page=16, dtw_band=2
        )
        save_dataset(original, tmp_path / "dtw")
        restored = load_dataset(tmp_path / "dtw")
        assert restored.distance.band == 2
        before = join(original, original, 0.4, method="sc", buffer_pages=10)
        after = join(restored, restored, 0.4, method="sc", buffer_pages=10)
        assert sorted(before.pairs) == sorted(after.pairs)


class TestIndexesNotRecomputable:
    """Leaf boxes and fanout that a rebuild from the data would not give
    back: the stored levels, not the data, must define the index."""

    def test_appended_vector_snapshot(self, rng, tmp_path):
        base = IndexedDataset.from_points(rng.random((300, 2)), page_capacity=8)
        delta = append_to_dataset(
            base, FingerprintChain.from_dataset(base), rng.random((20, 2)), 8
        )
        snapshot = delta.dataset
        # An append re-packs at fanout 16, not at the page capacity.
        assert snapshot.index.fanout == 16 != base.index.fanout
        save_dataset(snapshot, tmp_path / "appended")
        restored = load_dataset(tmp_path / "appended")
        assert_same_levels(restored.index, snapshot.index)
        assert dataset_fingerprint(restored) == delta.fingerprint
        other = IndexedDataset.from_points(rng.random((150, 2)), page_capacity=8)
        for method in ("sc", "bfrj"):
            before = join(snapshot, other, 0.05, method=method, buffer_pages=40)
            after = join(restored, other, 0.05, method=method, buffer_pages=40)
            assert before.pairs == after.pairs
            assert before.report.page_reads == after.report.page_reads

    def test_derived_box_text(self, tmp_path):
        original = IndexedDataset.from_string(
            markov_dna(1200, seed=5), window_length=16, windows_per_page=32,
            fanout=4, mrs_base_window=8,
        )
        direct = IndexedDataset.from_string(
            original.paged.sequence, window_length=16, windows_per_page=32, fanout=4
        )
        assert original.index.leaf_bounds().hi.tobytes() != (
            direct.index.leaf_bounds().hi.tobytes()
        ), "derived boxes must differ from the ones the data gives"
        save_dataset(original, tmp_path / "derived")
        restored = load_dataset(tmp_path / "derived")
        assert_same_levels(restored.index, original.index)
        assert dataset_fingerprint(restored) == dataset_fingerprint(original)
        before = join(original, original, 2, method="sc", buffer_pages=10)
        after = join(restored, restored, 2, method="sc", buffer_pages=10)
        assert before.pairs == after.pairs
        assert before.report.page_reads == after.report.page_reads


class TestErrors:
    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_save_rejects_non_dataset(self, tmp_path):
        with pytest.raises(TypeError):
            save_dataset(object(), tmp_path / "x")

    def test_version_check(self, rng, tmp_path):
        import json

        ds = IndexedDataset.from_points(rng.random((20, 2)), page_capacity=8)
        path = save_dataset(ds, tmp_path / "v")
        meta = json.loads((path / "dataset.json").read_text())
        meta["format_version"] = 999
        (path / "dataset.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="version"):
            load_dataset(path)

    def test_format_one_rejected(self, tmp_path):
        """Format 1 stored the hierarchy as a JSON node tree."""
        import json

        path = tmp_path / "v1"
        path.mkdir()
        leaf = {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "level": 0, "node_id": 0,
                "page_no": 0}
        meta = {"format_version": 1, "kind": "vector", "alphabet": "ACGT",
                "tree": leaf, "distance": {"type": "minkowski", "p": 2.0}}
        (path / "dataset.json").write_text(json.dumps(meta))
        np.savez_compressed(
            path / "arrays.npz", order=np.arange(2), vectors=np.zeros((2, 2)),
            page_offsets=np.array([0, 2]),
        )
        with pytest.raises(ValueError, match="unsupported dataset format version 1"):
            load_dataset(path)
