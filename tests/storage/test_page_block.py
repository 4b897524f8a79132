"""Unit tests for columnar page views (``pages_view`` / ``PageBlock``)."""

import numpy as np
import pytest

from repro.storage.page import PageBlock, SequencePagedDataset, VectorPagedDataset


@pytest.fixture
def vectors():
    return np.arange(60, dtype=float).reshape(30, 2)


@pytest.fixture
def vec_dataset(vectors):
    return VectorPagedDataset(vectors, objects_per_page=4, dataset_id="v")


class TestVectorPagesView:
    def test_contiguous_pages_share_memory(self, vec_dataset, vectors):
        block = vec_dataset.pages_view([1, 2, 3])
        assert np.shares_memory(block.objects, vectors)
        assert np.array_equal(block.objects, vectors[4:16])

    def test_gapped_pages_gather(self, vec_dataset, vectors):
        block = vec_dataset.pages_view([0, 2, 5])
        assert block.objects.shape == (12, 2)
        expected = np.concatenate([vectors[0:4], vectors[8:12], vectors[20:24]])
        assert np.array_equal(block.objects, expected)
        assert block.starts.tolist() == [0, 4, 8]
        assert block.counts.tolist() == [4, 4, 4]
        assert block.global_starts.tolist() == [0, 8, 20]

    def test_global_ids_cover_all_rows(self, vec_dataset):
        block = vec_dataset.pages_view([0, 2, 5])
        expected = [0, 1, 2, 3, 8, 9, 10, 11, 20, 21, 22, 23]
        assert block.global_ids.tolist() == expected

    def test_ragged_last_page(self, vectors):
        dataset = VectorPagedDataset(vectors, objects_per_page=8, dataset_id="v2")
        block = dataset.pages_view([3])  # 30 rows / 8 per page -> last has 6
        assert block.counts.tolist() == [6]
        assert np.array_equal(block.objects, vectors[24:30])

    def test_explicit_offsets_respected(self, vectors):
        dataset = VectorPagedDataset(
            vectors, page_offsets=[0, 5, 12, 30], dataset_id="v3"
        )
        block = dataset.pages_view([0, 2])
        assert block.counts.tolist() == [5, 18]
        assert block.global_starts.tolist() == [0, 12]
        assert np.array_equal(
            block.objects, np.concatenate([vectors[0:5], vectors[12:30]])
        )

    @pytest.mark.parametrize(
        "bad", [[], [2, 1], [0, 0], [-1], [99], np.zeros((2, 2), dtype=int)]
    )
    def test_invalid_page_lists_rejected(self, vec_dataset, bad):
        with pytest.raises(ValueError):
            vec_dataset.pages_view(bad)

    def test_matches_page_objects(self, vec_dataset):
        block = vec_dataset.pages_view([1, 4])
        for k, page in enumerate(block.page_nos.tolist()):
            start = int(block.starts[k])
            count = int(block.counts[k])
            assert np.array_equal(
                block.objects[start : start + count],
                vec_dataset.page_objects(page),
            )


class TestSequencePagesView:
    @pytest.fixture
    def series(self):
        return SequencePagedDataset(
            np.arange(40, dtype=float), symbols_per_page=6, window_length=5,
            dataset_id="s",
        )

    def test_numeric_rows_are_windows(self, series):
        block = series.pages_view([0, 2])
        start0, stop0 = series.window_range(0)
        start2, stop2 = series.window_range(2)
        expected = np.concatenate(
            [series.page_objects(0), series.page_objects(2)]
        )
        assert np.array_equal(block.objects, expected)
        assert block.global_starts.tolist() == [start0, start2]
        assert block.counts.tolist() == [stop0 - start0, stop2 - start2]

    def test_contiguous_numeric_is_view(self, series):
        block = series.pages_view([1, 2])
        assert np.shares_memory(block.objects, series.windows_matrix())

    def test_ragged_last_page(self, series):
        last = series.num_pages - 1
        block = series.pages_view([last])
        start, stop = series.window_range(last)
        assert block.counts.tolist() == [stop - start]

    def test_text_rows_are_byte_windows(self):
        text = "ACGTACGTACGTACGT"
        dataset = SequencePagedDataset(
            text, symbols_per_page=4, window_length=3, dataset_id="t"
        )
        block = dataset.pages_view([0, 2])
        for k, page in enumerate(block.page_nos.tolist()):
            start = int(block.starts[k])
            for local, window in enumerate(dataset.page_objects(page)):
                row = block.objects[start + local]
                assert bytes(row).decode("latin-1") == window

    def test_windows_matrix_cached(self, series):
        assert series.windows_matrix() is series.windows_matrix()


class TestPageBlockExport:
    def test_exported_from_storage_package(self):
        import repro.storage as storage

        assert storage.PageBlock is PageBlock
        assert "PageBlock" in storage.__all__
