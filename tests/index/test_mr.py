"""Unit tests for the MR-index (time-series window MBRs)."""

import numpy as np
import pytest

from repro.index.mr import MRIndex
from repro.storage.page import SequencePagedDataset


@pytest.fixture
def series_dataset(rng):
    seq = rng.normal(size=300).cumsum()
    return SequencePagedDataset(seq, symbols_per_page=20, window_length=8)


class TestRawFeatures:
    def test_leaf_boxes_cover_windows(self, series_dataset):
        leaf = MRIndex(series_dataset).to_page_index().leaf_bounds()
        for page_no, box in enumerate(leaf):
            windows = series_dataset.page_objects(page_no)
            assert np.all(windows >= box.lo - 1e-12)
            assert np.all(windows <= box.hi + 1e-12)

    def test_one_leaf_per_page(self, series_dataset):
        pi = MRIndex(series_dataset).to_page_index()
        assert pi.num_pages == series_dataset.num_pages
        assert len(pi.levels[-1]) == 1

    def test_page_index_identity_order(self, series_dataset):
        pi = MRIndex(series_dataset).to_page_index()
        assert np.array_equal(pi.order, np.arange(series_dataset.num_windows))
        assert pi.page_offsets is None

    def test_window_feature_is_the_window(self, series_dataset):
        index = MRIndex(series_dataset)
        seq = np.asarray(series_dataset.sequence)
        assert np.array_equal(index.window_feature(5), seq[5:13])


class TestPaaFeatures:
    def test_paa_lower_bounds_euclidean(self, rng):
        seq = rng.normal(size=200).cumsum()
        ds = SequencePagedDataset(seq, symbols_per_page=16, window_length=12)
        index = MRIndex(ds, feature="paa", paa_segments=4)
        feats = index.features
        windows = np.lib.stride_tricks.sliding_window_view(seq, 12)
        for _ in range(50):
            i, j = rng.integers(0, ds.num_windows, size=2)
            feature_dist = np.linalg.norm(feats[i] - feats[j])
            true_dist = np.linalg.norm(windows[i] - windows[j])
            assert feature_dist <= true_dist + 1e-9

    def test_paa_dimensionality(self, series_dataset):
        index = MRIndex(series_dataset, feature="paa", paa_segments=4)
        assert index.features.shape[1] == 4

    def test_rejects_bad_segments(self, series_dataset):
        with pytest.raises(ValueError):
            MRIndex(series_dataset, feature="paa", paa_segments=0)
        with pytest.raises(ValueError):
            MRIndex(series_dataset, feature="paa", paa_segments=100)


class TestValidation:
    def test_rejects_text_dataset(self):
        text = SequencePagedDataset("ACGTACGTACGT", symbols_per_page=4, window_length=4)
        with pytest.raises(TypeError):
            MRIndex(text)

    def test_rejects_unknown_feature(self, series_dataset):
        with pytest.raises(ValueError):
            MRIndex(series_dataset, feature="dct")

    def test_hierarchy_valid(self, series_dataset):
        MRIndex(series_dataset).to_page_index().validate()
