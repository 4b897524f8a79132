"""Unit tests for the MRS-index (string frequency-vector MBRs)."""

import numpy as np
import pytest

from repro.distance.frequency import frequency_vector
from repro.index.mrs import MRSIndex
from repro.storage.page import SequencePagedDataset


@pytest.fixture
def text_dataset():
    from repro.datasets import markov_dna

    text = markov_dna(600, seed=9)
    return SequencePagedDataset(text, symbols_per_page=25, window_length=12)


class TestMRSIndex:
    def test_leaf_boxes_cover_frequency_vectors(self, text_dataset):
        leaf = MRSIndex(text_dataset).to_page_index().leaf_bounds()
        for page_no, box in enumerate(leaf):
            start, stop = text_dataset.window_range(page_no)
            for offset in range(start, stop):
                window = text_dataset.sequence[offset : offset + 12]
                vec = frequency_vector(window)
                assert np.all(box.lo <= vec) and np.all(vec <= box.hi)

    def test_features_match_direct_computation(self, text_dataset):
        index = MRSIndex(text_dataset)
        for offset in (0, 7, 100):
            window = text_dataset.sequence[offset : offset + 12]
            assert np.array_equal(index.features[offset], frequency_vector(window))

    def test_page_features_slice(self, text_dataset):
        index = MRSIndex(text_dataset)
        start, stop = text_dataset.window_range(2)
        assert np.array_equal(index.page_features(2), index.features[start:stop])

    def test_page_index_identity_order(self, text_dataset):
        pi = MRSIndex(text_dataset).to_page_index()
        assert np.array_equal(pi.order, np.arange(text_dataset.num_windows))
        assert pi.num_pages == text_dataset.num_pages

    def test_hierarchy_valid(self, text_dataset):
        MRSIndex(text_dataset).to_page_index().validate()

    def test_rejects_numeric_dataset(self, rng):
        numeric = SequencePagedDataset(
            rng.normal(size=100), symbols_per_page=10, window_length=5
        )
        with pytest.raises(TypeError):
            MRSIndex(numeric)

    def test_small_fanout_deepens_tree(self, text_dataset):
        shallow = MRSIndex(text_dataset, fanout=16)
        deep = MRSIndex(text_dataset, fanout=2)
        assert deep.to_page_index().height >= shallow.to_page_index().height
