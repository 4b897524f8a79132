"""Tests for the MRS-index multi-resolution (derived-box) support."""

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.distance.frequency import frequency_vector
from repro.index.mrs import MRSIndex
from repro.storage.page import SequencePagedDataset


@pytest.fixture
def base_index():
    from repro.datasets import markov_dna

    text = markov_dna(1000, seed=6)
    ds = SequencePagedDataset(text, symbols_per_page=24, window_length=8)
    return MRSIndex(ds), text


class TestDerivedBoxes:
    def test_multiple_one_is_identity(self, base_index):
        index, _text = base_index
        assert index.derived_boxes(1) is index.to_page_index().leaf_bounds()

    @pytest.mark.parametrize("multiple", [2, 3, 4])
    def test_soundness(self, base_index, multiple):
        """Every long window's frequency vector lies in its page's box."""
        index, text = base_index
        boxes = index.derived_boxes(multiple)
        long_w = multiple * 8
        num_long = len(text) - long_w + 1
        ds = index.dataset
        for offset in range(0, num_long, 7):
            page = ds.page_of_offset(offset)
            vec = frequency_vector(text[offset : offset + long_w])
            box = boxes[page]
            assert np.all(box.lo <= vec) and np.all(vec <= box.hi), (
                f"offset {offset} escapes its derived box at multiple {multiple}"
            )

    def test_page_count_matches_long_window_dataset(self, base_index):
        index, text = base_index
        multiple = 3
        boxes = index.derived_boxes(multiple)
        long_ds = SequencePagedDataset(text, symbols_per_page=24, window_length=24)
        assert len(boxes) == long_ds.num_pages

    def test_rejects_bad_multiple(self, base_index):
        index, _ = base_index
        with pytest.raises(ValueError):
            index.derived_boxes(0)

    def test_rejects_window_exceeding_sequence(self):
        ds = SequencePagedDataset("ACGTACGTAC", symbols_per_page=4, window_length=4)
        index = MRSIndex(ds)
        with pytest.raises(ValueError):
            index.derived_boxes(10)


class TestMultiResolutionJoin:
    def test_same_results_as_direct_index(self):
        from repro.datasets import markov_dna

        text = markov_dna(1500, seed=8)
        direct = IndexedDataset.from_string(
            text, window_length=16, windows_per_page=32
        )
        derived = IndexedDataset.from_string(
            text, window_length=16, windows_per_page=32, mrs_base_window=8
        )
        a = join(direct, direct, 1, method="sc", buffer_pages=10)
        b = join(derived, derived, 1, method="sc", buffer_pages=10)
        assert sorted(a.pairs) == sorted(b.pairs)

    def test_derived_boxes_are_looser(self):
        from repro.datasets import markov_dna

        text = markov_dna(1500, seed=8)
        direct = IndexedDataset.from_string(text, window_length=16, windows_per_page=32)
        derived = IndexedDataset.from_string(
            text, window_length=16, windows_per_page=32, mrs_base_window=4
        )
        a = join(direct, direct, 1, method="sc", buffer_pages=10, count_only=True)
        b = join(derived, derived, 1, method="sc", buffer_pages=10, count_only=True)
        assert b.report.extra["marked_entries"] >= a.report.extra["marked_entries"]
        assert a.num_pairs == b.num_pairs

    def test_rejects_non_divisor_base(self):
        with pytest.raises(ValueError, match="divide"):
            IndexedDataset.from_string(
                "ACGT" * 100, window_length=10, windows_per_page=16,
                mrs_base_window=4,
            )
