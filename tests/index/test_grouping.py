"""Unit tests for the shared page-box routine and hierarchy builder."""

import numpy as np
import pytest

from repro.datasets import markov_dna
from repro.distance.frequency import frequency_vector
from repro.geometry import BoxArray
from repro.index._grouping import build_contiguous_hierarchy, page_boxes
from repro.index.mr import MRIndex
from repro.index.mrs import MRSIndex
from repro.index.node import PageIndex
from repro.storage.page import SequencePagedDataset
from tests.oracles.kernels import sliding_envelopes


def boxes(n):
    lo = np.array([[k, 0.0] for k in range(n)]).reshape(n, 2)
    return BoxArray(lo, lo + 1.0)


def pack(n, fanout):
    return PageIndex.pack(boxes(n), fanout, np.arange(n))


class TestBuildContiguousHierarchy:
    def test_single_leaf_is_root(self):
        levels = build_contiguous_hierarchy(boxes(1), fanout=4)
        assert len(levels) == 1
        assert len(levels[0]) == 1

    def test_leaves_in_page_order(self):
        leaf = boxes(20)
        levels = build_contiguous_hierarchy(leaf, fanout=4)
        assert levels[0] is leaf

    def test_parent_boxes_cover_children(self):
        pack(37, fanout=5).validate()

    def test_fanout_respected(self):
        index = pack(64, fanout=4)
        assert [len(level) for level in index.levels] == [64, 16, 4, 1]
        for level in range(1, len(index.levels)):
            for row in range(len(index.levels[level])):
                start, stop = index.children(level, row)
                assert stop - start <= 4

    @pytest.mark.parametrize("n,fanout,height", [(16, 4, 2), (17, 4, 3), (4, 2, 2)])
    def test_height(self, n, fanout, height):
        assert len(build_contiguous_hierarchy(boxes(n), fanout=fanout)) == height + 1

    def test_bfs_ids_assigned(self):
        index = pack(10, fanout=3)
        firsts = [index.first_node_id(level) for level in range(index.height + 1)]
        assert firsts == [7, 3, 1, 0]
        assert index.num_index_nodes == 10 + 4 + 2 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            build_contiguous_hierarchy(BoxArray.empty(2), fanout=4)
        with pytest.raises(ValueError):
            build_contiguous_hierarchy(boxes(4), fanout=1)


def assert_same_box(box, lo, hi):
    assert np.array_equal(box.lo, lo) and np.array_equal(box.hi, hi)


class TestPageBoxes:
    def test_each_box_is_its_pages_min_max(self, rng):
        rows = rng.normal(size=(103, 5))
        starts = np.array([0, 1, 2, 10, 50, 102])
        boxes = page_boxes(rows, starts)
        assert len(boxes) == len(starts)
        ends = list(starts[1:]) + [len(rows)]
        for k, (start, end) in enumerate(zip(starts, ends)):
            assert_same_box(
                boxes.rect(k), rows[start:end].min(axis=0), rows[start:end].max(axis=0)
            )

    def test_strided_window_view(self, rng):
        seq = rng.normal(size=60)
        windows = np.lib.stride_tricks.sliding_window_view(seq, 7)
        boxes = page_boxes(windows, np.arange(0, len(windows), 9))
        assert_same_box(boxes.rect(5), windows[45:54].min(axis=0), windows[45:54].max(axis=0))


class TestIndexLeafBoxes:
    """MR and MRS leaf boxes are their pages' exact min/max (DTW: widened)."""

    @pytest.mark.parametrize("band", [None, 0, 3])
    def test_mr_raw(self, rng, band):
        seq = rng.normal(size=517).cumsum()
        dataset = SequencePagedDataset(seq, symbols_per_page=20, window_length=8)
        leaf = MRIndex(dataset, dtw_band=band).to_page_index().leaf_bounds()
        assert len(leaf) == dataset.num_pages
        for page_no, box in enumerate(leaf):
            windows = dataset.page_objects(page_no)
            lo, hi = windows.min(axis=0), windows.max(axis=0)
            if band is not None:
                lo = sliding_envelopes(lo, band)[0][0]
                hi = sliding_envelopes(hi, band)[1][0]
            assert_same_box(box, lo, hi)

    def test_mrs(self):
        dataset = SequencePagedDataset(
            markov_dna(1111, seed=2), symbols_per_page=32, window_length=10
        )
        leaf = MRSIndex(dataset).to_page_index().leaf_bounds()
        assert len(leaf) == dataset.num_pages
        for page_no, box in enumerate(leaf):
            vectors = np.stack([frequency_vector(w) for w in dataset.page_objects(page_no)])
            assert_same_box(box, vectors.min(axis=0), vectors.max(axis=0))

