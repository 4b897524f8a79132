"""Unit tests for the page index's packed level arrays."""

import numpy as np
import pytest

from repro.geometry import BoxArray
from repro.index.node import PageIndex


def make_index():
    """Four unit pages in a row, packed two at a time: levels of 4, 2, 1."""
    lo = np.array([[k, 0.0] for k in range(4)])
    leaf = BoxArray(lo, lo + 1.0)
    return PageIndex.pack(leaf, fanout=2, order=np.arange(4))


class TestPageIndex:
    def test_counts(self):
        index = make_index()
        assert [len(level) for level in index.levels] == [4, 2, 1]
        assert index.num_pages == 4
        assert index.num_index_nodes == 7
        assert index.height == 2

    def test_parent_rows_are_children_unions(self):
        index = make_index()
        assert index.levels[1].lo.tolist() == [[0, 0], [2, 0]]
        assert index.levels[1].hi.tolist() == [[2, 1], [4, 1]]
        assert index.levels[2].rect(0).lo.tolist() == [0, 0]
        assert index.levels[2].rect(0).hi.tolist() == [4, 1]

    def test_children_are_contiguous_row_ranges(self):
        index = make_index()
        assert index.children(2, 0) == (0, 2)
        assert index.children(1, 1) == (2, 4)
        ragged = PageIndex.pack(index.leaf_bounds()[np.arange(3)], 2, np.arange(3))
        assert ragged.children(1, 1) == (2, 3)

    def test_validate_accepts_good_tree(self):
        make_index().validate()

    def test_validate_rejects_escaping_child(self):
        index = make_index()
        grown = index.levels[0].hi.copy()
        grown[3, 0] += 1.0  # page 3 now pokes out of its parent
        index.levels[0] = BoxArray(index.levels[0].lo, grown)
        with pytest.raises(AssertionError):
            index.validate()


class TestBfsIds:
    def test_numbering_is_breadth_first(self):
        index = make_index()
        assert index.first_node_id(2) == 0
        assert [index.first_node_id(1) + row for row in range(2)] == [1, 2]
        assert [index.first_node_id(0) + row for row in range(4)] == [3, 4, 5, 6]

    def test_leaf_bfs_order_matches_page_order(self):
        index = make_index()
        ids = [index.first_node_id(0) + page for page in range(index.num_pages)]
        assert ids == sorted(ids)
        assert ids[-1] == index.num_index_nodes - 1
