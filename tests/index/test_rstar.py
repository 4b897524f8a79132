"""Unit tests for the STR-packed R-tree build."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sweep import build_prediction_matrix, marked_box_pairs
from repro.index.rstar import build_spatial_page_index


def bfs_nodes(page_index):
    """(level, row) of every node in breadth-first order from the root."""
    order, queue = [], [(page_index.height, 0)]
    while queue:
        level, row = queue.pop(0)
        order.append((level, row))
        if level > 0:
            start, stop = page_index.children(level, row)
            queue.extend((level - 1, child) for child in range(start, stop))
    return order


class TestBulkLoad:
    """The STR build of :func:`build_spatial_page_index`."""

    def test_all_entries_present(self, rng):
        pts = rng.random((500, 2))
        page_index, reordered = build_spatial_page_index(pts, 16)
        assert sorted(page_index.order.tolist()) == list(range(500))
        assert np.array_equal(reordered, pts[page_index.order])

    def test_leaves_nearly_full(self, rng):
        # STR packs tightly: every page is full except the last.
        pts = rng.random((503, 2))
        page_index, _ = build_spatial_page_index(pts, 16)
        sizes = np.diff(page_index.page_offsets)
        assert page_index.num_pages == 32
        assert np.all(sizes[:-1] == 16)
        assert sizes[-1] == 503 - 31 * 16

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_spatial_page_index(np.empty((0, 2)), 16)

    @pytest.mark.parametrize("shape", [(7,), (2, 3, 4)])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            build_spatial_page_index(np.zeros(shape), 16)

    def test_rejects_tiny_page_capacity(self, rng):
        with pytest.raises(ValueError, match="page_capacity"):
            build_spatial_page_index(rng.random((20, 2)), 3)

    def test_high_dimensional(self, rng):
        pts = rng.random((300, 20))
        page_index, reordered = build_spatial_page_index(pts, 32)
        assert sorted(page_index.order.tolist()) == list(range(300))
        assert page_index.leaf_bounds().dim == 20
        assert np.array_equal(page_index.leaf_bounds().lo[0], reordered[:32].min(axis=0))


class TestStrBuildProperties:
    """Every STR tree is the packed hierarchy over exact page boxes."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 5000),
        d=st.integers(1, 8),
        capacity=st.integers(4, 80),
        seed=st.integers(0, 2**32 - 1),
        grid=st.booleans(),
        epsilon=st.floats(0.0, 0.05),
    )
    def test_packed_hierarchy_over_exact_page_boxes(
        self, n, d, capacity, seed, grid, epsilon
    ):
        pts = np.random.default_rng(seed).random((n, d))
        if grid:
            pts = np.floor(pts * 4)  # duplicate coordinates and touching boxes
        page_index, reordered = build_spatial_page_index(pts, capacity)
        assert np.array_equal(np.sort(page_index.order), np.arange(n))
        assert np.array_equal(reordered, pts[page_index.order])
        offsets = page_index.page_offsets
        assert offsets.tolist() == list(range(0, n, capacity)) + [n]
        leaf = page_index.leaf_bounds()
        for page_no in range(page_index.num_pages):
            rows = reordered[offsets[page_no] : offsets[page_no + 1]]
            assert np.array_equal(leaf.lo[page_no], rows.min(axis=0))
            assert np.array_equal(leaf.hi[page_no], rows.max(axis=0))

        page_index.validate()
        assert page_index.fanout == capacity
        for level in range(1, len(page_index.levels)):
            below, upper = page_index.levels[level - 1], page_index.levels[level]
            for row in range(len(upper)):
                start, stop = page_index.children(level, row)
                assert 1 <= stop - start <= capacity
                assert np.array_equal(upper.lo[row], below.lo[start:stop].min(axis=0))
                assert np.array_equal(upper.hi[row], below.hi[start:stop].max(axis=0))
        ids = [page_index.first_node_id(lvl) + row for lvl, row in bfs_nodes(page_index)]
        assert ids == list(range(page_index.num_index_nodes))

        matrix, _ = build_prediction_matrix(page_index, page_index, epsilon)
        rows, cols = marked_box_pairs(leaf, leaf, epsilon)
        assert set(matrix.entries()) == set(zip(rows.tolist(), cols.tolist()))


class TestPageIndexExtraction:
    def test_order_is_permutation(self, rng):
        pts = rng.random((120, 2))
        page_index, reordered = build_spatial_page_index(pts, 16)
        assert sorted(page_index.order.tolist()) == list(range(120))
        assert np.array_equal(reordered, pts[page_index.order])

    def test_leaf_boxes_cover_their_pages(self, rng):
        pts = rng.random((120, 2))
        page_index, reordered = build_spatial_page_index(pts, 16)
        offsets = page_index.page_offsets
        assert offsets is not None
        for page_no, box in enumerate(page_index.leaf_bounds()):
            chunk = reordered[offsets[page_no] : offsets[page_no + 1]]
            assert chunk.shape[0] >= 1
            assert np.all(chunk >= box.lo - 1e-12)
            assert np.all(chunk <= box.hi + 1e-12)

    def test_hierarchy_structurally_valid(self, rng):
        pts = rng.random((200, 2))
        page_index, _ = build_spatial_page_index(pts, 16)
        page_index.validate()
        assert [len(level) for level in page_index.levels] == [13, 1]

    def test_bfs_ids_assigned(self, rng):
        pts = rng.random((200, 2))
        page_index, _ = build_spatial_page_index(pts, 4)
        assert page_index.height == 3
        ids = [page_index.first_node_id(lvl) + row for lvl, row in bfs_nodes(page_index)]
        assert ids == list(range(page_index.num_index_nodes))
        assert page_index.first_node_id(0) == page_index.num_index_nodes - 50
