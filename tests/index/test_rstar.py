"""Unit tests for the R*-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sweep import build_prediction_matrix, marked_box_pairs
from repro.geometry import Rect
from repro.index.rstar import RStarTree, build_spatial_page_index


def collect_ids(tree):
    return sorted(
        entry.data_index for leaf in tree.leaf_nodes() for entry in leaf.items
    )


class TestInsertion:
    def test_all_entries_present_after_splits(self, rng):
        tree = RStarTree(max_entries=4)
        pts = rng.random((200, 2))
        for k in range(200):
            tree.insert_point(pts[k], k)
        assert len(tree) == 200
        assert collect_ids(tree) == list(range(200))

    def test_invariants_hold(self, rng):
        tree = RStarTree(max_entries=5)
        pts = rng.random((150, 3))
        for k in range(150):
            tree.insert_point(pts[k], k)
        tree.validate()

    def test_boxes_cover_points(self, rng):
        tree = RStarTree(max_entries=4)
        pts = rng.random((80, 2))
        for k in range(80):
            tree.insert_point(pts[k], k)
        for leaf in tree.leaf_nodes():
            for entry in leaf.items:
                assert leaf.box.contains_rect(entry.rect)

    def test_height_grows_logarithmically(self, rng):
        tree = RStarTree(max_entries=4)
        for k in range(300):
            tree.insert_point(rng.random(2), k)
        assert 3 <= tree.height <= 8

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=3)

    def test_rejects_bad_min_fill(self):
        with pytest.raises(ValueError):
            RStarTree(max_entries=8, min_fill=0.9)

    def test_rect_entries(self):
        tree = RStarTree(max_entries=4)
        for k in range(10):
            tree.insert_rect(Rect([k, k], [k + 2, k + 2]), k)
        assert collect_ids(tree) == list(range(10))


class TestBulkLoad:
    """The default STR build of :func:`build_spatial_page_index`."""

    def test_all_entries_present(self, rng):
        pts = rng.random((500, 2))
        page_index, reordered = build_spatial_page_index(pts, 16, method="str")
        assert sorted(page_index.order.tolist()) == list(range(500))
        assert np.array_equal(reordered, pts[page_index.order])

    def test_leaves_nearly_full(self, rng):
        # STR packs tightly: every page is full except the last.
        pts = rng.random((503, 2))
        page_index, _ = build_spatial_page_index(pts, 16, method="str")
        sizes = np.diff(page_index.page_offsets)
        assert page_index.num_pages == 32
        assert np.all(sizes[:-1] == 16)
        assert sizes[-1] == 503 - 31 * 16

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_spatial_page_index(np.empty((0, 2)), 16, method="str")

    @pytest.mark.parametrize("shape", [(7,), (2, 3, 4)])
    def test_rejects_non_2d(self, shape):
        with pytest.raises(ValueError, match="non-empty"):
            build_spatial_page_index(np.zeros(shape), 16, method="str")

    @pytest.mark.parametrize("method", ["str", "rstar"])
    def test_rejects_tiny_page_capacity(self, rng, method):
        with pytest.raises(ValueError, match="page_capacity"):
            build_spatial_page_index(rng.random((20, 2)), 3, method=method)

    def test_high_dimensional(self, rng):
        pts = rng.random((300, 20))
        page_index, reordered = build_spatial_page_index(pts, 32, method="str")
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
        for page_no, box in enumerate(page_index.leaf_boxes):
            rows = reordered[offsets[page_no] : offsets[page_no + 1]]
            assert np.array_equal(box.lo, rows.min(axis=0))
            assert np.array_equal(box.hi, rows.max(axis=0))

        root = page_index.root
        root.validate()
        bfs, queue = [], [root]
        while queue:
            node = queue.pop(0)
            bfs.append(node)
            queue.extend(node.children)
            if node.is_leaf:
                assert node.box is page_index.leaf_boxes[node.page_no]
                continue
            assert len(node.children) <= capacity
            pages = [leaf.page_no for leaf in node.iter_leaves()]
            assert pages == list(range(pages[0], pages[0] + len(pages)))
            child_lo = np.stack([child.box.lo for child in node.children])
            child_hi = np.stack([child.box.hi for child in node.children])
            assert np.array_equal(node.box.lo, child_lo.min(axis=0))
            assert np.array_equal(node.box.hi, child_hi.max(axis=0))
        assert [node.node_id for node in bfs] == list(range(len(bfs)))
        assert [leaf.page_no for leaf in root.iter_leaves()] == list(
            range(page_index.num_pages)
        )

        num_pages = page_index.num_pages
        matrix, _ = build_prediction_matrix(root, root, epsilon, num_pages, num_pages)
        bounds = page_index.leaf_bounds()
        rows, cols = marked_box_pairs(bounds, bounds, epsilon)
        assert set(matrix.entries()) == set(zip(rows.tolist(), cols.tolist()))


class TestPageIndexExtraction:
    @pytest.mark.parametrize("method", ["str", "rstar"])
    def test_order_is_permutation(self, rng, method):
        pts = rng.random((120, 2))
        page_index, reordered = build_spatial_page_index(pts, 16, method=method)
        assert sorted(page_index.order.tolist()) == list(range(120))
        assert np.array_equal(reordered, pts[page_index.order])

    @pytest.mark.parametrize("method", ["str", "rstar"])
    def test_leaf_boxes_cover_their_pages(self, rng, method):
        pts = rng.random((120, 2))
        page_index, reordered = build_spatial_page_index(pts, 16, method=method)
        offsets = page_index.page_offsets
        assert offsets is not None
        for page_no, box in enumerate(page_index.leaf_boxes):
            chunk = reordered[offsets[page_no] : offsets[page_no + 1]]
            assert chunk.shape[0] >= 1
            assert np.all(chunk >= box.lo - 1e-12)
            assert np.all(chunk <= box.hi + 1e-12)

    def test_hierarchy_structurally_valid(self, rng):
        pts = rng.random((200, 2))
        page_index, _ = build_spatial_page_index(pts, 16)
        page_index.root.validate()
        leaves = list(page_index.root.iter_leaves())
        assert [leaf.page_no for leaf in leaves] == list(range(len(leaves)))

    def test_bfs_ids_assigned(self, rng):
        pts = rng.random((200, 2))
        page_index, _ = build_spatial_page_index(pts, 16)
        ids = []
        stack = [page_index.root]
        while stack:
            node = stack.pop()
            ids.append(node.node_id)
            stack.extend(node.children)
        assert sorted(ids) == list(range(page_index.num_index_nodes))

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError):
            build_spatial_page_index(rng.random((10, 2)), 4, method="bogus")
