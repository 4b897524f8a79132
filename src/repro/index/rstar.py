"""R*-tree over point/spatial data, with leaf-per-page extraction.

Implements the Beckmann et al. R*-tree insertion path — ChooseSubtree with
overlap-minimising leaf choice, forced reinsertion (30 % of entries, once
per level per insert), and the topological split (axis by minimum margin
sum, index by minimum overlap) — plus a Sort-Tile-Recursive order for
packing large static datasets.

The join paper assumes "the datasets are indexed prior to join operation"
and that "the data objects are sorted so that the contents of each leaf
level MBR appear contiguously on disk" (Section 5.1).
:func:`build_spatial_page_index` performs exactly that and returns the
permutation that makes each leaf's objects contiguous plus the MBR
hierarchy with leaf → page numbering.  Its default STR build never
materialises a tree of objects: it orders the points, boxes each run of
``page_capacity`` consecutive points as one page, and packs those boxes
``page_capacity`` at a time per level — the packed R-tree an STR bulk load
produces, built from arrays by the same two routines every other index
uses (:mod:`repro.index._grouping`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry import Rect, union_all
from repro.index._grouping import build_contiguous_hierarchy, page_boxes
from repro.index.node import IndexNode, PageIndex, assign_bfs_ids

__all__ = ["RStarTree", "build_spatial_page_index"]

_REINSERT_FRACTION = 0.3


@dataclass
class _Entry:
    """A leaf entry: the MBR of one data object plus its row index."""

    rect: Rect
    data_index: int


class _Node:
    """Internal tree node; ``items`` holds ``_Entry`` (leaf) or ``_Node``."""

    __slots__ = ("is_leaf", "items", "box", "parent")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.items: list = []
        self.box: Rect | None = None
        self.parent: "_Node | None" = None

    def recompute_box(self) -> None:
        self.box = union_all(_item_rect(item) for item in self.items)


def _item_rect(item) -> Rect:
    return item.rect if isinstance(item, _Entry) else item.box


class RStarTree:
    """An R*-tree over rectangles (points are degenerate rectangles).

    Parameters
    ----------
    max_entries:
        Node capacity ``M``.  The paper sets "the capacity of each MBR ...
        to one page size", so this doubles as the data-page capacity.
    min_fill:
        Minimum fill ratio ``m / M`` used by the split (R* default 0.4).

    Examples
    --------
    >>> tree = RStarTree(max_entries=4)
    >>> for i, point in enumerate([[0, 0], [1, 1], [5, 5], [6, 6], [2, 9]]):
    ...     tree.insert_point(point, i)
    >>> sorted(e for leaf in tree.leaf_nodes() for e in leaf_entry_ids(leaf))
    [0, 1, 2, 3, 4]
    """

    def __init__(self, max_entries: int = 64, min_fill: float = 0.4) -> None:
        if max_entries < 4:
            raise ValueError(f"max_entries must be at least 4, got {max_entries}")
        if not 0.0 < min_fill <= 0.5:
            raise ValueError(f"min_fill must be in (0, 0.5], got {min_fill}")
        self.max_entries = max_entries
        self.min_entries = max(2, int(math.floor(max_entries * min_fill)))
        self._root = _Node(is_leaf=True)
        self._size = 0

    # -- public API -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root is height 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.items[0]
            height += 1
        return height

    def insert_point(self, point: Sequence[float], data_index: int) -> None:
        """Insert a point object with the given data row index."""
        self.insert_rect(Rect.from_point(point), data_index)

    def insert_rect(self, rect: Rect, data_index: int) -> None:
        """Insert a rectangular object with the given data row index."""
        self._insert_entry(_Entry(rect, data_index), set())
        self._size += 1

    def range_search(self, query: Rect) -> List[int]:
        """Data indices of all entries whose MBR intersects ``query``.

        Standard R-tree range search: prune subtrees whose boxes miss the
        query.  The join pipeline never calls this (it works on whole
        pages), but an index a database pre-builds for joins also serves
        point/window queries — this is that API.
        """
        found: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.box is None or not node.box.intersects(query):
                continue
            if node.is_leaf:
                found.extend(
                    entry.data_index
                    for entry in node.items
                    if entry.rect.intersects(query)
                )
            else:
                stack.extend(node.items)
        return found

    def nearest_neighbours(self, point: Sequence[float], k: int = 1) -> List[int]:
        """Data indices of the ``k`` entries nearest to ``point`` (L2).

        Best-first search over node MBR distances (Hjaltason & Samet —
        the incremental NN algorithm the paper's Section 2.2 discusses in
        its distance-join form).
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        import heapq

        counter = 0  # tie-breaker: heap entries must never compare nodes
        heap: List[tuple] = [(0.0, counter, False, self._root)]
        found: List[int] = []
        while heap and len(found) < k:
            _dist, _tie, is_entry, item = heapq.heappop(heap)
            if is_entry:
                found.append(item.data_index)
                continue
            node: _Node = item
            if node.box is None:
                continue
            for child in node.items:
                counter += 1
                if node.is_leaf:
                    heapq.heappush(
                        heap,
                        (child.rect.min_dist_point(point), counter, True, child),
                    )
                else:
                    heapq.heappush(
                        heap,
                        (child.box.min_dist_point(point), counter, False, child),
                    )
        return found

    def leaf_nodes(self) -> List[_Node]:
        """All leaves, left to right."""
        leaves: List[_Node] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaves.append(node)
            else:
                stack.extend(reversed(node.items))
        return leaves

    def validate(self) -> None:
        """Check tree invariants; raises ``AssertionError`` on breakage."""
        self._validate_node(self._root, is_root=True)

    # -- insertion internals ----------------------------------------------------

    def _insert_entry(self, item, reinserted_levels: set, target_level: int = 0) -> None:
        node = self._choose_subtree(item, target_level)
        node.items.append(item)
        if isinstance(item, _Node):
            item.parent = node
        self._adjust_boxes_upward(node)
        if len(node.items) > self.max_entries:
            self._overflow(node, reinserted_levels)

    def _node_level(self, node: _Node) -> int:
        level = 0
        probe = node
        while not probe.is_leaf:
            probe = probe.items[0]
            level += 1
        return level

    def _choose_subtree(self, item, target_level: int) -> _Node:
        rect = _item_rect(item)
        node = self._root
        while self._node_level(node) > target_level:
            children: List[_Node] = node.items
            child_is_leaf = isinstance(children[0], _Node) and children[0].is_leaf
            if child_is_leaf and target_level == 0:
                # R* refinement: among leaf children pick by overlap growth.
                node = _least_overlap_child(children, rect)
            else:
                node = _least_enlargement_child(children, rect)
        return node

    def _adjust_boxes_upward(self, node: _Node) -> None:
        probe: _Node | None = node
        while probe is not None:
            probe.recompute_box()
            probe = probe.parent

    def _overflow(self, node: _Node, reinserted_levels: set) -> None:
        level = self._node_level(node)
        if node is not self._root and level not in reinserted_levels:
            reinserted_levels.add(level)
            self._forced_reinsert(node, reinserted_levels)
        else:
            self._split(node, reinserted_levels)

    def _forced_reinsert(self, node: _Node, reinserted_levels: set) -> None:
        assert node.box is not None
        center = node.box.center()
        count = max(1, int(round(len(node.items) * _REINSERT_FRACTION)))
        # Sort by distance of item-MBR centre from node centre, far first.
        node.items.sort(
            key=lambda item: float(np.sum((_item_rect(item).center() - center) ** 2))
        )
        evicted = node.items[-count:]
        del node.items[-count:]
        self._adjust_boxes_upward(node)
        level = self._node_level(node)
        for item in evicted:
            self._insert_entry(item, reinserted_levels, target_level=level)

    def _split(self, node: _Node, reinserted_levels: set) -> None:
        group_a, group_b = _rstar_split(node.items, self.min_entries)
        sibling = _Node(is_leaf=node.is_leaf)
        node.items = group_a
        sibling.items = group_b
        if not node.is_leaf:
            for child in node.items:
                child.parent = node
            for child in sibling.items:
                child.parent = sibling
        node.recompute_box()
        sibling.recompute_box()

        parent = node.parent
        if parent is None:
            new_root = _Node(is_leaf=False)
            new_root.items = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            new_root.recompute_box()
            self._root = new_root
            return
        parent.items.append(sibling)
        sibling.parent = parent
        self._adjust_boxes_upward(parent)
        if len(parent.items) > self.max_entries:
            self._overflow(parent, reinserted_levels)

    # -- validation -------------------------------------------------------------

    def _validate_node(self, node: _Node, is_root: bool) -> None:
        assert len(node.items) <= self.max_entries, (
            f"node with {len(node.items)} items exceeds capacity {self.max_entries}"
        )
        if not is_root:
            assert len(node.items) >= self.min_entries, (
                f"non-root node with {len(node.items)} items is under-filled "
                f"(minimum {self.min_entries})"
            )
        elif not node.is_leaf:
            assert len(node.items) >= 2, "internal root must have at least two children"
        assert node.box is not None or not node.items
        if node.box is not None:
            for item in node.items:
                assert node.box.contains_rect(_item_rect(item))
        if not node.is_leaf:
            depths = set()
            for child in node.items:
                assert child.parent is node
                self._validate_node(child, is_root=False)
                depths.add(self._node_level(child))
            assert len(depths) <= 1, "children at unequal depths"

    # -- page extraction ----------------------------------------------------------

    def to_page_index(self) -> PageIndex:
        """Leaf-per-page hierarchy plus the disk-contiguity permutation."""
        leaves = self.leaf_nodes()
        order: List[int] = []
        offsets = [0]
        leaf_nodes: List[IndexNode] = []
        for page_no, leaf in enumerate(leaves):
            assert leaf.box is not None
            for entry in leaf.items:
                order.append(entry.data_index)
            offsets.append(len(order))
            leaf_nodes.append(IndexNode(box=leaf.box, page_no=page_no, level=0))
        root = self._mirror(self._root, iter(leaf_nodes))
        assign_bfs_ids(root)
        return PageIndex(
            root=root,
            leaf_boxes=[leaf.box for leaf in leaf_nodes],
            order=np.asarray(order, dtype=np.int64),
            page_offsets=np.asarray(offsets, dtype=np.int64),
        )

    def _mirror(self, node: _Node, leaf_iter) -> IndexNode:
        if node.is_leaf:
            return next(leaf_iter)
        children = [self._mirror(child, leaf_iter) for child in node.items]
        assert node.box is not None
        return IndexNode(box=node.box, children=children, level=children[0].level + 1)


# -- split machinery (module level: pure functions over item lists) ------------


def _least_enlargement_child(children: List[_Node], rect: Rect) -> _Node:
    best = None
    best_key: Tuple[float, float] | None = None
    for child in children:
        assert child.box is not None
        enlarged = child.box.union(rect)
        key = (enlarged.area() - child.box.area(), child.box.area())
        if best_key is None or key < best_key:
            best, best_key = child, key
    assert best is not None
    return best


def _least_overlap_child(children: List[_Node], rect: Rect) -> _Node:
    """R* leaf-level choice: least overlap enlargement, then least area growth."""
    best = None
    best_key: Tuple[float, float, float] | None = None
    for child in children:
        assert child.box is not None
        enlarged = child.box.union(rect)
        overlap_before = _total_overlap(child.box, children, child)
        overlap_after = _total_overlap(enlarged, children, child)
        key = (
            overlap_after - overlap_before,
            enlarged.area() - child.box.area(),
            child.box.area(),
        )
        if best_key is None or key < best_key:
            best, best_key = child, key
    assert best is not None
    return best


def _total_overlap(box: Rect, siblings: List[_Node], skip: _Node) -> float:
    total = 0.0
    for other in siblings:
        if other is skip:
            continue
        assert other.box is not None
        overlap = box.intersection(other.box)
        if overlap is not None:
            total += overlap.area()
    return total


def _rstar_split(items: list, min_entries: int) -> Tuple[list, list]:
    """R* topological split: axis by min margin sum, index by min overlap."""
    dim = _item_rect(items[0]).dim
    best_axis, best_axis_margin = 0, math.inf
    for axis in range(dim):
        margin = 0.0
        for sort_key in (_lo_key(axis), _hi_key(axis)):
            ordered = sorted(items, key=sort_key)
            for split_at in _split_positions(len(items), min_entries):
                left = union_all(_item_rect(i) for i in ordered[:split_at])
                right = union_all(_item_rect(i) for i in ordered[split_at:])
                margin += left.margin() + right.margin()
        if margin < best_axis_margin:
            best_axis, best_axis_margin = axis, margin

    best_groups: Tuple[list, list] | None = None
    best_key: Tuple[float, float] | None = None
    for sort_key in (_lo_key(best_axis), _hi_key(best_axis)):
        ordered = sorted(items, key=sort_key)
        for split_at in _split_positions(len(items), min_entries):
            left_items, right_items = ordered[:split_at], ordered[split_at:]
            left = union_all(_item_rect(i) for i in left_items)
            right = union_all(_item_rect(i) for i in right_items)
            overlap = left.intersection(right)
            key = (
                overlap.area() if overlap is not None else 0.0,
                left.area() + right.area(),
            )
            if best_key is None or key < best_key:
                best_key = key
                best_groups = (list(left_items), list(right_items))
    assert best_groups is not None
    return best_groups


def _split_positions(count: int, min_entries: int) -> range:
    return range(min_entries, count - min_entries + 1)


def _lo_key(axis: int):
    return lambda item: (float(_item_rect(item).lo[axis]), float(_item_rect(item).hi[axis]))


def _hi_key(axis: int):
    return lambda item: (float(_item_rect(item).hi[axis]), float(_item_rect(item).lo[axis]))


def _str_order(points: np.ndarray, leaf_capacity: int) -> np.ndarray:
    """Tiling order of point indices for packed bulk loading.

    Recursive binary tiling: split at the median of the widest-spread
    dimension, recurse into both halves (a kd-style variant of
    Sort-Tile-Recursive).  Unlike classic per-dimension slabs, this stays
    effective in high dimensions — with tens of dimensions a slab pass per
    dimension never executes, whereas widest-spread median splits isolate
    the data's actual cluster structure, keeping leaf MBRs tight in every
    dimension that matters.
    """
    n, dim = points.shape

    def recurse(indices: np.ndarray) -> np.ndarray:
        if len(indices) <= leaf_capacity:
            return indices
        spreads = points[indices].max(axis=0) - points[indices].min(axis=0)
        axis = int(np.argmax(spreads))
        ordered = indices[np.argsort(points[indices, axis], kind="stable")]
        # Split on a leaf-capacity boundary so only the last leaf is ragged.
        leaves = math.ceil(len(indices) / leaf_capacity)
        half = (leaves // 2) * leaf_capacity
        if half == 0:
            half = leaf_capacity
        return np.concatenate([recurse(ordered[:half]), recurse(ordered[half:])])

    return recurse(np.arange(n, dtype=np.int64))


def leaf_entry_ids(leaf: _Node) -> List[int]:
    """Data indices stored in a leaf (test/doctest helper)."""
    return [entry.data_index for entry in leaf.items]


def build_spatial_page_index(
    vectors: np.ndarray,
    page_capacity: int,
    method: str = "str",
) -> Tuple[PageIndex, np.ndarray]:
    """Index a point dataset and reorder it for leaf-contiguous disk layout.

    Parameters
    ----------
    vectors:
        ``(n, d)`` point data.
    page_capacity:
        Objects per page = R*-tree leaf capacity.
    method:
        ``"str"`` (packed Sort-Tile-Recursive build; default) or
        ``"rstar"`` (one-by-one R* insertion — slower, exercises the full
        insert path).

    Returns
    -------
    (page_index, reordered_vectors):
        ``reordered_vectors[k] == vectors[page_index.order[k]]``; page ``i``
        covers rows ``page_offsets[i]..page_offsets[i+1]`` of the reordered
        array and its MBR is ``page_index.leaf_boxes[i]``.
    """
    pts = np.asarray(vectors, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
    if page_capacity < 4:
        raise ValueError(f"page_capacity must be at least 4, got {page_capacity}")
    if method == "rstar":
        tree = RStarTree(max_entries=page_capacity)
        for i in range(pts.shape[0]):
            tree.insert_point(pts[i], i)
        page_index = tree.to_page_index()
        return page_index, pts[page_index.order]
    if method != "str":
        raise ValueError(f"unknown index build method {method!r} (use 'str' or 'rstar')")
    order = _str_order(pts, page_capacity)
    reordered = pts[order]
    # _str_order splits only on capacity boundaries: every page is full
    # except the last.
    offsets = np.append(np.arange(0, len(order), page_capacity), len(order))
    leaf_boxes = page_boxes(reordered, offsets[:-1]).to_rects()
    page_index = PageIndex(
        root=build_contiguous_hierarchy(leaf_boxes, page_capacity),
        leaf_boxes=leaf_boxes,
        order=order,
        page_offsets=offsets,
    )
    return page_index, reordered
