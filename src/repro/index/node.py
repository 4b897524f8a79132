"""The page index every index structure produces: packed level arrays.

The prediction-matrix construction (Figure 1 of the paper) descends two
MBR hierarchies in lock-step; BFRJ walks them level by level.  Both need
only each node's box, its children and, at leaf level, the data page the
node describes.  Every index here packs consecutive pages ``fanout`` at a
time (:func:`~repro.index._grouping.build_contiguous_hierarchy`), so the
hierarchy is fully described by one :class:`~repro.geometry.BoxArray` per
level: a node is a row ``k`` of level ``L``, its children are a
contiguous row range of level ``L − 1``, and a leaf's row is its page
number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.geometry import BoxArray
from repro.index._grouping import build_contiguous_hierarchy

__all__ = ["PageIndex"]


@dataclass
class PageIndex:
    """An index structure ready for prediction-matrix construction.

    Attributes
    ----------
    levels:
        ``levels[0]`` holds one MBR per data page; row ``k`` of level
        ``L > 0`` is the exact union of its children, rows
        ``k·fanout … (k+1)·fanout − 1`` of level ``L − 1``.  The last level
        holds the single root box (a one-page index is its own root).
    fanout:
        Children per internal node (the last node of a level may hold
        fewer).
    order:
        Permutation of the original object indices the index imposed on the
        data file (identity for sequence indexes, which cannot reorder).
    page_offsets:
        Object-row boundaries of the pages in the reordered file, or
        ``None`` for sequence data (pages are symbol blocks there).
    """

    levels: List[BoxArray]
    fanout: int
    order: np.ndarray
    page_offsets: Optional[np.ndarray] = None

    @classmethod
    def pack(
        cls,
        leaf_boxes: BoxArray,
        fanout: int,
        order: np.ndarray,
        page_offsets: Optional[np.ndarray] = None,
    ) -> "PageIndex":
        """The index whose upper levels pack ``leaf_boxes`` ``fanout`` at a time."""
        return cls(
            build_contiguous_hierarchy(leaf_boxes, fanout), fanout, order, page_offsets
        )

    @property
    def num_pages(self) -> int:
        return len(self.levels[0])

    @property
    def height(self) -> int:
        """Edges from the root to a leaf (a one-page index has height 0)."""
        return len(self.levels) - 1

    @property
    def num_index_nodes(self) -> int:
        return sum(len(level) for level in self.levels)

    def leaf_bounds(self) -> BoxArray:
        """All page MBRs as one ``(num_pages, d)`` :class:`BoxArray`."""
        return self.levels[0]

    def children(self, level: int, row):
        """Row range ``[start, stop)`` of level ``level − 1`` under node ``row``.

        ``row`` may be one row or an array of rows of ``level``.
        """
        start = row * self.fanout
        return start, np.minimum(start + self.fanout, len(self.levels[level - 1]))

    def first_node_id(self, level: int) -> int:
        """Breadth-first id of row 0 of ``level``: the rows of all higher levels.

        BFS from the root visits each level's rows in order, so row ``k``
        of ``level`` has id ``first_node_id(level) + k``.  BFRJ charges
        index-page reads by these ids, which keeps its index accesses
        mostly sequential — matching how an R-tree file is laid out.
        """
        return sum(len(upper) for upper in self.levels[level + 1 :])

    def validate(self) -> None:
        """Check the packing invariants; raises ``AssertionError`` on breakage.

        Each level has ``ceil(n / fanout)`` rows over a level of ``n``,
        the last has one, and every child box lies inside its parent box.
        """
        assert len(self.levels[-1]) == 1, "the last level must hold one root box"
        for level in range(1, len(self.levels)):
            below, upper = self.levels[level - 1], self.levels[level]
            assert len(upper) == -(-len(below) // self.fanout), (
                f"level {level} holds {len(upper)} rows over {len(below)} children"
            )
            parent = np.arange(len(below)) // self.fanout
            assert np.all(upper.lo[parent] <= below.lo), f"a child escapes level {level}"
            assert np.all(below.hi <= upper.hi[parent]), f"a child escapes level {level}"
