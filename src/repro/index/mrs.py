"""MRS-index: frequency-vector MBRs over string windows (Kahveci & Singh, VLDB'01).

Every window of the string maps to its frequency vector (symbol counts);
page MBRs cover the frequency vectors of the windows the page owns.  The
frequency distance lower-bounds the edit distance and itself dominates the
L∞ distance of the frequency vectors, so the prediction-matrix box test
(extend by ε/2, check intersection) never loses a window pair with edit
distance ≤ ε (Theorem 1 chain: box-L∞ ≤ L∞ ≤ FD ≤ ED).

The frequency vectors double as an *object-level* filter inside page
joins: a window pair only pays the edit-distance DP when its frequency
distance passes the threshold.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.distance.frequency import DNA_ALPHABET, frequency_vectors_sliding
from repro.geometry import Rect
from repro.index._grouping import build_contiguous_hierarchy, page_boxes
from repro.index.node import PageIndex
from repro.storage.page import SequencePagedDataset

__all__ = ["MRSIndex"]

_DEFAULT_FANOUT = 16


class MRSIndex:
    """Leaf-per-page frequency-box index over a text sequence dataset."""

    def __init__(
        self,
        dataset: SequencePagedDataset,
        alphabet: str = DNA_ALPHABET,
        fanout: int = _DEFAULT_FANOUT,
    ) -> None:
        if not dataset.is_text:
            raise TypeError("MRSIndex requires a text sequence; use MRIndex for numeric data")
        self.dataset = dataset
        self.alphabet = alphabet
        self._features = frequency_vectors_sliding(
            dataset.sequence, dataset.window_length, alphabet
        )
        starts = np.arange(0, dataset.num_windows, dataset.symbols_per_page)
        self.leaf_boxes = page_boxes(self._features, starts).to_rects()
        self.root = build_contiguous_hierarchy(self.leaf_boxes, fanout)

    def to_page_index(self) -> PageIndex:
        """The hierarchy in the common :class:`PageIndex` form (identity order)."""
        return PageIndex(
            root=self.root,
            leaf_boxes=self.leaf_boxes,
            order=np.arange(self.dataset.num_windows, dtype=np.int64),
            page_offsets=None,
        )

    def page_features(self, page_no: int) -> np.ndarray:
        """Frequency vectors of the windows owned by a page."""
        start, stop = self.dataset.window_range(page_no)
        return self._features[start:stop]

    # -- multi-resolution support -------------------------------------------

    def derived_boxes(self, multiple: int) -> List[Rect]:
        """Page boxes for windows of length ``multiple * base_window``.

        This is the *multi-resolution* property the MRS-index is named
        for: an index built once at base window length ``t`` serves joins
        at any window length ``w = m·t``, because a ``w``-window's
        frequency vector is exactly the sum of the frequency vectors of
        its ``m`` disjoint ``t``-segments:

            f_w(p) = Σ_{k<m} f_t(p + k·t)

        A sound bounding box for ``f_w`` over the windows starting in page
        ``i`` is therefore the Minkowski sum, over ``k``, of the boxes
        covering the ``t``-vectors at offsets ``[start + k·t, stop + k·t)``
        — computed here from the stored per-page boxes of the base
        resolution (union of the pages each shifted range touches).

        Returns one box per page that owns at least one full ``w``-window;
        trailing pages whose windows no longer fit are dropped.
        """
        if multiple < 1:
            raise ValueError(f"multiple must be at least 1, got {multiple}")
        if multiple == 1:
            return list(self.leaf_boxes)
        ds = self.dataset
        t = ds.window_length
        long_window = multiple * t
        num_long = ds.sequence_length - long_window + 1
        if num_long <= 0:
            raise ValueError(
                f"sequence of length {ds.sequence_length} has no windows of "
                f"length {long_window}"
            )
        boxes: List[Rect] = []
        for page_no in range(ds.num_pages):
            start, stop = ds.window_range(page_no)
            stop = min(stop, num_long)
            if start >= num_long:
                break
            total_lo = np.zeros_like(self.leaf_boxes[0].lo)
            total_hi = np.zeros_like(self.leaf_boxes[0].hi)
            for k in range(multiple):
                segment = self._covering_box(start + k * t, stop - 1 + k * t)
                total_lo = total_lo + segment.lo
                total_hi = total_hi + segment.hi
            boxes.append(Rect(total_lo, total_hi))
        return boxes

    def _covering_box(self, first_offset: int, last_offset: int) -> Rect:
        """Union of the base page boxes covering an inclusive offset range."""
        ds = self.dataset
        first_page = ds.page_of_offset(first_offset)
        last_page = ds.page_of_offset(last_offset)
        box = self.leaf_boxes[first_page]
        for page_no in range(first_page + 1, last_page + 1):
            box = box.union(self.leaf_boxes[page_no])
        return box

    @property
    def features(self) -> np.ndarray:
        """All window frequency vectors (used by EGO/BFRJ on sequence data)."""
        return self._features
