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

import numpy as np

from repro.distance.frequency import DNA_ALPHABET, frequency_vectors_sliding
from repro.geometry import BoxArray
from repro.index._grouping import page_boxes
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
        self._page_index = PageIndex.pack(
            page_boxes(self._features, starts),
            fanout,
            np.arange(dataset.num_windows, dtype=np.int64),
        )

    def to_page_index(self) -> PageIndex:
        """The hierarchy in the common :class:`PageIndex` form (identity order)."""
        return self._page_index

    def page_features(self, page_no: int) -> np.ndarray:
        """Frequency vectors of the windows owned by a page."""
        start, stop = self.dataset.window_range(page_no)
        return self._features[start:stop]

    # -- multi-resolution support -------------------------------------------

    def derived_boxes(self, multiple: int) -> BoxArray:
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
        leaf = self._page_index.leaf_bounds()
        if multiple == 1:
            return leaf
        ds = self.dataset
        t = ds.window_length
        long_window = multiple * t
        num_long = ds.sequence_length - long_window + 1
        if num_long <= 0:
            raise ValueError(
                f"sequence of length {ds.sequence_length} has no windows of "
                f"length {long_window}"
            )
        lo_rows, hi_rows = [], []
        for page_no in range(ds.num_pages):
            start, stop = ds.window_range(page_no)
            stop = min(stop, num_long)
            if start >= num_long:
                break
            total_lo = np.zeros(leaf.dim)
            total_hi = np.zeros(leaf.dim)
            for k in range(multiple):
                # Union of the base page boxes covering the shifted range.
                first = ds.page_of_offset(start + k * t)
                last = ds.page_of_offset(stop - 1 + k * t) + 1
                total_lo = total_lo + leaf.lo[first:last].min(axis=0)
                total_hi = total_hi + leaf.hi[first:last].max(axis=0)
            lo_rows.append(total_lo)
            hi_rows.append(total_hi)
        return BoxArray(np.stack(lo_rows), np.stack(hi_rows), validate=False)

    @property
    def features(self) -> np.ndarray:
        """All window frequency vectors (used by EGO/BFRJ on sequence data)."""
        return self._features
