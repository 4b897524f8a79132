"""MR-index: MBRs over sliding time-series windows (Kahveci & Singh, ICDE'01).

For a numeric sequence paged into symbol blocks, the MR-index covers the
windows owned by each page with one MBR in feature space.  Two feature
spaces are supported:

* ``"raw"`` (default) — the window itself as a point in R^w.  Box minimum
  distance then lower-bounds *any* L_p window distance, matching Table 1's
  "any vector norm / same" row.
* ``"paa"`` — piecewise aggregate approximation scaled by ``sqrt(w / f)``,
  which lower-bounds the **Euclidean** window distance in only ``f``
  dimensions.  Use it when ``w`` is large; it is the dimensionality
  reduction the original MR-index applies.

The original index keeps rows at several resolutions (window lengths); a
subsequence join fixes one window length, so a single resolution row
suffices here and the hierarchy above it is contiguous page grouping.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import BoxArray
from repro.index._grouping import page_boxes
from repro.index.node import PageIndex
from repro.kernels.dtw import batch_envelopes
from repro.storage.page import SequencePagedDataset

__all__ = ["MRIndex"]

_DEFAULT_FANOUT = 16


class MRIndex:
    """Leaf-per-page MBR index over a numeric sequence dataset."""

    def __init__(
        self,
        dataset: SequencePagedDataset,
        feature: str = "raw",
        paa_segments: int = 8,
        fanout: int = _DEFAULT_FANOUT,
        dtw_band: int | None = None,
    ) -> None:
        if dataset.is_text:
            raise TypeError("MRIndex requires a numeric sequence; use MRSIndex for strings")
        if feature not in ("raw", "paa"):
            raise ValueError(f"feature must be 'raw' or 'paa', got {feature!r}")
        if feature == "paa" and not 1 <= paa_segments <= dataset.window_length:
            raise ValueError(
                f"paa_segments must be in [1, window_length={dataset.window_length}], "
                f"got {paa_segments}"
            )
        if dtw_band is not None:
            if feature != "raw":
                raise ValueError("DTW envelope boxes require feature='raw'")
            if dtw_band < 0:
                raise ValueError(f"dtw_band must be non-negative, got {dtw_band}")
        self.dataset = dataset
        self.feature = feature
        self.paa_segments = paa_segments
        self.dtw_band = dtw_band
        self._features = self._compute_features()
        self._page_index = PageIndex.pack(
            self.window_boxes(self._features, dataset.symbols_per_page, dtw_band),
            fanout,
            np.arange(dataset.num_windows, dtype=np.int64),
        )

    @staticmethod
    def window_boxes(
        features: np.ndarray, windows_per_page: int, dtw_band: int | None = None
    ) -> BoxArray:
        """Leaf boxes of consecutive pages of ``windows_per_page`` windows.

        ``features`` holds one row per window, starting at a page
        boundary.  With ``dtw_band`` set, each box is widened by the
        Sakoe-Chiba band envelope — the band's running minimum of its
        lower corner and maximum of its upper corner, one
        :func:`~repro.kernels.dtw.batch_envelopes` call each for all
        boxes — so the sweep's L∞ box test lower-bounds banded DTW (see
        :func:`repro.distance.dtw.envelope_box` for the soundness
        argument).  Appends box a series' changed tail here too.
        """
        starts = np.arange(0, len(features), windows_per_page)
        boxes = page_boxes(features, starts)
        if dtw_band is None:
            return boxes
        lowers, _ = batch_envelopes(boxes.lo, dtw_band)
        _, uppers = batch_envelopes(boxes.hi, dtw_band)
        return BoxArray(lowers, uppers, validate=False)

    # -- feature computation -------------------------------------------------

    def _compute_features(self) -> np.ndarray:
        """Feature vector of every window, ``(num_windows, feature_dim)``."""
        seq = np.asarray(self.dataset.sequence, dtype=np.float64)
        w = self.dataset.window_length
        windows = np.lib.stride_tricks.sliding_window_view(seq, w)
        if self.feature == "raw":
            return windows
        f = self.paa_segments
        # Mean of each of f (near-)equal segments, scaled so that the L2
        # distance of features lower-bounds the L2 distance of windows.
        boundaries = np.linspace(0, w, f + 1).round().astype(int)
        segments = [
            windows[:, boundaries[k] : boundaries[k + 1]].mean(axis=1)
            for k in range(f)
        ]
        scale = math.sqrt(w / f)
        return np.stack(segments, axis=1) * scale

    # -- the PageIndex interface ------------------------------------------------

    def to_page_index(self) -> PageIndex:
        """The hierarchy in the common :class:`PageIndex` form.

        ``order`` is the identity: sequence data is never reordered on disk
        (Section 3 — reordering destroys overlapping windows).
        """
        return self._page_index

    def window_feature(self, offset: int) -> np.ndarray:
        """Feature vector of the window starting at ``offset``."""
        return self._features[offset]

    @property
    def features(self) -> np.ndarray:
        """All window features (used by baselines that need point data)."""
        return self._features
