"""The panel kernels the joiners' mega-batch cascades call.

A cluster's cascade runs its filters over *panels* — one left page's
objects against the gathered objects of the page's marked col pages
(see :class:`repro.core.joiners._ClusterBlock`).  :class:`KernelBackend`
gives the three panel kernels one entry point each, which the joiners
call through :data:`KERNELS` and the end-to-end benchmark's per-layer
trace wraps by name:

``batch_envelopes``
    Keogh envelopes of a block of DTW windows.
``lb_keogh_panel``
    LB_Keogh of a left block against a gathered envelope panel.
``euclidean_gram_panel``
    The Gram-matrix ε-filter of a left block against a right panel.

The refinement DPs behind ``dtw_batch`` / ``edit_batch`` are the
anti-diagonal kernels of :mod:`repro.kernels.wavefront`; their
bit-identity oracle (the row-by-row DPs) lives with the tests.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels import dtw as _dtw_mod
from repro.kernels import minkowski as _minkowski_mod

__all__ = ["KernelBackend", "KERNELS"]


class KernelBackend:
    """The panel filters of the mega-batch cascades."""

    def batch_envelopes(
        self, windows: np.ndarray, band: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        return _dtw_mod.batch_envelopes(windows, band)

    def lb_keogh_panel(
        self, left_rows: np.ndarray, lowers: np.ndarray, uppers: np.ndarray
    ) -> np.ndarray:
        return _dtw_mod.lb_keogh_panel(left_rows, lowers, uppers)

    def euclidean_gram_panel(
        self,
        left_rows: np.ndarray,
        right_panel: np.ndarray,
        left_sq: np.ndarray,
        right_sq: np.ndarray,
        epsilon: float,
    ) -> np.ndarray:
        return _minkowski_mod.euclidean_gram_panel(
            left_rows, right_panel, left_sq, right_sq, epsilon
        )


KERNELS = KernelBackend()
