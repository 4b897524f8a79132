"""O(n²) ground truth for similarity joins, computed without the join engine.

Each function compares every object of the left side with every object
of the right side (every unordered pair once for a self join) and
returns the set of ``(left_id, right_id)`` pairs within ``epsilon`` — the
answer every join method must return.  Vector ids index the dataset's
stored (R*-tree reordered) vectors; window ids are start offsets.  The
DTW and edit distances come from the row-by-row DPs in
``tests/oracles/kernels.py``, run over all pairs in chunks.
"""

from __future__ import annotations

from typing import Set, Tuple

import numpy as np

from tests.oracles.kernels import _dtw_chunk, _edit_chunk

Pairs = Set[Tuple[int, int]]

_CHUNK = 1 << 16


def _candidates(n_left: int, n_right: int, self_join: bool):
    if self_join:
        return np.triu_indices(n_left, k=1)
    left, right = np.meshgrid(
        np.arange(n_left), np.arange(n_right), indexing="ij"
    )
    return left.ravel(), right.ravel()


def vector_pairs(
    left: np.ndarray, right: np.ndarray, epsilon: float, p: float, self_join: bool
) -> Pairs:
    """Pairs within ``epsilon`` under the L_p norm."""
    diff = np.abs(left[:, None, :] - right[None, :, :])
    if np.isinf(p):
        dist = diff.max(axis=2)
    else:
        dist = (diff**p).sum(axis=2) ** (1.0 / p)
    within = dist <= epsilon
    if self_join:
        within = np.triu(within, k=1)
    a, b = np.nonzero(within)
    return set(zip(a.tolist(), b.tolist()))


def _dp_pairs(kernel, left, right, epsilon, self_join, *args) -> Pairs:
    a, b = _candidates(left.shape[0], right.shape[0], self_join)
    out: Pairs = set()
    for lo in range(0, a.size, _CHUNK):
        ca, cb = a[lo : lo + _CHUNK], b[lo : lo + _CHUNK]
        dist, _ = kernel(left[ca], right[cb], *args)
        keep = dist <= epsilon
        out.update(zip(ca[keep].tolist(), cb[keep].tolist()))
    return out


def dtw_pairs(
    left: np.ndarray, right: np.ndarray, epsilon: float, band: int, self_join: bool
) -> Pairs:
    """Window pairs within ``epsilon`` under banded DTW."""
    return _dp_pairs(_dtw_chunk, left, right, epsilon, self_join, band, epsilon)


def edit_pairs(
    left: np.ndarray, right: np.ndarray, epsilon: int, self_join: bool
) -> Pairs:
    """Equal-length byte-window pairs within edit distance ``epsilon``."""
    return _dp_pairs(_edit_chunk, left, right, epsilon, self_join, int(epsilon))
