"""Every join method against an absolute brute-force oracle.

Each case is small enough to compare every object pair
(``tests/oracles/brute_force.py``).  Every method must return exactly
the oracle's pair set, no pair twice, and every id as a Python ``int``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.join import JOIN_METHODS, IndexedDataset, join
from repro.datasets import markov_dna
from repro.kernels.dtw import lb_keogh_block
from tests.oracles.brute_force import dtw_pairs, edit_pairs, vector_pairs
from tests.oracles.kernels import _dtw_chunk

POINT_ONLY = ("ekdb", "zorder")
SEQUENCE_METHODS = [m for m in JOIN_METHODS if m not in POINT_ONLY]


def _clustered(rng, n, dim=2):
    centers = rng.random((5, dim))
    return centers[rng.integers(0, 5, n)] + rng.normal(scale=0.05, size=(n, dim))


def _vector_case(r_pts, s_pts, epsilon, p, self_join, capacity=16, buffer_pages=10):
    r = IndexedDataset.from_points(r_pts, page_capacity=capacity, p=p)
    s = r if self_join else IndexedDataset.from_points(s_pts, page_capacity=capacity, p=p)
    truth = vector_pairs(r.paged.vectors, s.paged.vectors, epsilon, p, self_join)
    return r, s, epsilon, buffer_pages, truth


def _text_case(text, window, epsilon, per_page, buffer_pages):
    ds = IndexedDataset.from_string(text, window_length=window, windows_per_page=per_page)
    windows = sliding_window_view(np.frombuffer(text.encode("ascii"), np.uint8), window)
    return ds, ds, epsilon, buffer_pages, edit_pairs(windows, windows, epsilon, True)


def _dtw_case(values, other, window, band, epsilon):
    """A DTW cross join, or a self join when ``other`` is ``None``."""
    r = IndexedDataset.from_time_series(values, window_length=window,
                                        windows_per_page=16, dtw_band=band)
    s = r if other is None else IndexedDataset.from_time_series(
        other, window_length=window, windows_per_page=16, dtw_band=band)
    truth = dtw_pairs(sliding_window_view(values, window),
                      sliding_window_view(values if other is None else other, window),
                      epsilon, band, other is None)
    return r, s, epsilon, 10, truth


def _boundary_window(values, other, window):
    """The first window ``k`` whose band-0 LB_Keogh against window ``k``
    of ``other`` is computed above their computed DTW, and that DTW.
    The DP keeps the pair at ε = that DTW."""
    left = sliding_window_view(values, window)
    right = sliding_window_view(other, window)
    for k in range(left.shape[0]):
        pair = left[k : k + 1], right[k : k + 1]
        (dtw,), _ = _dtw_chunk(*pair, 0, None)
        (kept,), _ = _dtw_chunk(*pair, 0, dtw)
        if lb_keogh_block(pair[0], pair[1], pair[1])[0, 0] > dtw and kept <= dtw:
            return k, float(dtw)
    raise AssertionError("calibration: no window on LB_Keogh's rounding edge")


@lru_cache(maxsize=None)
def case(name):
    """``(r, s, epsilon, buffer_pages, oracle pairs)`` of one input."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "l2-cross":
        return _vector_case(_clustered(rng, 220), _clustered(rng, 160), 0.04, 2.0, False)
    if name == "l2-self":
        return _vector_case(_clustered(rng, 200), None, 0.04, 2.0, True)
    if name == "l1-cross":
        return _vector_case(_clustered(rng, 220), _clustered(rng, 160), 0.05, 1.0, False)
    if name == "linf-cross":
        return _vector_case(_clustered(rng, 220), _clustered(rng, 160), 0.03, np.inf, False)
    if name == "l2-eps0-duplicates":
        grid = np.round(rng.random((150, 2)) * 8) / 8  # many exact duplicates
        return _vector_case(grid, np.concatenate([grid[::3], rng.random((40, 2))]),
                            0.0, 2.0, False)
    if name == "l2-single-page":
        return _vector_case(_clustered(rng, 12), _clustered(rng, 150), 0.06, 2.0, False)
    if name == "l2-huge-cross":
        # Coordinates near 1e155: squared norms overflow, so the Gram form
        # decides nothing and every marked pair takes the difference form.
        pts = rng.random((300, 3))
        noisy = pts * (1.0 + rng.normal(scale=0.01, size=pts.shape))
        with np.errstate(over="ignore"):  # far pairs' squares are inf
            return _vector_case(pts * 1e155, noisy * 1e155, 0.05e155, 2.0, False)
    if name == "l2-tiny-cross":
        # Coordinates near 1e-160: squared norms are subnormal, so the
        # Gram form decides nothing and every marked pair takes the
        # difference form.  At ε = 0 a pair joins where every squared
        # difference underflows to 0.
        pts = rng.random((300, 3)) * 1e-160
        moved = pts + rng.normal(scale=1e-163, size=pts.shape)
        return _vector_case(pts, moved, 0.0, 2.0, False, buffer_pages=8)
    if name in ("dtw-cross", "dtw-band0-cross", "dtw-wide-band-cross"):
        # Band 0: no warping, the envelope is the window itself, and the
        # centre–radius bound is the Euclidean distance.  A band past the
        # window length spans the whole window.
        band = {"dtw-cross": 2, "dtw-band0-cross": 0, "dtw-wide-band-cross": 13}[name]
        walk = np.cumsum(rng.normal(size=260))
        other = walk[40:230] + rng.normal(scale=0.05, size=190)
        return _dtw_case(walk, other, 10, band, 0.8)
    if name == "dtw-band0-boundary-cross":
        # ε is the computed DTW of a window pair whose computed LB_Keogh
        # is one ulp above it: LB_Keogh sums its squares pairwise, the DP
        # one after another.  The pair is within ε and must be found.
        walk = np.cumsum(rng.normal(size=200))
        other = walk + rng.normal(scale=0.05, size=200)
        return _dtw_case(walk, other, 16, 0, _boundary_window(walk, other, 16)[1])
    if name == "dtw-constant-self-eps0":
        # Every window identical: zero envelope radius at ε = 0.
        return _dtw_case(np.full(150, 3.25), None, 8, 2, 0.0)
    if name == "text-self-eps0":
        return _text_case(markov_dna(700, seed=2, repeat_share=0.1), 12, 0, 32, 10)
    if name == "text-self-eps1":
        return _text_case(markov_dna(700, seed=2, repeat_share=0.1), 12, 1, 32, 10)
    if name == "text-self-eps1.5":
        # Non-integer ε: the frequency filter keeps L1 ≤ ⌊2ε⌋ = 3.
        return _text_case(markov_dna(700, seed=2, repeat_share=0.1), 12, 1.5, 32, 10)
    if name == "text-self-eps2":
        return _text_case(markov_dna(700, seed=2, repeat_share=0.1), 12, 2, 32, 10)
    if name == "text-one-symbol-self":
        return _text_case("G" * 300, 10, 1, 32, 10)
    if name == "text-ego-window":
        # EGO's scan order is not sorted by page lo[0] here; the window
        # once ended before the page holding pair (639, 640).
        return _text_case(markov_dna(2000, seed=0, repeat_share=0.1), 64, 2, 64, 16)
    raise KeyError(name)


VECTOR_CASES = ["l2-cross", "l2-self", "l1-cross", "linf-cross",
                "l2-eps0-duplicates", "l2-single-page", "l2-huge-cross",
                "l2-tiny-cross"]
SEQUENCE_CASES = ["dtw-cross", "dtw-band0-cross", "dtw-wide-band-cross",
                  "dtw-band0-boundary-cross", "dtw-constant-self-eps0", "text-self-eps0", "text-self-eps1",
                  "text-self-eps1.5", "text-self-eps2", "text-one-symbol-self",
                  "text-ego-window"]
CASES = [(c, m) for c in VECTOR_CASES for m in JOIN_METHODS] + [
    (c, m) for c in SEQUENCE_CASES for m in SEQUENCE_METHODS
]


@pytest.mark.parametrize("name, method", CASES)
def test_matches_brute_force(name, method):
    r, s, epsilon, buffer_pages, truth = case(name)
    assert truth, "calibration: the oracle should find pairs"
    pairs = join(r, s, epsilon, method=method, buffer_pages=buffer_pages).pairs
    assert all(type(a) is int and type(b) is int for a, b in pairs)
    assert len(set(pairs)) == len(pairs), "a pair was reported twice"
    assert set(pairs) == truth


def test_single_page_case_has_one_page():
    r, _s, *_ = case("l2-single-page")
    assert r.num_pages == 1


def test_ego_case_holds_the_once_missed_pair():
    assert (639, 640) in case("text-ego-window")[4]


def test_dtw_boundary_case_holds_a_pair_past_lb_keogh():
    """The boundary case's ε is below the computed LB_Keogh of a pair the
    oracle keeps, so comparing LB_Keogh with ε itself would drop it."""
    r, s, epsilon, _buffer, truth = case("dtw-band0-boundary-cross")
    k, dtw = _boundary_window(r.paged.sequence, s.paged.sequence, 16)
    assert dtw == epsilon
    assert (k, k) in truth
