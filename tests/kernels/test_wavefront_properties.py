"""Wavefront kernels vs the frozen row-kernel oracle — bitwise, always.

The anti-diagonal sweep reorders *when* cells are computed, never which
float64/int32 operations produce them, so ``dtw_chunk_wavefront`` /
``edit_chunk_wavefront`` must reproduce ``_dtw_chunk`` / ``_edit_chunk``
exactly: every distance bit-for-bit, every early-abandon sentinel, and
the abandoned *count* (the recorder feeds on it).  The strategies below
deliberately hammer the wavefront's sharp edges: band 1, bands clipped
at the matrix corners (band >= w), even and odd window lengths, and
thresholds that kill entire chunks on the first row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.edit import encode_strings
from repro.kernels.wavefront import dtw_chunk_wavefront, edit_chunk_wavefront
from tests.oracles.kernels import _dtw_chunk, _edit_chunk

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def dtw_cases(draw):
    k = draw(st.integers(min_value=1, max_value=10))
    w = draw(st.integers(min_value=1, max_value=14))
    flat = draw(st.lists(finite, min_size=2 * k * w, max_size=2 * k * w))
    block = np.asarray(flat).reshape(2, k, w)
    # Band spans the interesting regimes: 0 (diagonal only), 1, mid,
    # and >= w (fully clipped at both corners).
    band = draw(st.sampled_from([0, 1, max(1, w // 2), w, w + 3]))
    max_dist = draw(
        st.one_of(
            st.none(),
            st.just(0.0),
            st.floats(min_value=0, max_value=40, allow_nan=False),
            st.just(float("inf")),
        )
    )
    return block[0], block[1], band, max_dist


@st.composite
def edit_cases(draw):
    k = draw(st.integers(min_value=1, max_value=10))
    w = draw(st.integers(min_value=1, max_value=16))
    mats = draw(
        st.lists(
            st.lists(st.sampled_from("ACGT"), min_size=w, max_size=w),
            min_size=2 * k,
            max_size=2 * k,
        )
    )
    strings = ["".join(row) for row in mats]
    limit = draw(st.sampled_from([0, 1, 2, draw(st.integers(0, w)), 3 * w]))
    return encode_strings(strings[:k]), encode_strings(strings[k:]), limit


def _assert_dtw_identical(a, b, band, max_dist):
    expected_out, expected_abandoned = _dtw_chunk(a, b, band, max_dist)
    got_out, got_abandoned = dtw_chunk_wavefront(a, b, band, max_dist)
    assert np.array_equal(got_out, expected_out)
    assert got_abandoned == expected_abandoned


def _assert_edit_identical(a, b, limit):
    expected_out, expected_abandoned = _edit_chunk(a, b, limit)
    got_out, got_abandoned = edit_chunk_wavefront(a, b, limit)
    assert np.array_equal(got_out, expected_out)
    assert got_abandoned == expected_abandoned


class TestDtwWavefront:
    @given(dtw_cases())
    @settings(max_examples=200, deadline=None)
    def test_fuzz_bitwise(self, case):
        a, b, band, max_dist = case
        _assert_dtw_identical(a, b, band, max_dist)

    @pytest.mark.parametrize("w", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("band", [1])
    def test_band_one_even_and_odd_widths(self, w, band):
        rng = np.random.default_rng(w)
        a = rng.normal(size=(7, w))
        b = rng.normal(size=(7, w))
        for max_dist in (None, 1.0):
            _assert_dtw_identical(a, b, band, max_dist)

    @pytest.mark.parametrize("band", [4, 5, 6, 20])
    def test_band_clips_both_corners(self, band):
        # band >= w - 1: _diag_range's corner clipping is exercised on
        # every diagonal.
        rng = np.random.default_rng(band)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        _assert_dtw_identical(a, b, band, 2.0)

    def test_whole_chunk_abandons_first_rows(self):
        # Distances are all >> max_dist, so every pair dies early; the
        # wavefront must report the same abandon count and sentinels.
        rng = np.random.default_rng(0)
        a = rng.normal(size=(16, 12))
        b = a + 100.0
        _assert_dtw_identical(a, b, 3, 0.5)
        _assert_dtw_identical(a, b, 3, 0.0)

    def test_staggered_abandonment(self):
        # Pairs die on different rows -> exercises lazy retirement and
        # the >=30% compaction threshold mid-sweep.
        rng = np.random.default_rng(1)
        w, k = 20, 24
        a = rng.normal(size=(k, w))
        b = a.copy()
        for idx in range(k):
            # Pair idx diverges from column idx%w onward.
            b[idx, idx % w:] += 50.0
        _assert_dtw_identical(a, b, 2, 5.0)

    def test_threshold_exactly_at_distance(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 0.0, 0.0]])
        true = _dtw_chunk(a, b, 1, None)[0][0]
        _assert_dtw_identical(a, b, 1, float(true))
        _assert_dtw_identical(a, b, 1, float(np.nextafter(true, 0.0)))


class TestEditWavefront:
    @given(edit_cases())
    @settings(max_examples=200, deadline=None)
    def test_fuzz_bitwise(self, case):
        a, b, limit = case
        _assert_edit_identical(a, b, limit)

    @pytest.mark.parametrize("w", [1, 2, 3, 8, 9])
    def test_tight_limits_even_and_odd_widths(self, w):
        rng = np.random.default_rng(w)
        a = rng.integers(0, 4, size=(9, w)).astype(np.uint8)
        b = rng.integers(0, 4, size=(9, w)).astype(np.uint8)
        for limit in (0, 1, w):
            _assert_edit_identical(a, b, limit)

    def test_whole_chunk_abandons(self):
        a = np.zeros((8, 10), dtype=np.uint8)
        b = np.full((8, 10), 3, dtype=np.uint8)
        _assert_edit_identical(a, b, 0)
        _assert_edit_identical(a, b, 1)

    def test_zero_width_windows(self):
        a = np.empty((4, 0), dtype=np.uint8)
        b = np.empty((4, 0), dtype=np.uint8)
        _assert_edit_identical(a, b, 2)

    def test_staggered_abandonment(self):
        rng = np.random.default_rng(2)
        w, k = 18, 24
        a = rng.integers(0, 4, size=(k, w)).astype(np.uint8)
        b = a.copy()
        for idx in range(k):
            b[idx, idx % w:] = (b[idx, idx % w:] + 1) % 4
        _assert_edit_identical(a, b, 3)
