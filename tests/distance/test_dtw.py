"""Unit tests for banded DTW and its envelope lower bounds."""

import numpy as np
import pytest

from repro.distance.dtw import DTWDistance, dtw_distance, envelope
from repro.geometry import Rect
from repro.index.mr import MRIndex
from tests.oracles.kernels import dtw_pairs_within


def brute_dtw(a, b, band):
    """Reference banded DTW via the full quadratic DP."""
    n, m = len(a), len(b)
    big = float("inf")
    dp = [[big] * (m + 1) for _ in range(n + 1)]
    dp[0][0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if abs(i - j) > band:
                continue
            cost = (a[i - 1] - b[j - 1]) ** 2
            dp[i][j] = cost + min(dp[i - 1][j], dp[i][j - 1], dp[i - 1][j - 1])
    return np.sqrt(dp[n][m])


class TestDtwDistance:
    def test_identical_is_zero(self):
        x = np.array([1.0, 2.0, 3.0])
        assert dtw_distance(x, x, band=1) == 0.0

    def test_band_zero_is_euclidean(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        assert dtw_distance(a, b, band=0) == pytest.approx(np.linalg.norm(a - b))

    def test_warping_beats_euclidean(self):
        a = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0, 0.0, 0.0])  # same spike, shifted by one
        assert dtw_distance(a, b, band=1) < np.linalg.norm(a - b)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            for band in (0, 1, 3):
                assert dtw_distance(a, b, band) == pytest.approx(
                    brute_dtw(a, b, band)
                )

    def test_early_abandon_semantics(self, rng):
        for _ in range(30):
            a = rng.normal(size=10)
            b = rng.normal(size=10)
            true = brute_dtw(a, b, 2)
            for limit in (0.5, 2.0, 5.0):
                banded = dtw_distance(a, b, 2, max_dist=limit)
                assert (banded <= limit) == (true <= limit)

    def test_length_gap_beyond_band(self):
        assert dtw_distance([1.0], [1.0, 1.0, 1.0], band=1, max_dist=5) == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dtw_distance([1.0], [1.0], band=-1)
        with pytest.raises(ValueError):
            dtw_distance([], [1.0], band=1)


class TestEnvelope:
    def test_band_zero_identity(self, rng):
        values = rng.normal(size=10)
        lower, upper = envelope(values, 0)
        assert np.array_equal(lower, values)
        assert np.array_equal(upper, values)

    def test_running_extremes(self):
        values = np.array([0.0, 5.0, 1.0, 3.0])
        lower, upper = envelope(values, 1)
        assert np.array_equal(lower, [0, 0, 1, 1])
        assert np.array_equal(upper, [5, 5, 5, 3])

    def test_contains_original(self, rng):
        values = rng.normal(size=20)
        for band in (1, 3, 10):
            lower, upper = envelope(values, band)
            assert np.all(lower <= values)
            assert np.all(values <= upper)

    def test_monotone_in_band(self, rng):
        values = rng.normal(size=20)
        l1, u1 = envelope(values, 1)
        l3, u3 = envelope(values, 3)
        assert np.all(l3 <= l1)
        assert np.all(u3 >= u1)


class TestEnvelopeBoxSoundness:
    def test_envelope_box_widens(self, rng):
        lo = rng.normal(size=8)
        box = Rect(lo, lo + 1.0)
        widened = MRIndex.window_boxes(np.stack([lo, lo + 1.0]), 2, dtw_band=2).rect(0)
        assert np.all(widened.lo <= box.lo) and np.all(box.hi <= widened.hi)

    def test_box_test_lower_bounds_dtw(self, rng):
        """Windows within DTW eps must have widened boxes within L∞ eps."""
        band = 2
        for _ in range(40):
            group_a = rng.normal(size=(4, 10))
            group_b = rng.normal(size=(4, 10))
            box_a = MRIndex.window_boxes(group_a, 4, dtw_band=band).rect(0)
            box_b = MRIndex.window_boxes(group_b, 4, dtw_band=band).rect(0)
            box_gap = box_a.min_dist(box_b, p=float("inf"))
            true_min = min(
                dtw_distance(a, b, band) for a in group_a for b in group_b
            )
            assert box_gap <= true_min + 1e-9


class TestDTWJoinDistance:
    """The frozen page-pair DTW join (two-way LB_Keogh, then the batched
    DP), the join oracle's DTW path, against brute force."""

    def test_pairs_within_matches_brute(self, rng):
        left = rng.normal(size=(10, 8))
        right = rng.normal(size=(8, 8))
        eps = 1.5
        expected = {
            (i, j)
            for i in range(10)
            for j in range(8)
            if brute_dtw(left[i], right[j], 2) <= eps
        }
        assert set(dtw_pairs_within(2, left, right, eps)) == expected

    def test_keogh_filter_never_loses(self, rng):
        """The envelope pre-filter must be a true lower bound."""
        left = rng.normal(size=(6, 12))
        right = rng.normal(size=(6, 12))
        for eps in (0.5, 2.0, 4.0):
            got = set(dtw_pairs_within(3, left, right, eps))
            expected = {
                (i, j)
                for i in range(6)
                for j in range(6)
                if brute_dtw(left[i], right[j], 3) <= eps
            }
            assert got == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            DTWDistance(band=-1)


class TestDTWThroughJoinAPI:
    def test_end_to_end_dtw_join(self, rng):
        from repro.core.join import IndexedDataset, join

        seq = rng.normal(size=400).cumsum()
        ds = IndexedDataset.from_time_series(
            seq, window_length=12, windows_per_page=16, dtw_band=2
        )
        result = join(ds, ds, 0.5, method="sc", buffer_pages=10)
        # Verify against brute force over all window pairs.
        windows = np.lib.stride_tricks.sliding_window_view(seq, 12)
        expected = {
            (p, q)
            for p in range(windows.shape[0])
            for q in range(p + 1, windows.shape[0])
            if brute_dtw(windows[p], windows[q], 2) <= 0.5
        }
        assert set(result.pairs) == expected

    def test_dtw_methods_agree(self, rng):
        from repro.core.join import IndexedDataset, join

        seq = rng.normal(size=300).cumsum()
        ds = IndexedDataset.from_time_series(
            seq, window_length=10, windows_per_page=16, dtw_band=1
        )
        reference = None
        for method in ("nlj", "pm-nlj", "sc", "ego", "bfrj"):
            result = join(ds, ds, 0.4, method=method, buffer_pages=10)
            if reference is None:
                reference = sorted(result.pairs)
            assert sorted(result.pairs) == reference, method
