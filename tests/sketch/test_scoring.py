"""Quantile cell scoring against exact per-row counts and the frozen oracle.

``_rowwise_cdf`` counts each target's row points strictly below it;
that count must equal a per-row ``np.searchsorted``, including for
targets a hair away from a quantile point.  Away from such near ties
``score_cells`` must reproduce the shifted-search scoring of
``tests/oracles/sketch.py`` bit for bit: on duplicate points and
all-equal rows, at ``Q`` = 1, 2 and 11, for targets exactly at quantile
points, below a row's minimum and above its maximum, and on the
figure-config Landsat sketches.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.figures import LANDSAT_EPSILON, landsat_pair
from repro.sketch.cascade import _rowwise_cdf, effective_epsilon, score_cells
from repro.sketch.config import PrefilterConfig
from repro.sketch.signatures import PageSketches, build_sketches
from tests.oracles.sketch import rowwise_cdf, score_quantile_cells

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def exact_cdf(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The interpolated CDF from one ``np.searchsorted`` per row."""
    num_q = q.shape[1]
    idx = np.stack([np.searchsorted(qr, tr) for qr, tr in zip(q, t)])
    out = (idx == num_q).astype(np.float64)
    rows, cols = np.nonzero((idx > 0) & (idx < num_q))
    i = idx[rows, cols]
    left = q[rows, i - 1]
    right = q[rows, i]
    out[rows, cols] = ((i - 1) + (t[rows, cols] - left) / (right - left)) / (
        num_q - 1
    )
    return out


def random_signatures(rng, pages, k, num_q, levels=None):
    """Sorted ``(pages, k, num_q)`` quantile rows.

    With ``levels``, values come from that many integers, so rows hold
    duplicate points, some rows are constant, and a target ``x ± ε``
    for integer ``ε`` lands exactly on other rows' points.
    """
    if levels is None:
        values = rng.normal(scale=3.0, size=(pages, k, num_q))
    else:
        values = rng.integers(0, levels, size=(pages, k, num_q)).astype(np.float64)
        values[rng.random(pages) < 0.2] = float(rng.integers(0, levels))
    return np.sort(values, axis=2)


class TestNearTies:
    def test_counts_targets_a_hair_from_a_point(self):
        # The shifted search adds row · width to both sides, which rounds
        # away a 1e-12 gap on all but the first rows and miscounts the
        # target against that point.
        rng = np.random.default_rng(5)
        m, num_q = 50_000, 11
        q = np.sort(rng.uniform(0.0, 10.0, (m, num_q)), axis=1)
        rows = np.arange(m)
        t = np.stack(
            [
                q[rows, rng.integers(0, num_q, m)] + 1e-12,
                q[rows, rng.integers(0, num_q, m)] - 1e-12,
            ],
            axis=1,
        )
        np.testing.assert_array_equal(_rowwise_cdf(q, t), exact_cdf(q, t))


class TestRowwiseCdf:
    @pytest.mark.parametrize("num_q", [2, 3, 11])
    @pytest.mark.parametrize("levels", [None, 4])
    def test_matches_exact_counts_and_oracle(self, num_q, levels):
        rng = np.random.default_rng(num_q * 10 + (levels or 0))
        q = random_signatures(rng, 400, 1, num_q, levels)[:, 0, :]
        t = rng.normal(scale=4.0, size=(400, 7))
        if levels is not None:
            t = np.round(t)  # exactly on points, between them, off both ends
        new = _rowwise_cdf(q, t)
        np.testing.assert_array_equal(new, exact_cdf(q, t))
        np.testing.assert_array_equal(new, rowwise_cdf(q, t))

    def test_ends_and_points(self):
        q = np.array([[1.0, 2.0, 2.0, 2.0, 4.0], [3.0, 3.0, 3.0, 3.0, 3.0]])
        t = np.array([[0.5, 1.0, 2.0, 3.0, 4.0, 9.0], [2.0, 3.0, 3.5, 3.0, -1.0, 4.0]])
        expected = np.array(
            [[0.0, 0.0, 0.25, 0.875, 1.0, 1.0], [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]]
        )
        np.testing.assert_array_equal(_rowwise_cdf(q, t), expected)
        np.testing.assert_array_equal(rowwise_cdf(q, t), expected)

    def test_single_point_is_a_step(self):
        q = np.array([[1.0], [2.0]])
        t = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(
            _rowwise_cdf(q, t), [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]
        )

    def test_wide_count_dtype(self):
        # More than 255 points per row needs a count wider than uint8.
        rng = np.random.default_rng(9)
        q = np.sort(rng.normal(size=(20, 300)), axis=1)
        t = rng.normal(scale=2.0, size=(20, 40))
        np.testing.assert_array_equal(_rowwise_cdf(q, t), exact_cdf(q, t))


class TestScoreCellsMatchesOracle:
    @pytest.mark.parametrize("num_q", [1, 2, 11])
    @pytest.mark.parametrize("levels", [None, 5])
    @pytest.mark.parametrize("eff_eps", [0.0, 1.0, 2.5])
    def test_random_sorted_rows(self, num_q, levels, eff_eps):
        rng = np.random.default_rng(num_q + 7 * (levels or 0))
        k = 4
        r_sig = random_signatures(rng, 30, k, num_q, levels)
        s_sig = random_signatures(rng, 25, k, num_q, levels)
        rows = rng.integers(0, 30, 2_000)
        cols = rng.integers(0, 25, 2_000)
        r = PageSketches("quantile", r_sig, np.full(30, 16, dtype=np.int64))
        s = PageSketches("quantile", s_sig, np.full(25, 16, dtype=np.int64))
        np.testing.assert_array_equal(
            score_cells(r, s, rows, cols, eff_eps),
            score_quantile_cells(r_sig, s_sig, rows, cols, eff_eps),
        )

    def test_landsat_sketches(self):
        r, s = landsat_pair(0.05)
        config = PrefilterConfig()
        r_sk = build_sketches(r, config)
        s_sk = build_sketches(s, config)
        rows, cols = np.divmod(np.arange(r_sk.num_pages * s_sk.num_pages), s_sk.num_pages)
        eff_eps = effective_epsilon(r, LANDSAT_EPSILON)
        scores = score_cells(r_sk, s_sk, rows, cols, eff_eps)
        np.testing.assert_array_equal(
            scores,
            score_quantile_cells(r_sk.signatures, s_sk.signatures, rows, cols, eff_eps),
        )
        assert (scores > 0).any() and (scores == 0).any()
