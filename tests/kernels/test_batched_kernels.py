"""Batched kernels must be bit-identical to their scalar references.

The kernel layer's contract (ISSUE 1 tentpole) is that batching changes
*when* numbers are computed, never *which* numbers: ``dtw_batch`` /
``edit_batch`` return exactly what per-pair ``dtw_distance`` /
``edit_distance`` calls return (early-abandon sentinels included), and
``minkowski_pair_arrays`` accepts exactly the pairs the difference-tensor
reference accepts.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.dtw as kdtw
import repro.kernels.edit as kedit
from repro.core.joiners import make_fd_filter, make_keogh_filter
from repro.distance.dtw import dtw_distance, envelope
from repro.distance.edit import edit_distance
from repro.distance.frequency import frequency_distance
from repro.distance.vector import MinkowskiDistance
from repro.kernels import (
    batch_envelopes,
    dtw_batch,
    edit_batch,
    encode_strings,
    minkowski_pair_arrays,
)
from repro.kernels.backends import KernelBackend
from repro.kernels.dtw import (
    envelope_centres,
    lb_keogh_gathered,
    lb_keogh_limit,
    lb_keogh_panel,
)
from repro.kernels.minkowski import euclidean_gram_panel
from tests.oracles.kernels import (
    _dtw_chunk,
    _edit_chunk,
    dtw_pairs_within,
    fd_filter_float,
    lb_keogh_block,
    sliding_envelopes,
)

# The chunk kernels dtw_batch / edit_batch run: the shipped wavefront
# DPs, and the row-by-row oracle they are checked against — so the
# oracle stays pinned to the scalar distance functions too.
CHUNK_KERNELS = ["numpy", "wavefront"]


@contextmanager
def chunk_kernels(name):
    """Run ``dtw_batch`` / ``edit_batch`` on the named chunk kernels."""
    if name == "wavefront":
        yield
        return
    with mock.patch.object(kdtw, "dtw_chunk_wavefront", _dtw_chunk), \
            mock.patch.object(kedit, "edit_chunk_wavefront", _edit_chunk):
        yield

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def window_pair_blocks(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    w = draw(st.integers(min_value=1, max_value=12))
    flat = draw(
        st.lists(finite, min_size=2 * k * w, max_size=2 * k * w)
    )
    block = np.asarray(flat).reshape(2, k, w)
    return block[0], block[1]


@st.composite
def dna_blocks(draw):
    k = draw(st.integers(min_value=1, max_value=8))
    w = draw(st.integers(min_value=1, max_value=16))
    mats = draw(
        st.lists(
            st.lists(st.sampled_from("ACGT"), min_size=w, max_size=w),
            min_size=2 * k,
            max_size=2 * k,
        )
    )
    strings = ["".join(row) for row in mats]
    return strings[:k], strings[k:]


class TestDtwBatch:
    @pytest.mark.parametrize("kernel", CHUNK_KERNELS)
    @given(window_pair_blocks(), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_matches_scalar_bitwise(self, kernel, block, band):
        a, b = block
        with chunk_kernels(kernel):
            batched = dtw_batch(a, b, band)
        scalar = np.array(
            [dtw_distance(a[k], b[k], band) for k in range(a.shape[0])]
        )
        assert np.array_equal(batched, scalar)

    @pytest.mark.parametrize("kernel", CHUNK_KERNELS)
    @given(
        window_pair_blocks(),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0, max_value=30, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_early_abandon_matches_scalar_bitwise(self, kernel, block, band, max_dist):
        a, b = block
        with chunk_kernels(kernel):
            batched = dtw_batch(a, b, band, max_dist=max_dist)
        scalar = np.array(
            [dtw_distance(a[k], b[k], band, max_dist=max_dist) for k in range(a.shape[0])]
        )
        assert np.array_equal(batched, scalar)

    def test_threshold_exactly_at_distance(self):
        """The abandon boundary: max_dist equal to the true distance."""
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[3.0, 0.0, 0.0]])
        true = dtw_distance(a[0], b[0], band=1)
        assert dtw_batch(a, b, 1, max_dist=true)[0] == true
        below = np.nextafter(true, 0.0)
        assert dtw_batch(a, b, 1, max_dist=below)[0] == below + 1.0

    @pytest.mark.parametrize("kernel", CHUNK_KERNELS)
    def test_chunking_boundary(self, rng, monkeypatch, kernel):
        monkeypatch.setattr(kdtw, "_CHUNK_PAIRS", 3)
        a = rng.normal(size=(10, 6))
        b = rng.normal(size=(10, 6))
        with chunk_kernels(kernel):
            chunked = dtw_batch(a, b, 2, max_dist=2.0)
        scalar = np.array([dtw_distance(a[k], b[k], 2, max_dist=2.0) for k in range(10)])
        assert np.array_equal(chunked, scalar)

    def test_validation(self):
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 3)), np.zeros((1, 4)), band=1)
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 3)), np.zeros((1, 3)), band=-1)
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 0)), np.zeros((1, 0)), band=1)
        assert dtw_batch(np.zeros((0, 3)), np.zeros((0, 3)), band=1).shape == (0,)

    @given(window_pair_blocks(), st.integers(min_value=0, max_value=14))
    @settings(max_examples=60, deadline=None)
    def test_batch_envelopes_match_per_row(self, block, band):
        """Shifted min/max passes equal the sliding-window reduction over
        edge-padded rows, for the block and for each row on its own."""
        windows, _ = block
        lowers, uppers = batch_envelopes(windows, band)
        expected_lowers, expected_uppers = sliding_envelopes(windows, band)
        assert np.array_equal(lowers, expected_lowers)
        assert np.array_equal(uppers, expected_uppers)
        for k in range(windows.shape[0]):
            lo, hi = envelope(windows[k], band)
            assert np.array_equal(lo, expected_lowers[k])
            assert np.array_equal(hi, expected_uppers[k])


class TestEditBatch:
    @pytest.mark.parametrize("kernel", CHUNK_KERNELS)
    @given(dna_blocks(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_bitwise(self, kernel, block, limit):
        left, right = block
        with chunk_kernels(kernel):
            batched = edit_batch(encode_strings(left), encode_strings(right), limit)
        scalar = np.array(
            [edit_distance(s, t, max_dist=limit) for s, t in zip(left, right)]
        )
        assert np.array_equal(batched, scalar)

    def test_threshold_exactly_at_distance(self):
        a = encode_strings(["AAAA"])
        b = encode_strings(["AATT"])
        assert edit_batch(a, b, 2)[0] == 2.0
        assert edit_batch(a, b, 1)[0] == 2.0  # sentinel: max_dist + 1

    def test_zero_threshold(self):
        codes = encode_strings(["ACGT", "ACGT"])
        other = encode_strings(["ACGT", "ACGA"])
        assert edit_batch(codes, other, 0).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("kernel", CHUNK_KERNELS)
    def test_chunking_boundary(self, monkeypatch, kernel):
        monkeypatch.setattr(kedit, "_CHUNK_PAIRS", 2)
        left = ["ACGTAC", "TTTTTT", "ACGTTT", "GGGGGG", "ACGTAA"]
        right = ["ACGTAC", "TTTTAA", "TTTTTT", "GGGGCC", "AAGTAA"]
        with chunk_kernels(kernel):
            batched = edit_batch(encode_strings(left), encode_strings(right), 3)
        scalar = np.array([edit_distance(s, t, max_dist=3) for s, t in zip(left, right)])
        assert np.array_equal(batched, scalar)

    def test_validation(self):
        with pytest.raises(ValueError):
            edit_batch(np.zeros((1, 3), dtype=np.uint8), np.zeros((1, 4), dtype=np.uint8), 1)
        with pytest.raises(ValueError):
            edit_batch(np.zeros((1, 3), dtype=np.uint8), np.zeros((1, 3), dtype=np.uint8), -1)
        with pytest.raises(ValueError):
            encode_strings(["AB", "ABC"])


def pairs_of(left, right, epsilon, p):
    """``minkowski_pair_arrays`` as a list of ``(i, j)`` tuples."""
    rows, cols = minkowski_pair_arrays(left, right, epsilon, p)
    return list(zip(rows.tolist(), cols.tolist()))


class TestMinkowskiKernel:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, float("inf")])
    def test_pairs_match_brute_force(self, p, rng):
        left = rng.random((40, 3))
        right = rng.random((30, 3))
        d = MinkowskiDistance(p)
        for eps in (0.0, 0.2, 0.5):
            expected = {
                (i, j)
                for i in range(40)
                for j in range(30)
                if d.distance(left[i], right[j]) <= eps
            }
            assert set(pairs_of(left, right, eps, p)) == expected

    def test_gram_filter_keeps_identical_points_at_zero_epsilon(self, rng):
        pts = rng.normal(size=(50, 8)) * 1e3
        pairs = set(pairs_of(pts, pts.copy(), 0.0, 2.0))
        assert pairs == {(i, i) for i in range(50)}

    @given(
        st.lists(finite, min_size=4, max_size=40),
        st.floats(min_value=0, max_value=20, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_euclidean_pairs_property(self, flat, eps):
        n = len(flat) // 2
        pts = np.asarray(flat[: 2 * n]).reshape(n, 2)
        d = MinkowskiDistance(2.0)
        expected = {
            (i, j)
            for i in range(n)
            for j in range(n)
            if d.distance(pts[i], pts[j]) <= eps
        }
        assert set(pairs_of(pts, pts, eps, 2.0)) == expected


class TestAdaptersRouteThroughKernels:
    """The frozen page-pair DTW join — two-way LB_Keogh blocks, then
    ``dtw_batch`` — must equal scalar brute force."""

    def test_dtw_adapter(self, rng):
        left = rng.normal(size=(12, 8))
        right = rng.normal(size=(9, 8))
        for eps in (0.5, 1.5, 3.0):
            expected = {
                (i, j)
                for i in range(12)
                for j in range(9)
                if dtw_distance(left[i], right[j], 2) <= eps
            }
            assert set(dtw_pairs_within(2, left, right, eps)) == expected


def _nudge(value, ulps):
    """``value`` moved by ``ulps`` representable doubles, not below zero."""
    direction = np.inf if ulps > 0 else 0.0
    for _ in range(abs(ulps)):
        value = np.nextafter(value, direction)
    return float(value)


def _on_bound(windows, band, t, rng):
    """One window per row of ``windows`` on the centre–radius bound's
    equality case against that row's envelope (centre ``c``, radius
    ``r``): ``q = c ± (r + t·r/‖r‖)`` — or ``c + t·d`` for a unit ``d``
    when ``r = 0`` — so ``LB_Keogh(q) = t`` and ``‖q − c‖ = ‖r‖ + t``
    both hold with equality."""
    lowers, uppers = batch_envelopes(windows, band)
    centres, radii = envelope_centres(lowers, uppers)
    out = []
    for c, lo, hi, norm in zip(centres, lowers, uppers, radii):
        if norm > 0:
            half = 0.5 * (hi - lo)
            offset = half + t * half / norm
        else:
            direction = rng.normal(size=c.shape[0])
            offset = t * direction / np.linalg.norm(direction)
        out.append(c + rng.choice([-1.0, 1.0], size=c.shape[0]) * offset)
    return np.vstack(out)


def two_way_keogh(left, right, band):
    """Forward and reverse LB_Keogh of every cell, ``(len(left), len(right))``."""
    right_lowers, right_uppers = batch_envelopes(right, band)
    left_lowers, left_uppers = batch_envelopes(left, band)
    forward = lb_keogh_block(left, right_lowers, right_uppers)
    reverse = lb_keogh_block(right, left_lowers, left_uppers).T
    return forward, reverse


@st.composite
def keogh_boundary_panels(draw):
    """Windows on the centre–radius bounds' equality cases, plus others.

    Left windows sit on the forward bound's equality case against the
    right windows' envelopes, and right windows on the reverse bound's
    against some left windows' envelopes (roles swapped).  ε is chosen
    so that the decision limit ``lb_keogh_limit(ε, w)`` lands a few
    ulps either side of one such cell's computed LB_Keogh.
    """
    w = draw(st.integers(min_value=1, max_value=130))
    band = draw(st.sampled_from([0, 1, w // 2, w + draw(st.integers(0, 3))]))
    level = draw(st.floats(min_value=1e-3, max_value=1e4))
    step = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))  # 0: constant windows
    n_right = draw(st.integers(min_value=1, max_value=5))
    n_base = draw(st.integers(min_value=1, max_value=3))
    n_other = draw(st.integers(min_value=0, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def walks(n):
        return level * (1.0 + step * rng.normal(size=(n, w)).cumsum(axis=1))

    t = level * max(step, 1e-3) * draw(st.floats(min_value=0.0, max_value=3.0))
    base_right = walks(n_right)
    base_left = walks(n_base)
    left = np.vstack([_on_bound(base_right, band, t, rng), walks(n_other), base_left])
    right = np.vstack([base_right, _on_bound(base_left, band, t, rng)])
    forward, reverse = two_way_keogh(left, right, band)
    if draw(st.booleans()):  # a forward equality cell
        target = draw(st.integers(min_value=0, max_value=n_right - 1))
        exact = forward[target, target]
    else:  # a reverse one
        target = draw(st.integers(min_value=0, max_value=n_base - 1))
        exact = reverse[n_right + n_other + target, n_right + target]
    scale = lb_keogh_limit(1.0, w)
    epsilon = _nudge(exact / scale, draw(st.integers(min_value=-3, max_value=3)))
    return left, right, band, epsilon


class TestKeoghPanelFilter:
    """The bounded filter decides exactly as LB_Keogh in both directions,
    each compared with the decision limit ``lb_keogh_limit(ε, w)``."""

    @given(keogh_boundary_panels())
    @settings(max_examples=300, deadline=None)
    def test_decisions_equal_lb_keogh(self, panel):
        left, right, band, epsilon = panel
        limit = lb_keogh_limit(epsilon, left.shape[1])
        forward, reverse = two_way_keogh(left, right, band)
        keogh_filter = make_keogh_filter(left, right, band, epsilon)
        decisions = keogh_filter(slice(0, left.shape[0]), np.arange(right.shape[0]))
        assert np.array_equal(decisions, (forward <= limit) & (reverse <= limit))

    @given(keogh_boundary_panels())
    @settings(max_examples=60, deadline=None)
    def test_panel_bounds_bitwise_equal_block(self, panel):
        left, right, band, _ = panel
        lowers, uppers = batch_envelopes(right, band)
        assert np.array_equal(
            lb_keogh_panel(left, lowers, uppers), lb_keogh_block(left, lowers, uppers)
        )

    @given(keogh_boundary_panels())
    @settings(max_examples=60, deadline=None)
    def test_gathered_bounds_bitwise_equal_block(self, panel):
        left, right, band, _ = panel
        lowers, uppers = batch_envelopes(left, band)
        rows, cols = np.indices((right.shape[0], left.shape[0]))
        gathered = lb_keogh_gathered(right, lowers, uppers, rows.ravel(), cols.ravel())
        assert np.array_equal(
            gathered.reshape(rows.shape), lb_keogh_block(right, lowers, uppers)
        )

    def test_gathered_bounds_chunk_at_the_cell_budget(self, rng, monkeypatch):
        left = rng.normal(size=(9, 16)).cumsum(axis=1)
        right = rng.normal(size=(40, 16)).cumsum(axis=1)
        lowers, uppers = batch_envelopes(left, 3)
        rows, cols = np.indices((40, 9))
        whole = lb_keogh_gathered(right, lowers, uppers, rows.ravel(), cols.ravel())
        monkeypatch.setattr(kdtw, "_LB_CELL_BUDGET", 16 * 7)  # chunks of 7 cells
        chunked = lb_keogh_gathered(right, lowers, uppers, rows.ravel(), cols.ravel())
        assert np.array_equal(whole, chunked)
        assert np.array_equal(whole.reshape(40, 9), lb_keogh_block(right, lowers, uppers))

    @staticmethod
    def _past_the_gram_range(left, right, monkeypatch):
        """The filter's decisions over the whole panel, the two-way
        LB_Keogh decisions they must equal, and how many Gram products
        ran.  ε is the median two-way bound of the first 12 × 30 cells."""
        grams = []
        original = KernelBackend.euclidean_gram_panel

        def counting(self, *args):
            grams.append(args[0].shape[0])
            return original(self, *args)

        monkeypatch.setattr(KernelBackend, "euclidean_gram_panel", counting)
        with np.errstate(over="ignore"):  # far pairs' LB_Keogh is inf
            forward, reverse = two_way_keogh(left, right, 2)
            epsilon = float(np.median(np.maximum(forward, reverse)[:12, :30]))
            limit = lb_keogh_limit(epsilon, left.shape[1])
            keogh_filter = make_keogh_filter(left, right, 2, epsilon)
            decisions = keogh_filter(
                slice(0, left.shape[0]), np.arange(right.shape[0])
            )
        return decisions, (forward <= limit) & (reverse <= limit), grams

    @pytest.mark.parametrize("scale", [1e150, 1e152, 1e153])
    def test_values_past_the_gram_range(self, rng, scale, monkeypatch):
        """Huge values on both sides: where squared norms overflow, both
        directions' guards skip their Gram bounds, and the decisions still
        equal LB_Keogh's in both directions."""
        right = (10.0 + rng.normal(size=(30, 10)).cumsum(axis=1)) * scale
        left = right[:12] + rng.normal(scale=0.05, size=(12, 10)) * scale
        decisions, expected, grams = self._past_the_gram_range(
            left, right, monkeypatch
        )
        assert decisions.any()
        assert np.array_equal(decisions, expected)
        if scale != 1e152:  # 1e152 sits at the guards' edge
            assert bool(grams) == (scale == 1e150)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("scale", [1e150, 1e152, 1e153])
    def test_huge_values_on_one_side(self, rng, side, scale, monkeypatch):
        """Three huge windows on one side, beside windows of ordinary size.

        Huge left windows reach the forward guard through their squared
        norms and the reverse guard through their envelope centres';
        huge right windows the other way round.  The decisions equal
        LB_Keogh's in both directions, and no huge window passes.
        """
        right = 10.0 + rng.normal(size=(30, 10)).cumsum(axis=1)
        left = right[:12] + rng.normal(scale=0.05, size=(12, 10))
        huge = (10.0 + rng.normal(size=(3, 10)).cumsum(axis=1)) * scale
        if side == "left":
            left = np.vstack([left, huge])
        else:
            right = np.vstack([right, huge])
        decisions, expected, grams = self._past_the_gram_range(
            left, right, monkeypatch
        )
        assert decisions.any()
        assert not decisions[12:].any() and not decisions[:, 30:].any()
        assert np.array_equal(decisions, expected)
        if scale == 1e150:
            assert grams, "the Gram bounds run below the overflow range"
        elif scale == 1e153:
            assert not grams, "both guards trip once squared norms overflow"

    def test_lb_keogh_skips_columns_the_bound_rejects(self, rng, monkeypatch):
        widths = []
        original = KernelBackend.lb_keogh_panel

        def counting(self, left_rows, lowers, uppers):
            widths.append(lowers.shape[0])
            return original(self, left_rows, lowers, uppers)

        monkeypatch.setattr(KernelBackend, "lb_keogh_panel", counting)
        right = rng.normal(size=(40, 32)).cumsum(axis=1)
        far = make_keogh_filter(right[:8] + 50.0, right, 2, 1.0)
        assert not far(slice(0, 8), np.arange(40)).any()
        assert widths == []
        near = make_keogh_filter(right[5:6], right, 2, 1.0)
        assert near(slice(0, 1), np.arange(40))[0, 5]
        assert len(widths) == 1 and 1 <= widths[0] < 40

    def test_per_column_threshold_matches_scalar(self, rng):
        left = rng.normal(size=(7, 5))
        right = rng.normal(size=(300, 5))
        left_sq = np.einsum("id,id->i", left, left)
        right_sq = np.einsum("jd,jd->j", right, right)
        scalar = euclidean_gram_panel(left, right, left_sq, right_sq, 2.0)
        per_column = euclidean_gram_panel(left, right, left_sq, right_sq, np.full(300, 2.0))
        assert np.array_equal(scalar, per_column)
        thresholds = rng.random(300) * 4
        varied = euclidean_gram_panel(left, right, left_sq, right_sq, thresholds)
        for j in range(0, 300, 37):
            column = euclidean_gram_panel(
                left, right[j : j + 1], left_sq, right_sq[j : j + 1], thresholds[j]
            )
            assert np.array_equal(varied[:, j], column[:, 0])


def _at_l1(counts, units, rng):
    """A count vector with the same sum at L1 distance exactly ``2·units``.

    ``units`` counts leave the most frequent letters and land on the
    others; no letter both gives and receives, so nothing cancels.
    """
    order = np.argsort(-counts, kind="stable")
    donors = order[: int(np.searchsorted(np.cumsum(counts[order]), units)) + 1]
    receivers = np.setdiff1d(np.arange(counts.size), donors)
    out = counts.copy()
    left = units
    for a in donors:
        take = min(out[a], left)
        out[a] -= take
        left -= take
    np.add.at(out, rng.choice(receivers, size=units), 1)
    return out


@st.composite
def fd_boundary_panels(draw):
    """Count vectors at L1 distance 2⌊ε⌋ − 2, 2⌊ε⌋ and 2⌊ε⌋ + 2, plus others.

    For an integer ε these are exactly 2ε and 2ε ± 2; for ε = k + ½ they
    are the even L1 values either side of 2ε.
    """
    alphabet = draw(st.sampled_from([4, 20]))
    w = draw(st.sampled_from([8, 31, 192, 20000]))  # 20000: past int16
    epsilon = draw(st.sampled_from([0, 0.5, 1, 1.5, 2, 3]))
    n_left = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    probs = rng.dirichlet(np.ones(alphabet))
    left = rng.multinomial(w, probs, size=n_left)
    right = [rng.multinomial(w, probs)]
    for row in left:
        for units in (int(epsilon) - 1, int(epsilon), int(epsilon) + 1):
            if units >= 0:
                near = _at_l1(row, units, rng)
                assert np.abs(near - row).sum() == 2 * units
                right.append(near)
    order = rng.permutation(len(right))
    return left.astype(float), np.asarray(right, dtype=float)[order], epsilon, w


class TestFdPanelFilter:
    """The integer FD filter decides exactly as the float form did."""

    @given(fd_boundary_panels())
    @settings(max_examples=200, deadline=None)
    def test_decisions_equal_float_form(self, panel):
        left, right, epsilon, w = panel
        fd_filter = make_fd_filter(left, right, epsilon, w)
        decisions = fd_filter(slice(0, left.shape[0]), np.arange(right.shape[0]))
        assert np.array_equal(decisions, fd_filter_float(left, right, epsilon))
        fd = np.array([[frequency_distance(a, b) for b in right] for a in left])
        assert np.array_equal(decisions, fd <= epsilon)

    @pytest.mark.parametrize("epsilon", [8, 9.5, 1e300, float("inf")])
    def test_epsilon_past_window_keeps_everything(self, rng, epsilon):
        left = rng.multinomial(8, np.ones(4) / 4, size=5).astype(float)
        right = rng.multinomial(8, np.ones(4) / 4, size=9).astype(float)
        decisions = make_fd_filter(left, right, epsilon, 8)(slice(0, 5), np.arange(9))
        assert decisions.all()
        assert np.array_equal(decisions, fd_filter_float(left, right, epsilon))

    def test_panel_rows_and_columns_select_windows(self, rng):
        left = rng.multinomial(12, np.ones(4) / 4, size=10).astype(float)
        right = rng.multinomial(12, np.ones(4) / 4, size=30).astype(float)
        cols = np.array([3, 4, 5, 17, 29])
        decisions = make_fd_filter(left, right, 2, 12)(slice(2, 6), cols)
        assert np.array_equal(decisions, fd_filter_float(left[2:6], right[cols], 2))
