"""The L2 decision kernel decides every cell as the difference form does.

:func:`repro.kernels.minkowski.euclidean_panel_decisions` computes each
cell's Gram value as one entry of the product of the augmented rows
``[l, ‖l‖², 1]·[−2r, 1, ‖r‖²]``, rejects the cell where that value
exceeds ``ε²`` plus the panel's margin ``s·(max ‖l‖² + max ‖r‖²)``,
accepts it outright where the value plus the margin sits below
``ε²·(1 − 2s)``, and runs the exact difference form
(:func:`~repro.kernels.minkowski.minkowski_refine`) on the band in
between.  Its decisions must equal ``minkowski_refine``'s on every cell
— at both limits, at ε = 0, far from the origin and across product
blocks — and where squared norms overflow, or a panel's are so small
that its products are subnormal, the Gram form decides nothing, so the
L2 routines fall back to the difference form.  The rounding bound the
margin rests on is checked against exact rational arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.minkowski as kmink
from repro.core.joiners import make_numeric_joiner
from repro.costmodel import CostModel
from repro.distance.vector import MinkowskiDistance
from repro.kernels.minkowski import (
    euclidean_augmented,
    euclidean_panel_decisions,
    minkowski_pair_arrays,
    minkowski_refine,
)
from repro.storage.page import VectorPagedDataset
from tests.oracles.brute_force import vector_pairs

SLACK = kmink._GRAM_SLACK
UNIT = 2.0**-53


def _ulps(a, b):
    """Signed distance from ``b`` to ``a`` in doubles (both non-negative)."""
    return int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64))


def _nudge(value, ulps):
    direction = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        value = np.nextafter(value, direction)
    return float(value)


def _gram_and_margin(left, right):
    """The Gram values and the margin the kernel computes for one panel:
    one product of the augmented rows, and ``s`` times the sum of the
    largest squared norms on each side."""
    left_aug, right_aug = euclidean_augmented(left, right, 0.0)
    d = left.shape[1]
    margin = SLACK * (left_aug[:, d].max() + right_aug[:, d + 1].max())
    return left_aug @ right_aug.T, margin


def _reject_limit(epsilon, margin):
    return epsilon * epsilon + margin


def _accept_limit(epsilon, _margin):
    return epsilon * epsilon * (1.0 - 2.0 * SLACK)


def _epsilon_at(limit, value, margin, target_ulps):
    """An ε whose ``limit(ε, margin)`` lands within three doubles of
    ``value``, as close to ``target_ulps`` doubles below it as the
    doubles near ``ε²`` allow, and how many doubles below it lands.

    Neighbouring ε² are under three doubles apart, so seven consecutive
    offsets always hold one."""
    target = _nudge(value, -target_ulps)
    if limit is _reject_limit:
        guess = np.sqrt(max(target - margin, 0.0))
    else:
        guess = np.sqrt(target / (1.0 - 2.0 * SLACK))
    found = []
    for step in range(-8, 9):
        eps = _nudge(guess, step)
        if eps >= 0:
            found.append((eps, _ulps(value, limit(eps, margin))))
    near = [pair for pair in found if abs(pair[1]) <= 3] or found
    return min(near, key=lambda pair: abs(pair[1] - target_ulps))


def _refined(left, right, epsilon):
    rows, cols = np.indices((left.shape[0], right.shape[0]))
    keep = minkowski_refine(left, right, rows.ravel(), cols.ravel(), epsilon, 2.0)
    return keep.reshape(rows.shape)


def _decide(left, right, epsilon, groups=1):
    """The kernel's decisions as a row-major ``(n, m)`` matrix, and its
    kept count."""
    left_aug, right_aug = euclidean_augmented(left, right, epsilon)
    decisions, kept = euclidean_panel_decisions(left_aug, right_aug, epsilon, groups)
    assert decisions.shape == (groups, left.shape[0], right.shape[0] // groups)
    return decisions.transpose(1, 0, 2).reshape(left.shape[0], -1), kept


@st.composite
def boundary_panels(draw):
    """Random panels with ε placed so that one cell's Gram value lands
    within a few doubles of the reject or the accept limit.

    The target cell pairs a left point with a right point at distance
    ``t`` in a random direction; the panel's other points are random
    around the same offset from the origin.
    """
    d = draw(st.sampled_from([1, 2, 3, 8, 60]))
    n_left = draw(st.integers(1, 6))
    n_right = draw(st.integers(1, 8))
    offset = draw(st.sampled_from([0.0, 0.5, 30.0]))
    spread = draw(st.sampled_from([0.01, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = offset + spread * rng.normal(size=(n_left, d))
    right = offset + spread * rng.normal(size=(n_right, d))
    i = draw(st.integers(0, n_left - 1))
    j = draw(st.integers(0, n_right - 1))
    direction = rng.normal(size=d)
    t = spread * draw(st.floats(0.05, 3.0))
    right[j] = left[i] + t * direction / np.linalg.norm(direction)
    gram, margin = _gram_and_margin(left, right)
    # The reject limit is at least the margin: far from the origin it
    # can sit above a near pair's Gram value for every ε.
    if draw(st.booleans()) and gram[i, j] > margin:
        limit, value = _reject_limit, gram[i, j]
    else:
        limit, value = _accept_limit, gram[i, j] + margin
    epsilon, off = _epsilon_at(limit, value, margin, draw(st.integers(-3, 3)))
    return left, right, epsilon, off


class TestDecisionsEqualTheDifferenceForm:
    @given(boundary_panels())
    @settings(max_examples=400, deadline=None)
    def test_at_both_limits(self, panel):
        left, right, epsilon, off = panel
        assert abs(off) <= 3, "calibration: the limit lands near the cell"
        decisions, kept = _decide(left, right, epsilon)
        assert np.array_equal(decisions, _refined(left, right, epsilon))
        gram, margin = _gram_and_margin(left, right)
        assert kept == np.count_nonzero(gram <= epsilon * epsilon + margin)

    def test_band_holds_cells_the_difference_form_rejects(self):
        """With ε a double or so under one cell's reject limit, the
        Gram filter keeps the cell and the difference form rejects it."""
        rng = np.random.default_rng(5)
        left = rng.normal(size=(40, 3))
        right = left + rng.normal(scale=1e-3, size=(40, 3))
        gram, margin = _gram_and_margin(left, right)
        epsilon, off = _epsilon_at(_reject_limit, gram[3, 3], margin, -1)
        assert -3 <= off <= 0  # the Gram filter keeps cell (3, 3)
        decisions, kept = _decide(left, right, epsilon)
        refined = _refined(left, right, epsilon)
        assert np.array_equal(decisions, refined)
        assert not refined[3, 3]
        assert kept > np.count_nonzero(refined)

    @pytest.mark.parametrize("epsilon", [0.0, 0.25])
    def test_duplicate_points(self, rng, epsilon):
        grid = np.round(rng.random((30, 4)) * 4) / 4
        right = np.vstack([grid[::2], grid[:5] * 1e3, rng.random((6, 4))])
        decisions, _ = _decide(grid, right, epsilon)
        refined = _refined(grid, right, epsilon)
        assert np.array_equal(decisions, refined)
        assert refined.any()

    def test_far_from_the_origin_the_band_holds_every_survivor(
        self, rng, monkeypatch
    ):
        band_cells = []
        original = kmink.minkowski_refine

        def counting(left, right, rows, cols, epsilon, p):
            band_cells.append(rows.shape[0])
            return original(left, right, rows, cols, epsilon, p)

        left = 1e6 + rng.random((50, 3))
        right = 1e6 + rng.random((40, 3))
        monkeypatch.setattr(kmink, "minkowski_refine", counting)
        decisions, kept = _decide(left, right, 0.3)
        monkeypatch.undo()
        assert kept > 0 and sum(band_cells) == kept
        assert np.array_equal(decisions, _refined(left, right, 0.3))

    def test_near_the_origin_the_band_is_empty(self, rng, monkeypatch):
        band_cells = []
        original = kmink.minkowski_refine

        def counting(left, right, rows, cols, epsilon, p):
            band_cells.append(rows.shape[0])
            return original(left, right, rows, cols, epsilon, p)

        left = rng.random((50, 3))
        right = rng.random((40, 3))
        monkeypatch.setattr(kmink, "minkowski_refine", counting)
        decisions, kept = _decide(left, right, 0.3)
        monkeypatch.undo()
        assert kept > 0 and sum(band_cells) == 0
        assert np.array_equal(decisions, _refined(left, right, 0.3))

    @staticmethod
    def _chunked(rng, monkeypatch, groups, budget):
        """Decisions and kept counts of one 9 × 21 panel in ``groups``
        column groups, in one product block and in blocks of at most
        ``budget`` cells."""
        left = rng.normal(size=(9, 5))
        right = np.vstack([left + rng.normal(scale=0.3, size=(9, 5)),
                           rng.normal(size=(12, 5))])
        whole = _decide(left, right, 1.2, groups)
        monkeypatch.setattr(kmink, "_BLOCK_CELL_BUDGET", budget)
        chunked = _decide(left, right, 1.2, groups)
        return whole, chunked, _refined(left, right, 1.2)

    @pytest.mark.parametrize("chunk_cols", [1, 3, 7])
    def test_column_chunks(self, rng, monkeypatch, chunk_cols):
        """Groups of ``chunk_cols`` columns, one group per product block."""
        (whole, whole_kept), (chunked, chunked_kept), refined = self._chunked(
            rng, monkeypatch, 21 // chunk_cols, 9 * chunk_cols
        )
        assert np.array_equal(chunked, refined)
        assert np.array_equal(chunked, whole)
        assert chunked_kept == whole_kept

    @pytest.mark.parametrize("chunk_rows", [1, 2, 4])
    def test_row_chunks(self, rng, monkeypatch, chunk_rows):
        """A group wider than the budget goes a run of rows at a time."""
        (whole, whole_kept), (chunked, chunked_kept), refined = self._chunked(
            rng, monkeypatch, 1, 21 * chunk_rows
        )
        assert np.array_equal(chunked, refined)
        assert np.array_equal(chunked, whole)
        assert chunked_kept == whole_kept

    def test_entry_blocked_order(self, rng):
        """Cell ``[g, i, j]`` of ``groups`` column groups of ``c`` is row
        ``i`` against column ``g·c + j`` of the panel."""
        left = rng.random((6, 2))
        right = rng.random((15, 2))
        left_aug, right_aug = euclidean_augmented(left, right, 0.4)
        decisions, _ = euclidean_panel_decisions(left_aug, right_aug, 0.4, 3)
        refined = _refined(left, right, 0.4)
        assert refined.any() and not refined.all()
        for g in range(3):
            assert np.array_equal(decisions[g], refined[:, 5 * g : 5 * g + 5])

    def test_no_outright_accepts_past_the_dimension_cap(self, rng, monkeypatch):
        band_cells = []
        original = kmink.minkowski_refine

        def counting(left, right, rows, cols, epsilon, p):
            band_cells.append(rows.shape[0])
            return original(left, right, rows, cols, epsilon, p)

        left = rng.random((20, 4))
        right = rng.random((30, 4))
        monkeypatch.setattr(kmink, "minkowski_refine", counting)
        monkeypatch.setattr(kmink, "_GRAM_ACCEPT_MAX_DIM", 3)
        decisions, kept = _decide(left, right, 0.5)
        monkeypatch.undo()
        assert kept > 0 and sum(band_cells) == kept
        assert np.array_equal(decisions, _refined(left, right, 0.5))


def _cascade_decisions(left, right, epsilon):
    """Every cell's decision from the L2 join cascade over all page pairs."""
    r = VectorPagedDataset(left, objects_per_page=4, dataset_id="r")
    s = VectorPagedDataset(right, objects_per_page=4, dataset_id="s")
    joiner = make_numeric_joiner(
        r, s, MinkowskiDistance(2.0), epsilon, CostModel(), self_join=False
    )
    entries = [(a, b) for a in range(r.num_pages) for b in range(s.num_pages)]
    out = np.zeros((left.shape[0], right.shape[0]), dtype=bool)
    pairs = joiner.join_cluster(entries).pairs
    out[pairs[:, 0], pairs[:, 1]] = True
    return out


class TestPastTheGramRange:
    """Where squared norms overflow, no L2 routine lets the Gram value
    decide (its terms would be ``inf − inf``): every cell takes the
    difference form."""

    @staticmethod
    def _decisions(left, right, epsilon, monkeypatch):
        """Pair-array and cascade decisions, the difference form's, and
        how many Gram panels ran."""
        panels = []
        original = kmink.euclidean_panel_decisions

        def counting(*args):
            panels.append(args[0].shape[0])
            return original(*args)

        monkeypatch.setattr(kmink, "euclidean_panel_decisions", counting)
        monkeypatch.setattr(
            "repro.core.joiners.euclidean_panel_decisions", counting
        )
        with np.errstate(over="ignore"):  # far pairs' squares are inf
            rows, cols = minkowski_pair_arrays(left, right, epsilon, 2.0)
            arrays = np.zeros((left.shape[0], right.shape[0]), dtype=bool)
            arrays[rows, cols] = True
            cascade = _cascade_decisions(left, right, epsilon)
            expected = _refined(left, right, epsilon)
        return arrays, cascade, expected, panels

    @pytest.mark.parametrize("scale", [1e150, 1e154, 1e155])
    def test_huge_values_on_both_sides(self, rng, scale, monkeypatch):
        right = (10.0 + rng.normal(size=(30, 3)).cumsum(axis=1)) * scale
        left = right[:12] * (1.0 + rng.normal(scale=0.01, size=(12, 3)))
        epsilon = 0.05 * scale
        arrays, cascade, expected, panels = self._decisions(
            left, right, epsilon, monkeypatch
        )
        assert expected.any()
        assert np.array_equal(arrays, expected)
        assert np.array_equal(cascade, expected)
        assert bool(panels) == (scale == 1e150)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("scale", [1e150, 1e154, 1e155])
    def test_huge_values_on_one_side(self, rng, side, scale, monkeypatch):
        right = 10.0 + rng.normal(size=(30, 3)).cumsum(axis=1)
        left = right[:12] + rng.normal(scale=0.05, size=(12, 3))
        huge = (10.0 + rng.normal(size=(4, 3)).cumsum(axis=1)) * scale
        if side == "left":
            left = np.vstack([left, huge])
        else:
            right = np.vstack([right, huge])
        arrays, cascade, expected, panels = self._decisions(
            left, right, 0.3, monkeypatch
        )
        assert expected.any()
        assert not expected[12:].any() and not expected[:, 30:].any()
        assert np.array_equal(arrays, expected)
        assert np.array_equal(cascade, expected)
        assert bool(panels) == (scale == 1e150)

    def test_huge_epsilon(self, rng, monkeypatch):
        """ε² overflows: the difference form decides every cell."""
        left = rng.random((10, 2)) * 1e150
        right = rng.random((12, 2)) * 1e150
        arrays, cascade, expected, panels = self._decisions(
            left, right, 1e155, monkeypatch
        )
        assert expected.all()
        assert np.array_equal(arrays, expected)
        assert np.array_equal(cascade, expected)
        assert not panels


def _exact_square(values):
    return sum(Fraction(v) * Fraction(v) for v in values)


class TestGramRounding:
    """The bounds the derivation next to ``_GRAM_SLACK`` rests on, checked
    against exact rational arithmetic on the kernel's own values."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 60])
    @pytest.mark.parametrize("offset", [0.0, 0.5, 30.0, 1e6])
    def test_gram_error_within_the_margin(self, d, offset):
        rng = np.random.default_rng(d * 1000 + int(offset))
        left = offset + rng.normal(size=(5, d))
        # Near pairs (cancellation) and far ones.
        right = np.vstack([left + rng.normal(scale=1e-3, size=(5, d)),
                           offset + rng.normal(size=(3, d))])
        gram, margin = _gram_and_margin(left, right)
        slack = Fraction(SLACK)
        for i in range(left.shape[0]):
            for j in range(right.shape[0]):
                exact_d = sum(
                    (Fraction(a) - Fraction(b)) ** 2 for a, b in zip(left[i], right[j])
                )
                b = _exact_square(left[i]) + _exact_square(right[j])
                error = abs(Fraction(gram[i, j]) - exact_d)
                # (a): |G − D| ≤ (3d + 3)·u·B·(1 + 2⁻³¹) ≤ 0.376·m, and
                # the margin covers every cell: m ≥ s·B·(1 − 2⁻³²).
                assert error <= (3 * d + 3) * Fraction(UNIT) * b * (1 + Fraction(2) ** -31)
                assert Fraction(margin) >= slack * b * (1 - Fraction(2) ** -32)
                assert error <= Fraction(0.376) * Fraction(margin)

    @pytest.mark.parametrize("seed", range(5))
    def test_accept_bound_is_the_accept_test(self, seed):
        """``G <= _accept_bound(m, T)`` holds exactly where
        ``fl(G + m) <= T`` does."""
        rng = np.random.default_rng(seed)
        for _ in range(200):
            limit = float(rng.random() * 10.0 ** rng.integers(-12, 12))
            margin = float(rng.random() * 10.0 ** rng.integers(-20, 14))
            bound = kmink._accept_bound(margin, limit)
            assert bound + margin <= limit
            assert np.nextafter(bound, np.inf) + margin > limit


class TestSubnormalProducts:
    """Where a panel's squared norms are so small that its products are
    subnormal (their absolute error, up to 2⁻¹⁰⁷⁵, would outgrow a
    margin that underflows), the Gram value decides nothing for the
    panel: every cell takes the difference form, which the pair
    arrays, the cascade and the kernel must all agree with."""

    @staticmethod
    def _all_routes(left, right, epsilon):
        rows, cols = minkowski_pair_arrays(left, right, epsilon, 2.0)
        arrays = np.zeros((left.shape[0], right.shape[0]), dtype=bool)
        arrays[rows, cols] = True
        decisions, kept = _decide(left, right, epsilon)
        return arrays, _cascade_decisions(left, right, epsilon), decisions, kept

    @pytest.mark.parametrize("epsilon", [0.0, 3e-163])
    def test_tiny_values_on_both_sides(self, rng, epsilon):
        left = rng.random((20, 3)) * 1e-160
        right = left + rng.normal(scale=1e-163, size=left.shape)
        expected = _refined(left, right, epsilon)
        assert expected.any() and not expected.all()
        arrays, cascade, decisions, kept = self._all_routes(left, right, epsilon)
        assert kept == decisions.size  # the Gram value decided nothing
        assert np.array_equal(decisions, expected)
        assert np.array_equal(arrays, expected)
        assert np.array_equal(cascade, expected)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("epsilon", [0.0, 3e-163, 0.4])
    def test_tiny_values_on_one_side(self, rng, side, epsilon):
        """The other side's normal points keep the panel's margin
        normal, so the Gram value decides, and its margin keeps every
        tiny pair for the difference form."""
        tiny = rng.random((12, 3)) * 1e-160
        other = np.vstack([tiny + rng.normal(scale=1e-163, size=tiny.shape),
                           rng.random((10, 3))])
        left, right = (tiny, other) if side == "left" else (other, tiny)
        expected = _refined(left, right, epsilon)
        assert expected.any()
        arrays, cascade, decisions, kept = self._all_routes(left, right, epsilon)
        assert kept < decisions.size  # the Gram value rejected cells
        assert np.array_equal(decisions, expected)
        assert np.array_equal(arrays, expected)
        assert np.array_equal(cascade, expected)


class TestDifferenceFormMemory:
    """For p ≠ 2 the pair arrays evaluate the difference form a block of
    at most ``_BLOCK_CELL_BUDGET`` elements at a time: beyond the chunk's
    boolean decisions and the result, the peak stays under a module
    constant however wide the right side is.  NumPy reports its
    allocations to ``tracemalloc``."""

    @pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
    @pytest.mark.parametrize("width", [250, 3000])
    def test_peak_bounded_by_the_block_budget(self, rng, p, width):
        import tracemalloc

        left = rng.random((1024, 16))
        right = rng.random((width, 16))
        epsilon = {1.0: 3.0, 3.0: 0.75, np.inf: 0.3}[p]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows, cols = minkowski_pair_arrays(left, right, epsilon, p)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rows.shape[0] > 0, "calibration: some pairs join"
        decisions = left.shape[0] * width  # one chunk's booleans
        owned = decisions + 2 * (rows.nbytes + cols.nbytes)
        assert peak - owned < 3 * 8 * kmink._BLOCK_CELL_BUDGET
        # Same pairs, same row-major order as the whole difference tensor.
        truth = vector_pairs(left, right, epsilon, p, False)
        assert list(zip(rows.tolist(), cols.tolist())) == sorted(truth)
