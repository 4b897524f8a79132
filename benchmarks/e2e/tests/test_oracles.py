import numpy as np
import pytest

import oracles


def _brute_l2(left, right, eps):
    d = np.sqrt(((left[:, None, :] - right[None, :, :]) ** 2).sum(axis=2))
    return np.argwhere(d <= eps)


def _planted_variants(truth, width):
    """The true pairs with one dropped, and with one bogus pair added."""
    dropped = truth[1:]
    taken = {tuple(p) for p in truth.tolist()}
    bogus = next((a, b) for a in range(width) for b in range(width) if (a, b) not in taken)
    extra = np.vstack([truth, np.asarray([bogus])])
    return dropped, extra


class TestL2:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.left = rng.random((300, 2))
        self.right = rng.random((250, 2))
        self.eps = 0.05
        self.truth = _brute_l2(self.left, self.right, self.eps)
        assert len(self.truth) > 20

    def test_exact_pairs_pass_in_any_order(self):
        shuffled = self.truth[::-1]
        check = oracles.check_l2_pairs(self.left, self.right, shuffled, self.eps)
        assert check.ok, check.detail

    def test_planted_dropped_and_extra_pairs_fail(self):
        dropped, extra = _planted_variants(self.truth, 250)
        assert not oracles.check_l2_pairs(self.left, self.right, dropped, self.eps).ok
        assert not oracles.check_l2_pairs(self.left, self.right, extra, self.eps).ok

    def test_duplicates_fail(self):
        doubled = np.vstack([self.truth, self.truth[:1]])
        assert not oracles.check_l2_pairs(self.left, self.right, doubled, self.eps).ok

    def test_boundary_pairs_may_go_either_way(self):
        left = np.array([[0.0, 0.0]])
        right = np.array([[0.3, 0.4], [0.9, 0.9]])  # first one at exactly 0.5
        for reported in ([], [(0, 0)]):
            assert oracles.check_l2_pairs(left, right, reported, 0.5).ok
        assert oracles.count_l2_pairs(left, right, 0.5) == (0, 1)

    def test_count_matches_brute_force(self):
        lo, hi = oracles.count_l2_pairs(self.left, self.right, self.eps)
        assert lo <= len(self.truth) <= hi


def _brute_hamming1(text, w):
    wins = np.frombuffer(text.encode(), dtype=np.uint8)
    wins = np.lib.stride_tricks.sliding_window_view(wins, w)
    out = []
    for i in range(wins.shape[0]):
        d = np.count_nonzero(wins[i + 1 :] != wins[i], axis=1)
        out += [(i, i + 1 + j) for j in np.flatnonzero(d <= 1)]
    return np.asarray(out, dtype=np.int64).reshape(-1, 2)


class TestText:
    def setup_method(self):
        rng = np.random.default_rng(5)
        unit = "".join(rng.choice(list("ACGT"), size=24))
        noise = lambda n: "".join(rng.choice(list("ACGT"), size=n))  # noqa: E731
        mutated = unit[:10] + ("A" if unit[10] != "A" else "C") + unit[11:]
        self.text = noise(40) + unit + noise(30) + mutated + noise(20) + unit + noise(10)
        self.w = 24
        self.truth = _brute_hamming1(self.text, self.w)
        assert len(self.truth) >= 3

    def test_pigeonhole_index_equals_brute_force(self):
        assert oracles.hamming1_pairs(self.text, self.w).tolist() == self.truth.tolist()

    def test_exact_pairs_pass(self):
        check = oracles.check_text_self_join(self.text, self.w, self.truth)
        assert check.ok, check.detail

    def test_planted_dropped_and_extra_pairs_fail(self):
        dropped, extra = _planted_variants(self.truth, len(self.text) - self.w + 1)
        assert not oracles.check_text_self_join(self.text, self.w, dropped).ok
        assert not oracles.check_text_self_join(self.text, self.w, extra).ok


class TestDTW:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.a = np.cumsum(rng.normal(size=120))
        self.b = self.a[::-1].copy() + rng.normal(scale=0.05, size=120)
        self.b[40:70] = self.a[10:40] + 0.01
        self.w, self.band, self.eps = 12, 2, 0.6
        left = np.lib.stride_tricks.sliding_window_view(self.a, self.w)
        right = np.lib.stride_tricks.sliding_window_view(self.b, self.w)
        from repro.distance.dtw import dtw_distance

        self.dist = np.array(
            [[dtw_distance(x, y, self.band) for y in right] for x in left]
        )
        self.truth = np.argwhere(self.dist <= self.eps)
        assert len(self.truth) > 3

    def test_vectorised_dtw_matches_the_scalar_definition(self):
        left = np.lib.stride_tricks.sliding_window_view(self.a, self.w)
        right = np.lib.stride_tricks.sliding_window_view(self.b, self.w)
        got = oracles.banded_dtw(np.repeat(left[:5], right.shape[0], axis=0),
                                 np.tile(right, (5, 1)), self.band)
        assert got == pytest.approx(self.dist[:5].reshape(-1), rel=1e-12)

    def test_exact_pairs_pass(self):
        rows = sorted({int(r) for r in self.truth[:, 0]})[:4]
        check = oracles.check_dtw_pairs(
            self.a, self.b, self.w, self.band, self.truth, self.eps, rows
        )
        assert check.ok, check.detail

    def test_planted_dropped_pair_fails_in_a_sampled_row(self):
        dropped = self.truth[1:]
        row = int(self.truth[0, 0])
        check = oracles.check_dtw_pairs(
            self.a, self.b, self.w, self.band, dropped, self.eps, [row]
        )
        assert not check.ok

    def test_planted_extra_pair_fails_anywhere(self):
        far = np.unravel_index(np.argmax(self.dist), self.dist.shape)
        extra = np.vstack([self.truth, np.asarray([far])])
        check = oracles.check_dtw_pairs(
            self.a, self.b, self.w, self.band, extra, self.eps, []
        )
        assert not check.ok


class TestPrefilter:
    def test_subset_with_enough_recall_passes(self):
        ref = np.array([(i, i) for i in range(200)])
        check, recall = oracles.check_prefilter(ref, ref[1:], 1000, 0.99)
        assert check.ok and recall == pytest.approx(0.995)

    def test_low_recall_and_foreign_pairs_fail(self):
        ref = np.array([(i, i) for i in range(200)])
        assert not oracles.check_prefilter(ref, ref[5:], 1000, 0.99)[0].ok
        foreign = np.vstack([ref, [[3, 4]]])
        assert not oracles.check_prefilter(ref, foreign, 1000, 0.99)[0].ok
