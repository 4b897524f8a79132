"""Unit tests for edit distance."""

import pytest

from repro.distance.edit import edit_distance


def brute_levenshtein(s: str, t: str) -> int:
    """Textbook full-matrix DP for cross-checking."""
    n, m = len(s), len(t)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if s[i - 1] == t[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[n][m]


class TestEditDistance:
    @pytest.mark.parametrize(
        "s,t,expected",
        [
            ("", "", 0),
            ("A", "", 1),
            ("", "ACGT", 4),
            ("ACGT", "ACGT", 0),
            ("ACGT", "AGGT", 1),
            ("ACGT", "TGCA", 4),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
        ],
    )
    def test_known_values(self, s, t, expected):
        assert edit_distance(s, t) == expected

    def test_symmetry(self):
        assert edit_distance("ACCT", "AGT") == edit_distance("AGT", "ACCT")

    def test_matches_brute_force_randomised(self, rng):
        alphabet = "ACGT"
        for _ in range(60):
            s = "".join(alphabet[k] for k in rng.integers(0, 4, size=rng.integers(0, 12)))
            t = "".join(alphabet[k] for k in rng.integers(0, 4, size=rng.integers(0, 12)))
            assert edit_distance(s, t) == brute_levenshtein(s, t)


class TestBandedEarlyAbandon:
    def test_exact_when_within_bound(self):
        assert edit_distance("kitten", "sitting", max_dist=3) == 3

    def test_exceeding_bound_returns_sentinel(self):
        assert edit_distance("AAAA", "TTTT", max_dist=2) == 3  # max_dist + 1

    def test_length_gap_shortcut(self):
        assert edit_distance("A", "AAAAAA", max_dist=2) == 3

    def test_threshold_semantics_match_full_dp(self, rng):
        alphabet = "ACGT"
        for _ in range(60):
            s = "".join(alphabet[k] for k in rng.integers(0, 4, size=10))
            t = "".join(alphabet[k] for k in rng.integers(0, 4, size=10))
            true = brute_levenshtein(s, t)
            for limit in (0, 1, 2, 5):
                banded = edit_distance(s, t, max_dist=limit)
                assert (banded <= limit) == (true <= limit)
                if true <= limit:
                    assert banded == true
