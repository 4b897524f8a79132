"""Ablation: iterative-filter depth (Section 5.1).

DESIGN.md design choice: the paper's filter iterates to a fixed point
(capped at K = 5) and claims strict improvement over Brinkhoff et al.'s
single intersection filter (K = 1 here) and over no filtering at all
(K = 0).  The win shows up as fewer intersection tests during the plane
sweep; the marked entries must be identical in all variants.
"""

import pytest

from repro.core.sweep import build_prediction_matrix
from repro.experiments.figures import SPATIAL_EPSILON, lbeach_mcounty


@pytest.mark.parametrize("rounds", [0, 1, 5])
def test_filter_depth(benchmark, rounds):
    r, s = lbeach_mcounty(0.25)

    def build():
        return build_prediction_matrix(
            r.index, s.index, SPATIAL_EPSILON, max_filter_rounds=rounds,
        )

    matrix, stats = benchmark.pedantic(build, rounds=1, iterations=1)
    print(
        f"\nfilter rounds={rounds}: intersection tests={stats.intersection_tests}, "
        f"children filtered={stats.filtered_children}, marked={matrix.num_marked}"
    )


def test_filter_reduces_tests_without_changing_marks():
    r, s = lbeach_mcounty(0.25)
    outcomes = {}
    for rounds in (0, 1, 5):
        matrix, stats = build_prediction_matrix(
            r.index, s.index, SPATIAL_EPSILON, max_filter_rounds=rounds,
        )
        outcomes[rounds] = (matrix, stats.intersection_tests)
    # Same marks regardless of filtering (completeness is never traded).
    assert outcomes[0][0] == outcomes[1][0] == outcomes[5][0]
    # Deeper filtering never tests more pairs.
    assert outcomes[5][1] <= outcomes[1][1] <= outcomes[0][1]
