"""Ablation: CC seed selection (Figure 8, steps 2-3a).

DESIGN.md design choice: CC seeds each cluster from the densest histogram
bucket.  Collapsing the histogram to a single bucket (seeding anywhere)
should not beat density-guided seeding — dense regions make dense,
buffer-efficient clusters (Theorem 2, observation 2).
"""

import pytest

from repro.core.costcluster import cost_clustering
from repro.core.sweep import build_prediction_matrix
from repro.experiments.figures import SPATIAL_EPSILON, lbeach_mcounty
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

BUFFER = 12


def _setup():
    r, s = lbeach_mcounty(0.25)
    matrix, _ = build_prediction_matrix(r.index, s.index, SPATIAL_EPSILON)
    disk = SimulatedDisk()
    pool = BufferPool(disk, BUFFER)
    pool.attach(r.paged)
    pool.attach(s.paged)
    r_id, s_id = r.paged.dataset_id, s.paged.dataset_id

    def page_cost(rows, cols):
        keys = {(r_id, row) for row in rows} | {(s_id, col) for col in cols}
        return disk.cost_of_read_set(keys)

    return matrix, page_cost


@pytest.mark.parametrize("bins", [1, 32])
def test_cc_seeding(benchmark, bins):
    matrix, page_cost = _setup()
    clusters, stats = benchmark.pedantic(
        lambda: cost_clustering(matrix, BUFFER, page_cost, histogram_bins=bins),
        rounds=1, iterations=1,
    )
    total_cost = sum(page_cost(c.rows, c.cols) for c in clusters)
    print(f"\nhistogram bins={bins}: clusters={len(clusters)}, "
          f"summed read cost={total_cost:.3f}s, expansions={stats.expansion_steps}")


def test_density_seeding_not_worse():
    matrix, page_cost = _setup()
    cost_by_bins = {}
    for bins in (1, 32):
        clusters, _ = cost_clustering(matrix, BUFFER, page_cost, histogram_bins=bins)
        cost_by_bins[bins] = sum(page_cost(c.rows, c.cols) for c in clusters)
    assert cost_by_bins[32] <= cost_by_bins[1] * 1.10
