"""Ablation: cluster processing order (Section 8).

DESIGN.md design choice: the sharing-graph greedy schedule vs a seeded
random order vs plain construction order.  Lemma 4 says the savings equal
the consecutive shared-page counts, so the greedy order should read the
fewest pages.
"""

import numpy as np

from repro.core.executor import execute_clusters
from repro.core.join import join
from repro.core.schedule import greedy_cluster_order, schedule_savings
from repro.core.square import square_clustering
from repro.core.sweep import build_prediction_matrix
from repro.experiments.figures import SPATIAL_EPSILON, lbeach_mcounty
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests.oracles.joiners import NoopJoiner

BUFFER = 12


def _orders():
    r, s = lbeach_mcounty(0.25)
    matrix, _ = build_prediction_matrix(r.index, s.index, SPATIAL_EPSILON)
    clusters, _ = square_clustering(matrix, BUFFER)
    r_id, s_id = r.paged.dataset_id, s.paged.dataset_id
    rng = np.random.default_rng(0)
    return r, s, {
        "greedy": greedy_cluster_order(clusters, r_id, s_id),
        "random": [clusters[k] for k in rng.permutation(len(clusters))],
        "construction": list(clusters),
    }


def _pages_read(r, s, ordered):
    disk = SimulatedDisk()
    pool = BufferPool(disk, BUFFER)
    outcome = execute_clusters(ordered, pool, r.paged, s.paged, NoopJoiner())
    return outcome.pages_read, disk.stats.io_seconds


def test_cluster_order_ablation(benchmark):
    r, s, orders = benchmark.pedantic(_orders, rounds=1, iterations=1)
    measured = {}
    for name, ordered in orders.items():
        reads, io_seconds = _pages_read(r, s, ordered)
        savings = schedule_savings(ordered, r.paged.dataset_id, s.paged.dataset_id)
        measured[name] = reads
        print(f"\norder={name}: pages read={reads}, io={io_seconds:.3f}s, "
              f"lemma-4 savings={savings}")
    assert measured["greedy"] <= measured["random"]
    assert measured["greedy"] <= measured["construction"]


def test_lemma4_savings_match_measured_reuse():
    """Lemma 4: pages saved == sum of consecutive shared-page weights."""
    r, s, orders = _orders()
    ordered = orders["greedy"]
    total_pages = sum(c.num_pages for c in ordered)
    reads, _ = _pages_read(r, s, ordered)
    savings = schedule_savings(ordered, r.paged.dataset_id, s.paged.dataset_id)
    # Measured reuse can only exceed Lemma 4's (consecutive-only) bound.
    assert total_pages - reads >= savings
