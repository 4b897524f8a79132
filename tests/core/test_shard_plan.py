"""Shard planner: the affinity plan partitions the schedule and balances.

The planner (ISSUE 6 tentpole, part a) splits the ordered cluster list
into ``k`` shard-local sets using exact work-matrix cell counts for
balance and sharing-graph page overlap to curb cross-shard duplication.
"""

import numpy as np
import pytest

from repro.core.clusters import Cluster
from repro.core.planner import ShardPlan, plan_shards
from repro.storage.page import VectorPagedDataset


@pytest.fixture
def datasets():
    r = VectorPagedDataset(
        np.arange(64, dtype=float).reshape(32, 2), objects_per_page=4, dataset_id="R"
    )
    s = VectorPagedDataset(
        np.arange(48, dtype=float).reshape(24, 2), objects_per_page=4, dataset_id="S"
    )
    return r, s


CLUSTERS = [
    Cluster(0, ((0, 0), (0, 1), (1, 0), (1, 1))),
    Cluster(1, ((2, 2),)),
    Cluster(2, ((3, 3), (4, 3))),
    Cluster(3, ((5, 4), (5, 5), (6, 5))),
    Cluster(4, ((7, 0),)),
    Cluster(5, ((2, 1), (3, 1))),
    Cluster(6, ((6, 2),)),
]


class TestPartitionInvariants:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 16])
    def test_exact_partition(self, datasets, workers):
        r, s = datasets
        plan = plan_shards(CLUSTERS, r, s, workers)
        plan.validate(len(CLUSTERS))
        covered = sorted(i for shard in plan.shards for i in shard)
        assert covered == list(range(len(CLUSTERS)))
        # No empty shards survive, so num_shards <= min(workers, clusters).
        assert 1 <= plan.num_shards <= min(workers, len(CLUSTERS))
        assert all(shard for shard in plan.shards)

    def test_members_ascend_within_shard(self, datasets):
        r, s = datasets
        plan = plan_shards(CLUSTERS, r, s, 3)
        for shard in plan.shards:
            assert list(shard) == sorted(shard)

    def test_single_worker_is_identity(self, datasets):
        r, s = datasets
        plan = plan_shards(CLUSTERS, r, s, 1)
        assert plan.shards == (tuple(range(len(CLUSTERS))),)
        assert plan.duplicated_pages == 0

    def test_empty_schedule(self, datasets):
        r, s = datasets
        plan = plan_shards([], r, s, 4)
        assert plan.shards == ()
        assert plan.costs == ()
        plan.validate(0)

    def test_deterministic(self, datasets):
        r, s = datasets
        a = plan_shards(CLUSTERS, r, s, 3)
        b = plan_shards(CLUSTERS, r, s, 3)
        assert a == b

    def test_rejects_bad_arguments(self, datasets):
        r, s = datasets
        with pytest.raises(ValueError):
            plan_shards(CLUSTERS, r, s, 0)


class TestCosts:
    def test_costs_sum_to_total(self, datasets):
        r, s = datasets

        def cluster_cost(cluster):
            return sum(
                r.object_count(row) * s.object_count(col)
                for row, col in cluster.entries
            )

        total = sum(cluster_cost(c) for c in CLUSTERS)
        plan = plan_shards(CLUSTERS, r, s, 3)
        assert sum(plan.costs) == total
        for shard, cost in zip(plan.shards, plan.costs):
            assert cost == sum(cluster_cost(CLUSTERS[i]) for i in shard)

    def test_affinity_no_worse_balance_than_roundrobin(self, datasets, rng):
        """LPT greedy keeps max shard load <= the modulo baseline's."""
        r = VectorPagedDataset(
            rng.random((128, 2)), objects_per_page=4, dataset_id="AR"
        )
        s = VectorPagedDataset(
            rng.random((96, 2)), objects_per_page=4, dataset_id="AS"
        )
        clusters = [
            Cluster(
                i,
                tuple(
                    (int(a), int(b))
                    for a, b in zip(
                        rng.integers(0, r.num_pages, size=n),
                        rng.integers(0, s.num_pages, size=n),
                    )
                ),
            )
            for i, n in enumerate(rng.integers(1, 8, size=20))
        ]
        affinity = plan_shards(clusters, r, s, 4)
        cost = [
            sum(r.object_count(row) * s.object_count(col) for row, col in c.entries)
            for c in clusters
        ]
        baseline = [sum(cost[i::4]) for i in range(4)]
        assert max(affinity.costs) <= max(baseline)


class TestDuplication:
    def test_duplicated_pages_formula(self, datasets):
        r, s = datasets
        from repro.core.schedule import cluster_page_codes

        plan = plan_shards(CLUSTERS, r, s, 3)
        shard_pages = [
            set().union(
                *(set(cluster_page_codes(CLUSTERS[i], False).tolist())
                  for i in shard)
            )
            for shard in plan.shards
        ]
        union = set().union(*shard_pages)
        assert plan.duplicated_pages == sum(map(len, shard_pages)) - len(union)


class TestValidate:
    def test_rejects_missing_index(self):
        plan = ShardPlan("chunk", ((0, 1), (3,)), (1, 1), 0)
        with pytest.raises(ValueError):
            plan.validate(4)

    def test_rejects_duplicate_index(self):
        plan = ShardPlan("chunk", ((0, 1), (1, 2)), (1, 1), 0)
        with pytest.raises(ValueError):
            plan.validate(3)

    def test_rejects_unsorted_members(self):
        plan = ShardPlan("chunk", ((1, 0),), (1,), 0)
        with pytest.raises(ValueError):
            plan.validate(2)

    def test_rejects_cost_arity_mismatch(self):
        plan = ShardPlan("chunk", ((0,), (1,)), (1,), 0)
        with pytest.raises(ValueError):
            plan.validate(2)

    def test_shard_of_inverts_shards(self):
        plan = ShardPlan("chunk", ((0, 2), (1, 3)), (5, 7), 0)
        assert plan.shard_of() == {0: 0, 2: 0, 1: 1, 3: 1}
