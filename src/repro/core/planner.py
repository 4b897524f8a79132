"""Join planning: pick a method from predicted costs, partition for shards.

A small optimizer on top of :mod:`repro.core.analysis`: build the
prediction matrix once (cheap — index MBRs only), predict each
technique's page reads analytically, convert to simulated seconds under
the active cost model, and recommend the cheapest plan.  This is the
"query planner" a system embedding the paper's techniques would run.

The module also hosts the **shard planner** (:class:`ShardPlan` /
:func:`plan_shards`): given the scheduled cluster list, split it into
``k`` shard-local cluster sets for the process-parallel executor.  The
balancing follows McCauley & Silvestri's adaptive similarity join — no
shard may receive a super-constant share of the comparison work — but
where their MapReduce setting must *sample* the input to estimate load,
our prediction matrix already carries the exact per-cluster workload:
each marked entry ``(row, col)`` costs ``|row| × |col|`` object
comparisons (the CSR work matrix's cell counts), so shards are balanced
on the true refine work, not an estimate.  Page affinity (the sharing
graph's page-overlap signal, :func:`repro.core.schedule.cluster_page_codes`)
breaks ties so clusters touching the same pages land on the same shard,
minimising cross-shard page duplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.analysis import (
    predict_clustered_reads,
    predict_nlj_reads,
    predict_pm_nlj_reads,
)
from repro.core.clusters import Cluster
from repro.core.join import IndexedDataset
from repro.core.schedule import cluster_page_codes, greedy_cluster_order
from repro.core.square import square_clustering
from repro.core.sweep import build_prediction_matrix
from repro.costmodel import DEFAULT_COST_MODEL, CostModel

__all__ = ["JoinPlan", "plan_join", "ShardPlan", "plan_shards"]


@dataclass(frozen=True)
class JoinPlan:
    """The planner's verdict."""

    recommended: str
    predicted_reads: Dict[str, int]
    predicted_io_seconds: Dict[str, float]
    matrix_density: float
    marked_entries: int

    def describe(self) -> str:
        ranking = sorted(self.predicted_io_seconds.items(), key=lambda kv: kv[1])
        parts = ", ".join(f"{m}={s:.3f}s" for m, s in ranking)
        return (
            f"recommend {self.recommended} "
            f"(density {self.matrix_density:.3f}; predicted I/O: {parts})"
        )


def plan_join(
    r: IndexedDataset,
    s: IndexedDataset,
    epsilon: float,
    buffer_pages: int,
    cost_model: Optional[CostModel] = None,
    max_filter_rounds: int = 5,
) -> JoinPlan:
    """Predict NLJ / pm-NLJ / SC page reads and recommend a method.

    The prediction matrix and SC clustering are computed for real (they
    are the cheap, in-memory part); no data page is touched.  Predicted
    reads convert to seconds assuming the measured mix of seeks — NLJ
    reads are charged as sequential scans, the others with a conservative
    one-seek-per-three-pages random mix.
    """
    model = cost_model or DEFAULT_COST_MODEL
    self_join = r is s
    matrix, _stats = build_prediction_matrix(
        r.index, s.index, epsilon, max_filter_rounds=max_filter_rounds
    )
    if self_join:
        matrix.keep_upper_triangle()

    predictions = {
        "nlj": predict_nlj_reads(r.num_pages, s.num_pages, max(buffer_pages, 3)),
        "pm-nlj": predict_pm_nlj_reads(matrix, buffer_pages, self_join=self_join),
    }
    clusters, _ = square_clustering(matrix, buffer_pages)
    ordered = greedy_cluster_order(
        clusters, r.paged.dataset_id, s.paged.dataset_id
    )
    predictions["sc"] = predict_clustered_reads(
        ordered, r.paged.dataset_id, s.paged.dataset_id
    )

    reads = {m: p.page_reads for m, p in predictions.items()}
    io_seconds = {
        "nlj": model.io_cost(reads["nlj"], seeks=max(1, reads["nlj"] // buffer_pages)),
        "pm-nlj": model.io_cost(reads["pm-nlj"], seeks=max(1, reads["pm-nlj"] // 3)),
        "sc": model.io_cost(reads["sc"], seeks=max(1, reads["sc"] // 3)),
    }
    recommended = min(io_seconds, key=io_seconds.__getitem__)
    return JoinPlan(
        recommended=recommended,
        predicted_reads=reads,
        predicted_io_seconds=io_seconds,
        matrix_density=matrix.density(),
        marked_entries=matrix.num_marked,
    )


# -- shard planning ----------------------------------------------------------------

@dataclass(frozen=True)
class ShardPlan:
    """A partition of the scheduled cluster list into shard-local sets.

    ``strategy`` names how the partition was made (``"affinity"`` for
    :func:`plan_shards`) and labels the EXPLAIN artifact's shard
    section.  ``shards[k]`` holds the *schedule indices* (positions in
    the ordered cluster list, ascending) assigned to shard ``k`` —
    within a shard clusters keep their schedule order, so each worker
    still walks its clusters in sharing-graph order.  ``costs[k]`` is
    the shard's summed estimated refine work in object comparisons
    (exact work-matrix cell counts); ``duplicated_pages`` counts page
    slots present on more than one shard
    (``Σ_k |pages(shard_k)| − |∪_k pages(shard_k)|``), the price of
    splitting the schedule.

    Any hand-built ``ShardPlan`` (e.g. a random partition in a property
    test) is accepted by the sharded executor after :meth:`validate`.
    """

    strategy: str
    shards: Tuple[Tuple[int, ...], ...]
    costs: Tuple[int, ...]
    duplicated_pages: int

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self) -> Dict[int, int]:
        """Schedule index → shard index for every assigned cluster."""
        return {
            index: shard
            for shard, members in enumerate(self.shards)
            for index in members
        }

    def validate(self, num_clusters: int) -> None:
        """Raise ``ValueError`` unless this is a partition of the schedule."""
        seen: List[int] = []
        for members in self.shards:
            if any(members[i] >= members[i + 1] for i in range(len(members) - 1)):
                raise ValueError(
                    "shard members must be ascending schedule indices, "
                    f"got {members}"
                )
            seen.extend(members)
        if sorted(seen) != list(range(num_clusters)):
            raise ValueError(
                f"shard plan must partition schedule indices 0..{num_clusters - 1}; "
                f"covers {sorted(seen)}"
            )
        if len(self.costs) != len(self.shards):
            raise ValueError("one cost per shard required")


def plan_shards(
    ordered_clusters: Sequence[Cluster],
    r_dataset,
    s_dataset,
    workers: int,
) -> ShardPlan:
    """Split the scheduled clusters into at most ``workers`` shard sets.

    The ``"affinity"`` plan: a longest-processing-time greedy on the
    exact per-cluster cell counts, with a page-affinity tie-break:
    among shards whose load is within slack of the minimum, the cluster
    goes to the one sharing the most pages with it.  It balances refine
    work first, duplication second.  Other partitions reach the sharded
    executor as hand-built :class:`ShardPlan` objects.

    Shards that would be empty are dropped, so ``num_shards`` can be
    less than ``workers`` when there are few clusters.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    num = len(ordered_clusters)
    k = min(workers, num)
    costs = _cluster_costs(ordered_clusters, r_dataset, s_dataset)
    self_join = r_dataset.dataset_id == s_dataset.dataset_id
    page_sets = [
        set(cluster_page_codes(cluster, self_join).tolist())
        for cluster in ordered_clusters
    ]
    if num == 0:
        return ShardPlan(strategy="affinity", shards=(), costs=(), duplicated_pages=0)
    assign = _affinity_assign(costs, page_sets, k)
    members = tuple(
        tuple(sorted(shard)) for shard in assign if shard
    )
    shard_costs = tuple(int(costs[list(shard)].sum()) for shard in members)
    shard_pages = [
        set().union(*(page_sets[i] for i in shard)) for shard in members
    ]
    union_pages = set().union(*shard_pages) if shard_pages else set()
    duplicated = sum(len(p) for p in shard_pages) - len(union_pages)
    return ShardPlan(
        strategy="affinity",
        shards=members,
        costs=shard_costs,
        duplicated_pages=duplicated,
    )


def _cluster_costs(
    ordered_clusters: Sequence[Cluster], r_dataset, s_dataset
) -> np.ndarray:
    """Exact refine work per cluster: Σ marked-entry ``|row| × |col|`` cells."""
    r_counts = np.asarray(
        [r_dataset.object_count(p) for p in range(r_dataset.num_pages)],
        dtype=np.int64,
    )
    s_counts = np.asarray(
        [s_dataset.object_count(p) for p in range(s_dataset.num_pages)],
        dtype=np.int64,
    )
    costs = np.empty(len(ordered_clusters), dtype=np.int64)
    for i, cluster in enumerate(ordered_clusters):
        entries = np.asarray(cluster.entries, dtype=np.int64).reshape(-1, 2)
        costs[i] = int((r_counts[entries[:, 0]] * s_counts[entries[:, 1]]).sum())
    return costs


def _affinity_assign(
    costs: np.ndarray, page_sets: List[set], k: int
) -> List[List[int]]:
    """LPT greedy with a page-affinity tie-break inside the load slack."""
    order = np.argsort(-costs, kind="stable")
    loads = [0] * k
    pages: List[set] = [set() for _ in range(k)]
    assign: List[List[int]] = [[] for _ in range(k)]
    # Slack: shards within a quarter of the ideal per-shard load of the
    # current minimum are "balanced enough" for affinity to decide.
    slack = max(1.0, float(costs.sum()) / (4.0 * k))
    for idx in order.tolist():
        min_load = min(loads)
        eligible = [s for s in range(k) if loads[s] <= min_load + slack]
        best = max(
            eligible,
            key=lambda s: (len(pages[s] & page_sets[idx]), -loads[s], -s),
        )
        assign[best].append(idx)
        loads[best] += int(costs[idx])
        pages[best] |= page_sets[idx]
    return assign
