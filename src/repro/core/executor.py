"""Cluster execution: batched reads with cache reuse, in-memory joins.

For each cluster in schedule order (Section 8):

1. its pages are brought into the buffer with optimally scheduled reads —
   pages retained from the previous cluster are reused, not re-read — and
   pinned for the duration (:meth:`~repro.storage.buffer.BufferPool.pinned`);
2. every marked entry of the cluster is joined entirely in memory (its two
   pages are guaranteed resident because ``r + c <= B``) by one fused
   cascade over the datasets' columnar page views
   (:meth:`~repro.core.joiners.PagePairJoiner.join_cluster` — one filter
   kernel call and one refine kernel call per cluster).

The joiner reads objects through the page views, never through the
buffer pool, so step 1 is pure accounting: it also replays one fetch per
entry side, the buffer hits a join of each page pair from the pool would
score.  Where the joins run therefore never changes a simulated counter.

Parallel execution runs in worker *processes*
(:func:`execute_clusters_sharded`), with the same results and
accounting as the serial loop: the scheduled cluster list is
partitioned into shard-local sets
(:func:`repro.core.planner.plan_shards`), the datasets' backing arrays
are published once per join through shared memory
(:mod:`repro.storage.shm`) and the workers of the process's warm pool
(:func:`repro.core.sharding.shard_pool`) run the shards' cluster
cascades against zero-copy views with their own recorders, while the
parent replays the pool/disk accounting in full serial schedule order.
Workers return each cluster's
:class:`~repro.core.joiners.ClusterResult` — pair
arrays, about 16 bytes per pair through the pipe — and the parent
absorbs them in schedule order.  Counters, audits and the merged pairs
are therefore bit-identical to serial; per-shard staging deltas
are additionally attributed to ``executor.shard.<k>.*`` counters whose
sums equal the serial totals exactly.  See ``docs/execution_modes.md``.

Both paths fold results through :meth:`ExecutionOutcome.absorb`, which
keeps each cluster's pair array; :attr:`ExecutionOutcome.pairs`
concatenates them once into the one int64 array behind the
:class:`~repro.core.pairs.ResultPairs` that ``JoinResult.pairs`` holds.
No Python object is built per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.clusters import Cluster
from repro.core.joiners import ClusterResult, PagePairJoiner
from repro.core.pairs import ResultPairs
from repro.obs.audit import LemmaAuditor
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.storage.buffer import BufferPool
from repro.storage.page import PagedDataset

if TYPE_CHECKING:
    from repro.core.planner import ShardPlan

__all__ = [
    "execute_clusters",
    "execute_clusters_sharded",
    "ExecutionOutcome",
]

_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


@dataclass(eq=False)
class ExecutionOutcome:
    """What the executor measured."""

    num_pairs: int = 0
    comparisons: int = 0
    cpu_seconds: float = 0.0
    pages_read: int = 0
    pages_reused: int = 0
    _blocks: List[np.ndarray] = field(default_factory=list, repr=False)

    @property
    def pairs(self) -> ResultPairs:
        """Every absorbed pair, in absorb order, in one new array."""
        return ResultPairs(np.concatenate([_NO_PAIRS, *self._blocks]))

    def absorb(self, result: ClusterResult) -> None:
        """Fold one cluster's result into the running totals.

        Keeps its pair array for :attr:`pairs` to concatenate.
        ``cpu_seconds`` adds the per-entry floats one at a time, in entry
        order: ``np.add.accumulate`` seeded with the running total adds
        sequentially, as a ``+=`` loop would (``np.sum`` would add
        pairwise and round differently).
        """
        if result.pairs.shape[0]:
            self._blocks.append(result.pairs)
        self.num_pairs += int(result.counts.sum())
        self.comparisons += int(result.comparisons.sum())
        running = np.add.accumulate(np.concatenate(([self.cpu_seconds], result.cpu)))
        self.cpu_seconds = float(running[-1])


def execute_clusters(
    ordered_clusters: Sequence[Cluster],
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    joiner: PagePairJoiner,
    recorder: Recorder = NULL_RECORDER,
    auditor: Optional[LemmaAuditor] = None,
) -> ExecutionOutcome:
    """Process clusters serially in the given order; returns the outcome.

    ``auditor`` overrides the Lemma auditor (the EXPLAIN layer passes a
    record-keeping one so per-cluster bound/observed rows survive the
    run); by default one is created whenever the recorder records.

    With a recording ``recorder``, each cluster is additionally audited
    against the paper's Lemma 1/2 read bounds: the disk-transfer delta
    observed while staging and joining the cluster must not exceed
    ``min(e + min(r, c), r + c)`` (see :class:`~repro.obs.audit.LemmaAuditor`).

    Works with any joiner that has a ``join_cluster(entries)`` method;
    for process-level parallelism use :func:`execute_clusters_sharded`.

    Raises ``ValueError`` if any cluster does not fit the pool's available
    frames (Lemma 2's precondition — clustering must have enforced it).
    """
    pool.attach(r_dataset)
    pool.attach(s_dataset)
    outcome = ExecutionOutcome()
    r_id = r_dataset.dataset_id
    s_id = s_dataset.dataset_id
    if auditor is None and recorder.enabled:
        auditor = LemmaAuditor(recorder)
    disk_stats = pool.disk.stats
    for index, cluster in enumerate(ordered_clusters):
        transfers_before = disk_stats.transfers
        with recorder.span("execute.cluster"):
            _stage_cluster_pinned(cluster, pool, r_id, s_id, outcome)
            outcome.absorb(joiner.join_cluster(cluster.entries))
        if auditor is not None:
            auditor.check_cluster(
                cluster, disk_stats.transfers - transfers_before, index
            )
    _count_executor_totals(recorder, outcome, len(ordered_clusters))
    return outcome


def execute_clusters_sharded(
    ordered_clusters: Sequence[Cluster],
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    joiner: PagePairJoiner,
    workers: int = 2,
    recorder: Recorder = NULL_RECORDER,
    plan: Optional[ShardPlan] = None,
    auditor: Optional[LemmaAuditor] = None,
    explain=None,
) -> ExecutionOutcome:
    """Process clusters with per-shard worker *processes*; same outcome.

    The schedule is partitioned into at most ``workers`` shard-local
    cluster sets by :func:`repro.core.planner.plan_shards`, unless
    ``plan`` hands over a ready :class:`~repro.core.planner.ShardPlan`
    (property tests inject arbitrary partitions this way).  The shards
    run as tasks on the process's warm pool (``os.cpu_count()`` workers,
    reused by every sharded join; see
    :func:`repro.core.sharding.shard_pool`).  Workers rebuild the
    datasets from shared memory and run the join cascades;
    the parent replays **all** simulated I/O (staging, buffer hits,
    Lemma audits) serially in global schedule order while they compute,
    then absorbs the per-cluster pair arrays they return in schedule
    order.  The outcome — pairs included — and every simulated
    counter are bit-identical to :func:`execute_clusters`; per-shard
    staging deltas are counted under ``executor.shard.<k>.pages_read``
    / ``.pages_reused`` (their sums equal the serial totals by
    construction — see
    ``repro.obs.recorder.SHARDING_VARIANT_COUNTER_PREFIXES``).

    Runs the serial loop when shared memory is unavailable on the
    platform.  Raises ``ValueError`` for joiners without a picklable
    shard recipe (custom joiners — run those with
    :func:`execute_clusters`) and ``RuntimeError`` when a worker process
    dies (the broken pool is dropped, and the next sharded join starts a
    fresh one).  Whatever raises, the join's shards are cancelled or
    finished before its shared segments are unlinked.
    """
    from repro.core.sharding import (
        build_shard_task,
        discard_shard_pool,
        resolve_start_method,
        run_shard,
        shard_pool,
        shardable_joiner,
        share_datasets,
    )
    from repro.storage.shm import ShmArena, shm_available

    if not shardable_joiner(joiner):
        raise ValueError(
            f"joiner {type(joiner).__name__} cannot be shipped to "
            "shard processes; run it serially with execute_clusters instead"
        )
    if not shm_available():  # pragma: no cover - platform without shm
        return execute_clusters(
            ordered_clusters, pool, r_dataset, s_dataset, joiner,
            recorder=recorder, auditor=auditor,
        )
    # Lazy import: planner imports core.join, which imports this module.
    from repro.core.planner import plan_shards

    if plan is None:
        plan = plan_shards(ordered_clusters, r_dataset, s_dataset, workers)
    else:
        plan.validate(len(ordered_clusters))
    if explain is not None:
        explain.snapshot_shards(plan)

    pool.attach(r_dataset)
    pool.attach(s_dataset)
    outcome = ExecutionOutcome()
    r_id = r_dataset.dataset_id
    s_id = s_dataset.dataset_id
    if not ordered_clusters:
        _count_executor_totals(recorder, outcome, 0)
        return outcome

    start_method = resolve_start_method()
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    shard_of = plan.shard_of()
    shard_reads = [0] * plan.num_shards
    shard_reused = [0] * plan.num_shards
    if auditor is None and recorder.enabled:
        auditor = LemmaAuditor(recorder)
    disk_stats = pool.disk.stats
    shard_payloads: List[Dict] = []
    with ShmArena() as arena:
        r_spec, s_spec = share_datasets(r_dataset, s_dataset, arena)
        tasks = [
            build_shard_task(
                shard_index,
                [(i, ordered_clusters[i].entries) for i in members],
                r_spec,
                s_spec,
                joiner,
                arena,
                recorder.enabled,
            )
            for shard_index, members in enumerate(plan.shards)
        ]
        process_pool = shard_pool(start_method)
        futures = []
        try:
            for task in tasks:
                futures.append(process_pool.submit(run_shard, task))
            # While the workers compute, the parent replays the complete
            # simulated I/O of the serial run — staging, per-entry fetch
            # replay, Lemma audits — in global schedule order: joiners
            # read data through columnar views, never the pool, so
            # accounting and computation commute.
            for index, cluster in enumerate(ordered_clusters):
                transfers_before = disk_stats.transfers
                reads_before = outcome.pages_read
                reused_before = outcome.pages_reused
                with recorder.span("execute.cluster"):
                    _stage_cluster_pinned(cluster, pool, r_id, s_id, outcome)
                if auditor is not None:
                    auditor.check_cluster(
                        cluster, disk_stats.transfers - transfers_before, index
                    )
                shard = shard_of[index]
                shard_reads[shard] += outcome.pages_read - reads_before
                shard_reused[shard] += outcome.pages_reused - reused_before
            for future in futures:
                shard_payloads.append(future.result())
        except BrokenProcessPool as exc:
            discard_shard_pool(process_pool)
            raise RuntimeError(
                "a shard worker died before returning results (its process "
                "exited abnormally); the worker pool is replaced at the "
                "next sharded join and shared memory has been reclaimed "
                "by the parent"
            ) from exc
        finally:
            # No task of this join may outlive its segments: drop the
            # queued ones, wait for the running ones.
            for future in futures:
                future.cancel()
            wait(futures)

    # Deterministic merge: worker recorders fold in shard order, results
    # absorb in global schedule order — the serial pairs exactly.  The
    # outcome keeps each pair array until ``pairs`` concatenates them.
    results_by_index: Dict[int, ClusterResult] = {}
    shard_walls = [0.0] * plan.num_shards
    for payload in shard_payloads:
        shard_index = payload["shard_index"]
        if recorder.enabled and payload["metrics"] is not None:
            recorder.merge(
                payload["metrics"],
                span_attrs={"shard": shard_index, "worker_pid": payload["pid"]},
            )
        results_by_index.update(payload.pop("results"))
        shard_walls[shard_index] = payload.get("wall_seconds", 0.0)
    shard_cells = [0] * plan.num_shards
    for index in range(len(ordered_clusters)):
        result = results_by_index.pop(index)
        shard_cells[shard_of[index]] += int(result.comparisons.sum())
        outcome.absorb(result)
    if explain is not None:
        explain.observe_shards(shard_cells, shard_walls)

    recorder.count("executor.shards", plan.num_shards)
    recorder.count("executor.shard.duplicated_pages", plan.duplicated_pages)
    for shard_index in range(plan.num_shards):
        recorder.count(
            f"executor.shard.{shard_index}.clusters", len(plan.shards[shard_index])
        )
        recorder.count(
            f"executor.shard.{shard_index}.pages_read", shard_reads[shard_index]
        )
        recorder.count(
            f"executor.shard.{shard_index}.pages_reused", shard_reused[shard_index]
        )
    _count_executor_totals(recorder, outcome, len(ordered_clusters))
    return outcome


def _count_executor_totals(
    recorder: Recorder, outcome: ExecutionOutcome, num_clusters: int
) -> None:
    recorder.count("executor.clusters", num_clusters)
    recorder.count("executor.pages_read", outcome.pages_read)
    recorder.count("executor.pages_reused", outcome.pages_reused)


def _stage_cluster_pinned(
    cluster: Cluster,
    pool: BufferPool,
    r_id,
    s_id,
    outcome: ExecutionOutcome,
) -> None:
    """Batched, pin-scoped load of a cluster's page set, with reuse accounting.

    The pins are insurance against non-LRU victim choices (see
    :meth:`~repro.storage.buffer.BufferPool.pinned`).  The per-entry fetch
    replay that follows scores the buffer hits of reading each entry's
    two pages from the pool: the joiner reads them through the columnar
    page views instead, and the replay keeps hit counts and replacement
    state what the paper's per-page-pair execution defines.
    """
    wanted = sorted(cluster.page_keys(r_id, s_id))
    with pool.pinned(wanted) as staged:
        outcome.pages_read += len(staged.missing)
        outcome.pages_reused += len(wanted) - len(staged.missing)
        for row, col in cluster.entries:
            pool.fetch(r_id, row)
            pool.fetch(s_id, col)

