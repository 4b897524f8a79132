"""Cluster execution: batched reads with cache reuse, in-memory joins.

Execution has two independent halves (Sections 7–8 decide which pages
are resident and when — the simulated I/O — not how the in-memory joins
are batched):

1. **staging replay** — for each cluster in schedule order, its pages
   are brought into the buffer with optimally scheduled reads — pages
   retained from the previous cluster are reused, not re-read — and
   pinned (:meth:`~repro.storage.buffer.BufferPool.pinned`), one fetch
   per entry side is replayed, and the cluster's reads are audited
   against Lemma 1/2;
2. **one cascade** — every scheduled page pair is then joined entirely
   in memory by one call,
   :meth:`~repro.core.joiners.PagePairJoiner.join_cluster`, over the
   entries of all clusters concatenated in schedule order.  Its result
   lists each entry's pairs in entry order, so the pairs come out
   cluster by cluster, as a join per cluster would list them.

The joiner reads objects through the datasets' columnar page views,
never through the buffer pool, so step 1 is pure accounting: the
replayed fetches score the buffer hits a join of each page pair from
the pool would score.  Where and how the joins run therefore never
changes a simulated counter.

Parallel execution runs in worker *processes*
(:func:`execute_clusters_sharded`), with the same results and
accounting as the serial path: the scheduled cluster list is
partitioned into shard-local sets
(:func:`repro.core.planner.plan_shards`), the datasets' backing arrays
are published once per join through shared memory
(:mod:`repro.storage.shm`) and each worker of the process's warm pool
(:func:`repro.core.sharding.shard_pool`) runs one cascade over its
shard's entries against zero-copy views with its own recorder, while
the parent replays the staging of the whole schedule in serial order.
Workers split their shard's
:class:`~repro.core.joiners.ClusterResult` back into clusters — pair
arrays, about 16 bytes per pair through the pipe — and the parent
absorbs them in schedule order.  Counters, audits and the merged pairs
are therefore bit-identical to serial, apart from the kernel invocation
counts (one per cascade); per-shard staging deltas are additionally
attributed to ``executor.shard.<k>.*`` counters whose sums equal the
serial totals exactly.  See ``docs/execution_modes.md``.

Both paths fold results through :meth:`ExecutionOutcome.absorb`, which
keeps each absorbed pair array; :attr:`ExecutionOutcome.pairs`
concatenates them once into the one int64 array behind the
:class:`~repro.core.pairs.ResultPairs` that ``JoinResult.pairs`` holds.
No Python object is built per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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
        """Every absorbed pair, in absorb order, in one array: a lone
        absorbed block as it is (a serial join's one cascade), several
        concatenated into a new one."""
        if len(self._blocks) == 1:
            return ResultPairs(self._blocks[0])
        return ResultPairs(np.concatenate([_NO_PAIRS, *self._blocks]))

    def absorb(self, result: ClusterResult) -> None:
        """Fold one ``join_cluster`` result into the running totals.

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

    Stages every cluster in schedule order (:func:`_replay_staging`),
    then joins every scheduled page pair in one
    ``joiner.join_cluster(entries)`` call, entries concatenated in
    schedule order — one cascade per join.  Works with any joiner that
    has that method; for process-level parallelism use
    :func:`execute_clusters_sharded`.

    ``auditor`` overrides the Lemma auditor (the EXPLAIN layer passes a
    record-keeping one so per-cluster bound/observed rows survive the
    run); by default one is created whenever the recorder records.
    With a recording ``recorder``, each cluster is additionally audited
    against the paper's Lemma 1/2 read bounds: the disk-transfer delta
    observed while staging the cluster must not exceed
    ``min(e + min(r, c), r + c)`` (see :class:`~repro.obs.audit.LemmaAuditor`).

    Raises ``ValueError`` if any cluster does not fit the pool's available
    frames (Lemma 2's precondition — clustering must have enforced it).
    """
    outcome = ExecutionOutcome()
    _replay_staging(
        ordered_clusters, pool, r_dataset, s_dataset, outcome, recorder, auditor
    )
    entries = [entry for cluster in ordered_clusters for entry in cluster.entries]
    if entries:
        outcome.absorb(joiner.join_cluster(entries))
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
    order.  Each worker runs one cascade over its shard's entries.  The
    outcome — pairs included — and every simulated counter are
    bit-identical to :func:`execute_clusters`; per-shard
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

    if not ordered_clusters:
        return execute_clusters(
            ordered_clusters, pool, r_dataset, s_dataset, joiner, recorder=recorder
        )

    outcome = ExecutionOutcome()
    start_method = resolve_start_method()
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

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
            staged = _replay_staging(
                ordered_clusters, pool, r_dataset, s_dataset, outcome,
                recorder, auditor,
            )
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

    shard_of = plan.shard_of()
    shard_reads = [0] * plan.num_shards
    shard_reused = [0] * plan.num_shards
    for index, (reads, reused) in enumerate(staged):
        shard_reads[shard_of[index]] += reads
        shard_reused[shard_of[index]] += reused
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


def _replay_staging(
    ordered_clusters: Sequence[Cluster],
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    outcome: ExecutionOutcome,
    recorder: Recorder,
    auditor: Optional[LemmaAuditor],
) -> List[Tuple[int, int]]:
    """Stage every cluster in schedule order; returns each one's
    ``(pages read, pages reused)``, also added to ``outcome``.

    Per cluster, inside one ``execute.cluster`` span: a batched,
    pin-scoped load of its page set with reuse accounting, then one
    fetch per entry side, replayed in one
    :meth:`~repro.storage.buffer.BufferPool.replay_hits` call — every
    one hits, as the pins keep the page set buffered.  The pins are
    insurance against non-LRU victim choices (see
    :meth:`~repro.storage.buffer.BufferPool.pinned`).  The replay scores
    the buffer hits of reading each entry's two pages from the pool:
    joiners read them through the columnar page views instead, and the
    replay keeps hit counts and replacement state what the paper's
    per-page-pair execution defines.  Each cluster's
    disk-transfer delta is then audited against Lemma 1/2 (``auditor``,
    or a new one when the recorder records).
    """
    pool.attach(r_dataset)
    pool.attach(s_dataset)
    r_id = r_dataset.dataset_id
    s_id = s_dataset.dataset_id
    if auditor is None and recorder.enabled:
        auditor = LemmaAuditor(recorder)
    disk_stats = pool.disk.stats
    staged: List[Tuple[int, int]] = []
    for index, cluster in enumerate(ordered_clusters):
        transfers_before = disk_stats.transfers
        with recorder.span("execute.cluster"):
            wanted = sorted(cluster.page_keys(r_id, s_id))
            with pool.pinned(wanted) as pinned:
                reads = len(pinned.missing)
                pool.replay_hits(
                    [
                        key
                        for row, col in cluster.entries
                        for key in ((r_id, row), (s_id, col))
                    ]
                )
        if auditor is not None:
            auditor.check_cluster(
                cluster, disk_stats.transfers - transfers_before, index
            )
        staged.append((reads, len(wanted) - reads))
        outcome.pages_read += reads
        outcome.pages_reused += len(wanted) - reads
    return staged
