"""Cluster execution: batched reads with cache reuse, in-memory joins.

For each cluster in schedule order (Section 8):

1. its pages are brought into the buffer with optimally scheduled reads —
   pages retained from the previous cluster are reused, not re-read;
2. every marked entry of the cluster is joined entirely in memory (its two
   pages are guaranteed resident because ``r + c <= B``).

Step 2 runs at one of two granularities.  The default is the
*mega-batch*: once the cluster's ``r + c`` pages are staged (pinned for
the duration — :meth:`~repro.storage.buffer.BufferPool.pinned`), all of
its marked page pairs are joined by a single fused cascade over the
datasets' columnar page views
(:meth:`~repro.core.joiners.PagePairJoiner.join_cluster` — one filter
kernel call and one refine kernel call per cluster instead of one per
page pair).  ``batch_pairs=1`` selects the classic per-pair granularity;
joiners that are plain callables (no ``join_cluster``) always run per
pair.  Both granularities produce bit-identical results and accounting —
pairs (order included), comparisons, modeled CPU, page reads/reuse,
buffer hits and Lemma audits; only kernel *invocation* counts differ
(``repro.obs.recorder.BATCHING_VARIANT_COUNTERS``).

Parallelism comes in two flavours, both preserving bit-identical
results and accounting:

* **Threads** (``execute_clusters(..., workers=k)``): the CPU half of
  step 2 is dispatched to a thread pool — clusters are independent
  units of work (each owns its buffer-resident pages), so their
  page-pair joins run concurrently while the main thread walks the
  schedule.  All buffer and disk traffic stays on the main thread in
  exactly the serial order — the simulated I/O counts (Lemma 1/2
  accounting) are identical to a serial run by construction — and
  per-worker results are merged in schedule order, so the outcome
  (pairs list included) is deterministic and equal to the serial one.
  The GIL serialises the Python-side scatter/merge, so threads are the
  *compatibility fallback* (no picklable state needed, works with any
  joiner); for actual multi-core speedup use the process-sharded path.
* **Processes** (:func:`execute_clusters_sharded`): the scheduled
  cluster list is partitioned into shard-local sets
  (:func:`repro.core.planner.plan_shards`), the datasets' backing
  arrays are published once through shared memory
  (:mod:`repro.storage.shm`) and per-shard worker processes run the
  mega-batch cascades against zero-copy views with their own
  recorders.  The separation that makes this exact: joiners read
  objects through the datasets' columnar page views — never through
  the buffer pool — so the pool/disk *simulation* is pure accounting
  and is replayed by the parent in full serial schedule order while
  the workers compute.  Counters, audits and the merged pairs list are
  therefore bit-identical to serial by the same argument as the thread
  path; per-shard staging deltas are additionally attributed to
  ``executor.shard.<k>.*`` counters whose sums equal the serial totals
  exactly.  See ``docs/execution_modes.md`` for the decision table.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.clusters import Cluster
from repro.obs.audit import LemmaAuditor
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.storage.buffer import BufferPool
from repro.storage.page import PagedDataset

__all__ = [
    "execute_clusters",
    "execute_clusters_sharded",
    "ExecutionOutcome",
    "PagePairJoin",
]

# join(r_page, s_page, r_payload, s_payload) ->
#   (pairs collected, total pair count, comparisons counted, cpu seconds)
PagePairJoin = Callable[
    [int, int, object, object],
    Tuple[List[Tuple[int, int]], int, int, float],
]

# One cluster's worth of dispatched work: (row, col, r_payload, s_payload).
_ClusterWork = List[Tuple[int, int, object, object]]


@dataclass
class ExecutionOutcome:
    """What the executor measured."""

    pairs: List[Tuple[int, int]] = field(default_factory=list)
    num_pairs: int = 0
    comparisons: int = 0
    cpu_seconds: float = 0.0
    pages_read: int = 0
    pages_reused: int = 0

    def absorb(self, result: Tuple[List[Tuple[int, int]], int, int, float]) -> None:
        """Fold one joiner result into the running totals."""
        pairs, count, comparisons, cpu_seconds = result
        self.pairs.extend(pairs)
        self.num_pairs += count
        self.comparisons += comparisons
        self.cpu_seconds += cpu_seconds


def execute_clusters(
    ordered_clusters: Sequence[Cluster],
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    page_pair_join: PagePairJoin,
    workers: int = 1,
    recorder: Recorder = NULL_RECORDER,
    batch_pairs: Optional[int] = None,
    auditor: Optional[LemmaAuditor] = None,
) -> ExecutionOutcome:
    """Process clusters in the given order; returns the measured outcome.

    ``auditor`` overrides the Lemma auditor (the EXPLAIN layer passes a
    record-keeping one so per-cluster bound/observed rows survive the
    run); by default one is created whenever the recorder records.

    ``batch_pairs`` sets the join granularity: ``None`` (default) joins
    every marked pair of a cluster in one mega-batch cascade, and ``1``
    restores the classic per-page-pair path.  The granularity never
    changes the result or the simulated accounting (see the module
    docstring); joiners without cluster support silently run per pair.

    ``workers > 1`` parallelises the joins across a *thread* pool (one
    task per cluster) without changing any simulated I/O count or the
    result; see the module docstring for the determinism argument.
    Threads are the compatibility fallback — they work with any joiner
    and any platform but the GIL caps the speedup; for process-level
    parallelism use :func:`execute_clusters_sharded` (or
    ``join(..., shard_strategy=...)``), which validates its worker
    count against the platform's start methods up front and raises a
    clear error instead of hanging when ``workers > os.cpu_count()``
    meets a fork-less platform (see
    :func:`repro.core.sharding.resolve_start_method`).

    With a recording ``recorder``, each cluster is additionally audited
    against the paper's Lemma 1/2 read bounds: the disk-transfer delta
    observed while staging and joining the cluster must not exceed
    ``min(e + min(r, c), r + c)`` (see :class:`~repro.obs.audit.LemmaAuditor`).
    The audit reads the disk counters on the main thread only, so it is
    identical under serial and parallel execution.

    Raises ``ValueError`` if any cluster does not fit the pool's available
    frames (Lemma 2's precondition — clustering must have enforced it).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    use_megabatch = _use_megabatch(page_pair_join, batch_pairs)
    pool.attach(r_dataset)
    pool.attach(s_dataset)
    outcome = ExecutionOutcome()
    r_id = r_dataset.dataset_id
    s_id = s_dataset.dataset_id
    if auditor is None and recorder.enabled:
        auditor = LemmaAuditor(recorder)
    disk_stats = pool.disk.stats
    if workers == 1:
        for index, cluster in enumerate(ordered_clusters):
            transfers_before = disk_stats.transfers
            with recorder.span("execute.cluster"):
                if use_megabatch:
                    _stage_cluster_pinned(
                        cluster, pool, r_id, s_id, outcome
                    )
                    for result in page_pair_join.join_cluster(cluster.entries):
                        outcome.absorb(result)
                else:
                    _stage_cluster_pages(cluster, pool, r_id, s_id, outcome)
                    for row, col in cluster.entries:
                        r_payload = pool.fetch(r_id, row)
                        s_payload = pool.fetch(s_id, col)
                        outcome.absorb(page_pair_join(row, col, r_payload, s_payload))
            if auditor is not None:
                auditor.check_cluster(
                    cluster, disk_stats.transfers - transfers_before, index
                )
        _count_executor_totals(
            recorder, outcome, len(ordered_clusters), use_megabatch
        )
        return outcome

    futures: List[Future] = []
    with ThreadPoolExecutor(max_workers=workers) as executor:
        for index, cluster in enumerate(ordered_clusters):
            transfers_before = disk_stats.transfers
            # The span covers staging + fetches only — the joins run on
            # worker threads and appear as their own (parentless,
            # per-thread) ``execute.refine`` / ``execute.megabatch`` spans.
            with recorder.span("execute.cluster"):
                if use_megabatch:
                    _stage_cluster_pinned(cluster, pool, r_id, s_id, outcome)
                else:
                    _stage_cluster_pages(cluster, pool, r_id, s_id, outcome)
                    # Fetch on the main thread, in entry order: the buffer/disk
                    # state transitions replay the serial run exactly.  Payload
                    # references stay valid after eviction — eviction drops the
                    # frame, not the in-memory array the frame pointed at.
                    work: _ClusterWork = [
                        (row, col, pool.fetch(r_id, row), pool.fetch(s_id, col))
                        for row, col in cluster.entries
                    ]
            if auditor is not None:
                # All of a cluster's physical reads happen above (the
                # worker only touches resident payloads / columnar views),
                # so the delta is complete here — same instant as the
                # serial audit.
                auditor.check_cluster(
                    cluster, disk_stats.transfers - transfers_before, index
                )
            if use_megabatch:
                futures.append(
                    executor.submit(page_pair_join.join_cluster, cluster.entries)
                )
            else:
                futures.append(executor.submit(_join_cluster, page_pair_join, work))
        # Merge in schedule order regardless of completion order.
        for future in futures:
            for result in future.result():
                outcome.absorb(result)
    _count_executor_totals(recorder, outcome, len(ordered_clusters), use_megabatch)
    return outcome


def execute_clusters_sharded(
    ordered_clusters: Sequence[Cluster],
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    page_pair_join: PagePairJoin,
    workers: int = 2,
    recorder: Recorder = NULL_RECORDER,
    batch_pairs: Optional[int] = None,
    shard_strategy="affinity",
    auditor: Optional[LemmaAuditor] = None,
    explain=None,
) -> ExecutionOutcome:
    """Process clusters with per-shard worker *processes*; same outcome.

    The schedule is partitioned into at most ``workers`` shard-local
    cluster sets (``shard_strategy``: a strategy name for
    :func:`repro.core.planner.plan_shards`, or a ready
    :class:`~repro.core.planner.ShardPlan` — property tests inject
    arbitrary partitions this way).  Workers rebuild the datasets from
    shared memory and run the join cascades; the parent replays **all**
    simulated I/O (staging, buffer hits, Lemma audits) serially in
    global schedule order while they compute, then merges per-cluster
    results back in schedule order.  The outcome — pairs list included —
    and every simulated counter are bit-identical to
    ``execute_clusters(..., workers=1)``; per-shard staging deltas are
    counted under ``executor.shard.<k>.pages_read`` / ``.pages_reused``
    (their sums equal the serial totals by construction — see
    ``repro.obs.recorder.SHARDING_VARIANT_COUNTER_PREFIXES``).

    Falls back to the thread pool when shared memory is unavailable on
    the platform (counter ``executor.shard.fallback_threads``).  Raises
    ``ValueError`` for joiners without a picklable shard recipe (custom
    callables — use threads for those) and ``RuntimeError`` when a
    worker process dies or the start-method validation fails.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    use_megabatch = _use_megabatch(page_pair_join, batch_pairs)
    from repro.core.sharding import (
        build_shard_task,
        resolve_start_method,
        run_shard,
        shardable_joiner,
        share_datasets,
    )
    from repro.storage.shm import ShmArena, shm_available

    if not shardable_joiner(page_pair_join):
        raise ValueError(
            f"joiner {type(page_pair_join).__name__} cannot be shipped to "
            "shard processes; use the thread path (execute_clusters) instead"
        )
    if not shm_available():  # pragma: no cover - platform without shm
        recorder.count("executor.shard.fallback_threads")
        return execute_clusters(
            ordered_clusters, pool, r_dataset, s_dataset, page_pair_join,
            workers=workers, recorder=recorder, batch_pairs=batch_pairs,
            auditor=auditor,
        )
    # Lazy import: planner imports core.join, which imports this module.
    from repro.core.planner import ShardPlan, plan_shards

    if isinstance(shard_strategy, ShardPlan):
        plan = shard_strategy
        plan.validate(len(ordered_clusters))
    else:
        plan = plan_shards(
            ordered_clusters, r_dataset, s_dataset, workers, shard_strategy
        )
    if explain is not None:
        explain.snapshot_shards(plan)

    pool.attach(r_dataset)
    pool.attach(s_dataset)
    outcome = ExecutionOutcome()
    r_id = r_dataset.dataset_id
    s_id = s_dataset.dataset_id
    if not ordered_clusters:
        _count_executor_totals(recorder, outcome, 0, use_megabatch)
        return outcome

    start_method = resolve_start_method(plan.num_shards)
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor
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
                page_pair_join,
                arena,
                batch_pairs,
                recorder.enabled,
            )
            for shard_index, members in enumerate(plan.shards)
        ]
        ctx = mp.get_context(start_method)
        with ProcessPoolExecutor(
            max_workers=plan.num_shards, mp_context=ctx
        ) as process_pool:
            futures = [process_pool.submit(run_shard, task) for task in tasks]
            # While the workers compute, the parent replays the complete
            # simulated I/O of the serial run — staging, per-entry fetch
            # replay, Lemma audits — in global schedule order.  This is
            # the whole trick: joiners read data through columnar views,
            # never the pool, so accounting and computation commute.
            for index, cluster in enumerate(ordered_clusters):
                transfers_before = disk_stats.transfers
                reads_before = outcome.pages_read
                reused_before = outcome.pages_reused
                with recorder.span("execute.cluster"):
                    if use_megabatch:
                        _stage_cluster_pinned(cluster, pool, r_id, s_id, outcome)
                    else:
                        _stage_cluster_pages(cluster, pool, r_id, s_id, outcome)
                        for row, col in cluster.entries:
                            pool.fetch(r_id, row)
                            pool.fetch(s_id, col)
                if auditor is not None:
                    auditor.check_cluster(
                        cluster, disk_stats.transfers - transfers_before, index
                    )
                shard = shard_of[index]
                shard_reads[shard] += outcome.pages_read - reads_before
                shard_reused[shard] += outcome.pages_reused - reused_before
            for shard_index, future in enumerate(futures):
                try:
                    shard_payloads.append(future.result())
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        f"shard worker {shard_index} died before returning "
                        "results (its process exited abnormally); shared "
                        "memory has been reclaimed by the parent"
                    ) from exc

    # Deterministic merge: worker recorders fold in shard order, results
    # absorb in global schedule order — the serial pairs list exactly.
    results_by_index: Dict[int, List] = {}
    shard_walls = [0.0] * plan.num_shards
    for payload in shard_payloads:
        shard_index = payload["shard_index"]
        if recorder.enabled and payload["metrics"] is not None:
            recorder.merge(payload["metrics"], span_attrs={"shard": shard_index})
        results_by_index.update(payload["results"])
        shard_walls[shard_index] = payload.get("wall_seconds", 0.0)
    for index in range(len(ordered_clusters)):
        for result in results_by_index[index]:
            outcome.absorb(result)
    if explain is not None:
        shard_cells = [0] * plan.num_shards
        for index in range(len(ordered_clusters)):
            shard_cells[shard_of[index]] += sum(
                result[2] for result in results_by_index[index]
            )
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
    _count_executor_totals(recorder, outcome, len(ordered_clusters), use_megabatch)
    return outcome


def _count_executor_totals(
    recorder: Recorder,
    outcome: ExecutionOutcome,
    num_clusters: int,
    use_megabatch: bool,
) -> None:
    recorder.count("executor.clusters", num_clusters)
    recorder.count("executor.pages_read", outcome.pages_read)
    recorder.count("executor.pages_reused", outcome.pages_reused)
    if use_megabatch:
        recorder.count("executor.megabatch_clusters", num_clusters)


def _use_megabatch(page_pair_join, batch_pairs: Optional[int]) -> bool:
    """Validate ``batch_pairs``; True when clusters run the fused cascade."""
    if batch_pairs not in (None, 1):
        raise ValueError(
            f"batch_pairs must be None (mega-batch) or 1 (per page pair), "
            f"got {batch_pairs!r}"
        )
    return batch_pairs is None and getattr(
        page_pair_join, "supports_megabatch", False
    )


def _stage_cluster_pages(
    cluster: Cluster,
    pool: BufferPool,
    r_id,
    s_id,
    outcome: ExecutionOutcome,
) -> None:
    """Batched load of a cluster's page set, with reuse accounting."""
    wanted = sorted(cluster.page_keys(r_id, s_id))
    missing = pool.load_batch(wanted)
    outcome.pages_read += len(missing)
    outcome.pages_reused += len(wanted) - len(missing)


def _stage_cluster_pinned(
    cluster: Cluster,
    pool: BufferPool,
    r_id,
    s_id,
    outcome: ExecutionOutcome,
) -> None:
    """Pin-scoped staging for the mega-batch path.

    Identical read/hit accounting to :func:`_stage_cluster_pages` (the
    pins are insurance against non-LRU victim choices, see
    :meth:`~repro.storage.buffer.BufferPool.pinned`), followed by the
    per-entry fetch replay: the mega-batch joiner reads objects through
    the columnar page views, so the buffer hits the per-pair path's
    fetches would have scored are replayed here — keeping hit counts and
    replacement state bit-identical between granularities.
    """
    wanted = sorted(cluster.page_keys(r_id, s_id))
    with pool.pinned(wanted) as staged:
        outcome.pages_read += len(staged.missing)
        outcome.pages_reused += len(wanted) - len(staged.missing)
        for row, col in cluster.entries:
            pool.fetch(r_id, row)
            pool.fetch(s_id, col)


def _join_cluster(page_pair_join: PagePairJoin, work: _ClusterWork) -> List:
    """Worker body: join one cluster's entries, preserving entry order."""
    return [
        page_pair_join(row, col, r_payload, s_payload)
        for row, col, r_payload, s_payload in work
    ]
