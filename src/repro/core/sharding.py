"""Process-shard worker protocol and the warm worker pool.

One shard = one task.  The parent
(:func:`repro.core.executor.execute_clusters_sharded`) publishes the
datasets' backing arrays through shared memory, builds one picklable
*task* per shard (segment specs + joiner recipe + the shard's cluster
entry lists), and submits them to the process's warm pool
(:func:`shard_pool`).  For each task a worker:

1. attaches the shared segments and rebuilds its dataset objects
   zero-copy (:func:`repro.storage.page.dataset_from_shm_spec`);
2. rebuilds the page-pair joiner with its **own recorder** (an
   :class:`~repro.obs.recorder.InMemoryRecorder` when the parent
   records, the null recorder otherwise);
3. runs one cascade (:meth:`~repro.core.joiners.PagePairJoiner.join_cluster`)
   over the entries of all its clusters, concatenated in schedule
   order, reading objects through the columnar page views — never
   through a buffer pool, which is exactly why all simulated I/O
   accounting can stay in the parent;
4. splits that one :class:`~repro.core.joiners.ClusterResult` back into
   clusters by their entry counts and ships one result per cluster —
   pair, count, comparison and CPU arrays, each owning its memory —
   plus the recorder's exported state for the parent's deterministic
   merge.  The pipe carries about 16 bytes per result pair; no list of
   Python tuples is pickled.

Only the built-in joiners (:class:`~repro.core.joiners.NumericPagePairJoiner`,
:class:`~repro.core.joiners.TextPagePairJoiner`) have a picklable recipe;
anything else runs serially through
:func:`~repro.core.executor.execute_clusters`.

The pool is per process and per start method: ``os.cpu_count()``
workers, created at the first sharded join (or by
:func:`start_shard_pool`, which ``repro serve`` calls before its HTTP
threads exist) and reused by every later one; shards beyond the worker
count queue.  A pool whose worker died is dropped
(:func:`discard_shard_pool`) and the next sharded join starts a fresh
one.  An exit hook shuts every pool down.  Workers close the resource
tracker descriptor they inherit (:func:`_init_worker`) and attach
segments without registering them, so the parent stays the only owner
of every segment and stopping the tracker never waits on a live worker.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from multiprocessing.connection import wait
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.joiners import (
    ClusterResult,
    NumericPagePairJoiner,
    TextPagePairJoiner,
)
from repro.obs.recorder import NULL_RECORDER, InMemoryRecorder
from repro.storage.page import dataset_from_shm_spec, dataset_shm_spec
from repro.storage.shm import ShmArena, ShmAttachments

__all__ = [
    "build_shard_task",
    "discard_shard_pool",
    "run_shard",
    "resolve_start_method",
    "shard_pool",
    "shardable_joiner",
    "share_datasets",
    "shutdown_shard_pools",
    "start_shard_pool",
]

# Test hook: "exit" makes shard 0's worker die without cleanup, to prove
# the parent still reclaims every shared-memory segment.  Read in the
# parent when the task is built: a warm worker's environment is the one
# it was forked with.
_FAULT_ENV = "_REPRO_SHARD_FAULT"

# start method -> this process's warm pool.
_POOLS: Dict[str, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def resolve_start_method() -> str:
    """The multiprocessing start method for sharded runs: ``fork`` (cheap,
    inherits the parent's imports) where the platform has it, else
    ``spawn``.  Either way the warm pool holds ``os.cpu_count()`` workers
    and a join's extra shards queue."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def shard_pool(start_method: str) -> ProcessPoolExecutor:
    """This process's warm pool for ``start_method``, created on first use.

    ``os.cpu_count()`` workers.  A fork pool forks all of them at its
    first task; a spawn pool starts them as tasks arrive.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(start_method)
        if pool is None:
            pool = _POOLS[start_method] = ProcessPoolExecutor(
                max_workers=os.cpu_count() or 1,
                mp_context=mp.get_context(start_method),
                initializer=_init_worker,
            )
        return pool


def start_shard_pool() -> None:
    """Start the warm pool now, not at the first sharded join: ``repro
    serve`` calls this before its HTTP threads exist, so the workers fork
    from a single-threaded process.

    A fork pool forks every worker inside its first ``submit``; nothing
    waits for the no-op task itself.
    """
    shard_pool(resolve_start_method()).submit(os.getpid)


def discard_shard_pool(pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool, so the next sharded join starts a fresh one."""
    with _POOLS_LOCK:
        for method, live in list(_POOLS.items()):
            if live is pool:
                del _POOLS[method]
    pool.shutdown(wait=True, cancel_futures=True)


@atexit.register
def shutdown_shard_pools() -> None:
    """Stop every warm pool; the exit hook, safe to call at any time.

    At interpreter exit the executors' own hook has already stopped the
    workers; dropping the executors here, while the modules they use
    still exist, keeps their clean-up callbacks from failing noisily.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


def _init_worker() -> None:
    """Pool worker initializer.

    Closes the worker's inherited descriptor of the parent's resource
    tracker: the tracker exits once every holder of that pipe has closed
    it, so a warm worker holding it would make stopping the tracker wait
    for the worker.  Workers never register anything with a tracker
    (:func:`repro.storage.shm.attach_array`).  The tracker's lock is not
    taken: a parent thread may have held it at the fork.

    Ignores SIGINT, which a terminal sends to the whole process group:
    the parent owns the workers' lifetime and stops them itself.  If the
    parent dies without stopping them (SIGKILL, a crash), a watchdog
    thread ends the worker instead of leaving it idle for good.
    """
    tracker = resource_tracker._resource_tracker
    fd, tracker._fd, tracker._pid = tracker._fd, None, None
    if fd is not None:
        os.close(fd)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_parent, args=(mp.parent_process().sentinel,), daemon=True
    ).start()


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent process is gone, then end this worker."""
    wait([sentinel])
    os._exit(1)


def build_shard_task(
    shard_index: int,
    clusters: Sequence[Tuple[int, Tuple[Tuple[int, int], ...]]],
    r_spec: dict,
    s_spec: Optional[dict],
    joiner,
    arena: ShmArena,
    record: bool,
) -> Dict[str, Any]:
    """One shard's picklable work order.

    ``clusters`` pairs each cluster's schedule index with its entry
    tuple; ``s_spec=None`` means both sides are the same dataset (the
    worker rebuilds one object and uses it twice, preserving the
    joiners' identity-based self-join behaviour).
    """
    return {
        "shard_index": shard_index,
        "clusters": [(int(i), tuple(entries)) for i, entries in clusters],
        "r_spec": r_spec,
        "s_spec": s_spec,
        "joiner": _joiner_recipe(joiner, arena),
        "record": record,
        "fault": os.environ.get(_FAULT_ENV),
    }


def _joiner_recipe(joiner, arena: ShmArena) -> Dict[str, Any]:
    """The picklable recipe to rebuild a built-in joiner in a worker."""
    common = {
        "epsilon": joiner.epsilon,
        "cost_model": joiner.cost_model,
        "self_join": joiner.self_join,
        "collect_pairs": joiner.collect_pairs,
    }
    if isinstance(joiner, NumericPagePairJoiner):
        return {"kind": "numeric", "distance": joiner.distance, **common}
    if isinstance(joiner, TextPagePairJoiner):
        return {
            "kind": "text",
            "r_features": arena.share(joiner.r_features),
            "s_features": arena.share(joiner.s_features),
            **common,
        }
    raise ValueError(
        f"joiner {type(joiner).__name__} has no picklable shard recipe; "
        "sharded execution supports the built-in numeric/text joiners only "
        "(run custom joiners serially with execute_clusters)"
    )


def shardable_joiner(joiner) -> bool:
    """Whether :func:`_joiner_recipe` can ship this joiner to workers."""
    return isinstance(joiner, (NumericPagePairJoiner, TextPagePairJoiner))


def share_datasets(r_dataset, s_dataset, arena: ShmArena):
    """Publish both datasets' arrays; returns ``(r_spec, s_spec)``.

    ``s_spec`` is ``None`` for a physical self join so workers rebuild a
    single object for both sides.
    """
    r_spec = dataset_shm_spec(r_dataset, arena.share)
    if s_dataset is r_dataset:
        return r_spec, None
    return r_spec, dataset_shm_spec(s_dataset, arena.share)


def run_shard(task: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: join every cluster of one shard in one cascade.

    Returns ``{"shard_index", "results": {schedule_index: ClusterResult},
    "metrics": exported recorder state or None, "wall_seconds": float,
    "pid": int}``.
    The shared segments are closed before this returns, so every array
    in the payload is one the cascade allocated, never a view into a
    segment.  ``wall_seconds`` is the worker-side compute wall time
    (attach + join + export), the EXPLAIN layer's per-shard balance
    observation; ``pid`` is the worker process that ran the shard.
    """
    if task["fault"] == "exit" and task["shard_index"] == 0:
        os._exit(13)
    wall_start = time.perf_counter()
    attachments = ShmAttachments()
    try:
        results, metrics = _run_shard_attached(task, attachments)
    finally:
        attachments.close()
    return {
        "shard_index": task["shard_index"],
        "results": results,
        "metrics": metrics,
        "wall_seconds": time.perf_counter() - wall_start,
        "pid": os.getpid(),
    }


def _run_shard_attached(
    task: Dict[str, Any], attachments: ShmAttachments
) -> Tuple[Dict[int, ClusterResult], Optional[dict]]:
    r_dataset = dataset_from_shm_spec(task["r_spec"], attachments.attach)
    s_dataset = (
        r_dataset
        if task["s_spec"] is None
        else dataset_from_shm_spec(task["s_spec"], attachments.attach)
    )
    recorder = InMemoryRecorder() if task["record"] else NULL_RECORDER
    joiner = _rebuild_joiner(task["joiner"], r_dataset, s_dataset, attachments, recorder)
    clusters = task["clusters"]
    entries = [entry for _, cluster in clusters for entry in cluster]
    results: Dict[int, ClusterResult] = {}
    if entries:
        shard = joiner.join_cluster(entries)
        parts = shard.split([len(cluster) for _, cluster in clusters])
        results = {index: part for (index, _), part in zip(clusters, parts)}
    metrics = recorder.export_state() if task["record"] else None
    return results, metrics


def _rebuild_joiner(
    recipe: Dict[str, Any], r_dataset, s_dataset, attachments: ShmAttachments, recorder
):
    if recipe["kind"] == "numeric":
        return NumericPagePairJoiner(
            r_dataset,
            s_dataset,
            recipe["distance"],
            recipe["epsilon"],
            recipe["cost_model"],
            recipe["self_join"],
            collect_pairs=recipe["collect_pairs"],
            recorder=recorder,
        )
    return TextPagePairJoiner(
        r_dataset,
        s_dataset,
        attachments.attach(recipe["r_features"]),
        attachments.attach(recipe["s_features"]),
        recipe["epsilon"],
        recipe["cost_model"],
        recipe["self_join"],
        collect_pairs=recipe["collect_pairs"],
        recorder=recorder,
    )
