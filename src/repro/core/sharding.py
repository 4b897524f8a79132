"""Process-shard worker protocol for the sharded cluster executor.

One shard = one worker process = one task.  The parent
(:func:`repro.core.executor.execute_clusters_sharded`) publishes the
datasets' backing arrays through shared memory, builds one picklable
*task* per shard (segment specs + joiner recipe + the shard's cluster
entry lists), and submits them to a process pool.  Each worker:

1. attaches the shared segments and rebuilds its dataset objects
   zero-copy (:func:`repro.storage.page.dataset_from_shm_spec`);
2. rebuilds the page-pair joiner with its **own recorder** (an
   :class:`~repro.obs.recorder.InMemoryRecorder` when the parent
   records, the null recorder otherwise);
3. runs the joiner's cluster cascade over each assigned cluster, reading
   objects through the columnar page views — never through a buffer
   pool, which is exactly why all simulated I/O accounting can stay in
   the parent;
4. ships back one :class:`~repro.core.joiners.ClusterResult` per
   cluster — pair, count, comparison and CPU arrays, each owning its
   memory — plus the recorder's exported state for the parent's
   deterministic merge.  The pipe carries about 16 bytes per result
   pair; no list of Python tuples is pickled.

Only the built-in joiners (:class:`~repro.core.joiners.NumericPagePairJoiner`,
:class:`~repro.core.joiners.TextPagePairJoiner`) have a picklable recipe;
anything else runs serially through
:func:`~repro.core.executor.execute_clusters`.
"""

from __future__ import annotations

import os
import time
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
    "run_shard",
    "resolve_start_method",
    "shardable_joiner",
    "share_datasets",
]

# Test hook: "exit" makes shard 0's worker die without cleanup, to prove
# the parent still reclaims every shared-memory segment.
_FAULT_ENV = "_REPRO_SHARD_FAULT"


def resolve_start_method(workers: int) -> str:
    """The multiprocessing start method for a sharded run, validated.

    Prefers ``fork`` (cheap, inherits the parent's imports).  Without it
    the pool must ``spawn``, whose per-worker interpreter start is slow
    enough that oversubscribing the CPUs (``workers > os.cpu_count()``)
    degenerates into something easily mistaken for a hang — so that
    combination is rejected with an explanation instead.
    """
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    cpus = os.cpu_count() or 1
    if workers > cpus:
        raise RuntimeError(
            f"workers={workers} exceeds os.cpu_count()={cpus} and the 'fork' "
            "start method is unavailable on this platform: spawn-started "
            "workers would oversubscribe the CPUs while paying a full "
            "interpreter start each, which stalls rather than fails. "
            "Reduce workers, or run serially (workers=1)."
        )
    return "spawn"


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
    """Worker entry point: join every cluster of one shard.

    Returns ``{"shard_index", "results": {schedule_index: ClusterResult},
    "metrics": exported recorder state or None, "wall_seconds": float}``.
    The shared segments are closed before this returns, so every array
    in the payload is one the cascade allocated, never a view into a
    segment.  ``wall_seconds`` is the worker-side compute wall time
    (attach + join + export), the EXPLAIN layer's per-shard balance
    observation.
    """
    if os.environ.get(_FAULT_ENV) == "exit" and task["shard_index"] == 0:
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
    results = {
        schedule_index: joiner.join_cluster(entries)
        for schedule_index, entries in task["clusters"]
    }
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
