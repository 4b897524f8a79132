"""The resident-state join engine behind the service.

A :class:`JoinSession` keeps everything a join needs warm across
requests: the indexed datasets themselves (page stores + MR-indexes),
their fingerprint chains, the prediction matrices and per-page sketches
(in a :class:`~repro.serve.store.ResidentStore` the join's cache
machinery reads directly), and a shared admission-controlled frame
budget.  The contracts:

**Warm path.**  A repeat ``join`` with the same datasets/ε/filter depth
hits the resident matrix: the sweep never runs, ``matrix_seconds`` is
0.0, the sweep counters stay zero, and the session counts
``serving.warm_hits``.  Dataset fingerprints are memoised on the
resident snapshots, so the warm path hashes nothing either.

**Incremental append.**  ``append`` builds a copy-on-write snapshot of
the grown dataset (in-flight requests keep joining the old one), patches
every resident matrix and sketch entry that references it through
:mod:`repro.serve.incremental` — O(appended pages × touched partners),
never a rebuild — and atomically swaps the new snapshot in.  Patched
state is bit-identical to a cold rebuild of the final dataset; the
equivalence tests pin this.

**Result memoisation.**  An identical repeat request (same dataset
fingerprints, ε, method, buffer size, filter depth, pair options) is
served straight from a bounded result memo — the warmest tier above the
resident matrix.  Only *matrix-warm*, non-explain, prefilter-free
executions are memoised, so a memoised payload is bit-identical to the
warm execution it replays (zero ``matrix_seconds``, no sweep counters)
and never leaks cold-build provenance.  Keys embed the dataset ids and
their fingerprints; an append or evict drops the entries over its
dataset, and an execution that raced one is not memoised, so the memo
holds only results a request can still hit.  An executed join's pairs
are one immutable :class:`Pairs` shared by its response and its memo
entry, and JSON-encoded at most once, so a memo hit does no per-pair
work.

**Concurrency.**  Mutation (register/append/evict) happens under one
session lock; ``join`` resolves its snapshots under that lock and then
runs lock-free on immutable objects with a private recorder, simulated
disk and buffer pool, so per-request counters are bit-identical however
requests interleave.  The shared pool is an admission ledger only:
requests lease frames (queue-or-reject beyond capacity) but do their
page I/O on the private pool, so the configured pin budget bounds
in-flight work without cross-request eviction interference.  With
``workers > 1`` an executed join runs its clusters as shards on the
process's warm worker pool (:func:`repro.core.sharding.shard_pool`),
so concurrent requests compute outside the interpreter lock; admission,
pins and the simulated-I/O replay stay on the request's thread, and a
memo hit never leaves it.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.join import IndexedDataset, join, require_positive_int
from repro.core.sweep import check_matrix_arguments
from repro.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.obs.recorder import InMemoryRecorder
from repro.serve.admission import AdmissionController
from repro.serve.incremental import append_to_dataset, patch_matrix
from repro.serve.store import ResidentStore
from repro.sketch.config import resolve_prefilter
from repro.sketch.signatures import PageSketches, build_sketch_rows
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.persist import (
    FingerprintChain,
    matrix_cache_key,
    sketch_cache_key,
)

__all__ = ["JoinSession", "Pairs", "ResidentDataset"]

# Bounded size of the per-session join-result memo (FIFO eviction).
# Appends and evicts drop the entries over their dataset, so the cap only
# bounds memory under many distinct live request shapes.
_RESULT_MEMO_CAP = 256

_ENCODE_LOCK = threading.Lock()


class Pairs(tuple):
    """An executed join's result pairs: ``(r, s)`` tuples in result order.

    Immutable, so a response and its memo entry share one object.
    ``json.dumps`` encodes it like any tuple, as a list of ``[r, s]``
    lists; :meth:`json_bytes` is that same text, encoded at most once.
    """

    def json_bytes(self) -> bytes:
        """``json.dumps(self)`` as ASCII bytes, encoded at the first call."""
        with _ENCODE_LOCK:
            if not hasattr(self, "_json"):
                self._json = json.dumps(self).encode("ascii")
        return self._json


def _copy_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Copy a response payload deeply enough that callers can't alias it.

    The pairs are not copied: a :class:`Pairs` cannot change.
    """
    copied = dict(payload)
    for key in ("counters", "stage_seconds", "fingerprints"):
        if isinstance(copied.get(key), dict):
            copied[key] = dict(copied[key])
    return copied


@dataclass
class ResidentDataset:
    """One dataset's resident entry: the live snapshot plus provenance."""

    dataset_id: str
    dataset: IndexedDataset
    chain: FingerprintChain
    fingerprint: str
    page_capacity: Optional[int] = None
    appends: int = 0
    objects_appended: int = 0

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.dataset_id,
            "kind": self.dataset.kind,
            "fingerprint": self.fingerprint,
            "pages": self.dataset.num_pages,
            "objects": self.dataset.num_objects,
            "appends": self.appends,
            "objects_appended": self.objects_appended,
        }


class JoinSession:
    """Resident datasets, warm caches and admission-controlled joins.

    Parameters
    ----------
    shared_buffer_frames:
        The shared pool's pin budget — the total frames concurrent
        requests may hold at once.
    request_buffer_pages:
        Default frames one join leases (its simulated buffer size ``B``);
        overridable per request.  ``shared_buffer_frames //
        request_buffer_pages`` is then the default in-flight bound.
    max_queue / admit_timeout_s:
        Queueing policy beyond capacity (see
        :class:`~repro.serve.admission.AdmissionController`).
    cost_model:
        Simulated cost model for request disks (defaults to the paper's).
    workers:
        ``join()``'s ``workers`` for every executed request: above 1, its
        clusters run as that many shards on the warm worker pool.
        Results and counters outside ``executor.shard*`` are the same
        at any value.
    """

    def __init__(
        self,
        shared_buffer_frames: int = 256,
        request_buffer_pages: int = 64,
        max_queue: int = 8,
        admit_timeout_s: float = 10.0,
        cost_model: Optional[CostModel] = None,
        workers: int = 1,
    ) -> None:
        if request_buffer_pages <= 0:
            raise ValueError(
                f"request_buffer_pages must be positive, got {request_buffer_pages}"
            )
        require_positive_int("workers", workers)
        self.workers = workers
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.request_buffer_pages = request_buffer_pages
        self.store = ResidentStore()
        # The shared pool never reads pages; it exists for its atomic
        # frame ledger (try_lease) that admission control runs on.
        self.pool = BufferPool(
            SimulatedDisk(self.cost_model), shared_buffer_frames
        )
        self.admission = AdmissionController(
            self.pool, max_queue=max_queue, timeout_s=admit_timeout_s
        )
        self._mutate = threading.RLock()
        self._datasets: Dict[str, ResidentDataset] = {}
        # Provenance of resident cache entries, so appends know which
        # entries to patch and how: matrix key -> the join parameters it
        # was built under; sketch key -> the dataset + prefilter config.
        self._matrix_meta: Dict[str, Dict[str, Any]] = {}
        self._sketch_meta: Dict[str, Dict[str, Any]] = {}
        # Join-result memo: (r_id, s_id, fp_r, fp_s) + the request's
        # parameters -> the payload of a prior matrix-warm execution.
        self._memo_lock = threading.Lock()
        self._results: Dict[tuple, Dict[str, Any]] = {}
        self._counter_lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self.started_monotonic = time.monotonic()

    # -- dataset lifecycle ----------------------------------------------------

    def register(
        self,
        dataset_id: str,
        dataset: IndexedDataset,
        page_capacity: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Make ``dataset`` resident under ``dataset_id``."""
        with self._mutate:
            if dataset_id in self._datasets:
                raise ValueError(f"dataset {dataset_id!r} is already registered")
            chain = FingerprintChain.from_dataset(dataset)
            fingerprint = chain.hexdigest()
            # Resident snapshots are immutable; memoise so warm joins
            # never re-walk the pages to key the caches.
            dataset.fingerprint_memo = fingerprint  # type: ignore[attr-defined]
            entry = ResidentDataset(
                dataset_id=dataset_id,
                dataset=dataset,
                chain=chain,
                fingerprint=fingerprint,
                page_capacity=page_capacity,
            )
            self._datasets[dataset_id] = entry
            self.count("serving.registers")
            return entry.describe()

    def datasets(self) -> List[Dict[str, Any]]:
        with self._mutate:
            return [entry.describe() for entry in self._datasets.values()]

    def describe(self, dataset_id: str) -> Dict[str, Any]:
        with self._mutate:
            return self._entry(dataset_id).describe()

    def evict(self, dataset_id: str) -> Dict[str, Any]:
        """Drop a dataset and every cache entry that references it.

        The memoised results it drops are freed after the session lock
        is released (see :meth:`_drop_results`).
        """
        with self._mutate:
            entry = self._entry(dataset_id)
            del self._datasets[dataset_id]
            dropped_matrices = 0
            for key, meta in list(self._matrix_meta.items()):
                if dataset_id in (meta["r_id"], meta["s_id"]):
                    self.store.drop_matrix(key)
                    del self._matrix_meta[key]
                    dropped_matrices += 1
            dropped_sketches = 0
            for key, meta in list(self._sketch_meta.items()):
                if meta["dataset_id"] == dataset_id:
                    self.store.drop_sketches(key)
                    del self._sketch_meta[key]
                    dropped_sketches += 1
            dropped_results = self._drop_results(dataset_id)
            self.count("serving.evictions")
            response = {
                "id": dataset_id,
                "fingerprint": entry.fingerprint,
                "dropped_matrices": dropped_matrices,
                "dropped_sketches": dropped_sketches,
                "dropped_results": len(dropped_results),
            }
        del dropped_results
        return response

    # -- incremental append ---------------------------------------------------

    def append(self, dataset_id: str, payload) -> Dict[str, Any]:
        """Append pages to a resident dataset, patching all warm state.

        Copy-on-write: requests already holding the old snapshot finish
        against it; requests resolved after this returns see the grown
        dataset, its incrementally-updated fingerprint, and matrices/
        sketches patched to the exact state a cold rebuild would produce.
        Memoised results over the dataset are dropped: no request can
        hit them after the append.  They are freed after the session lock
        is released (see :meth:`_drop_results`).
        """
        with self._mutate:
            entry = self._entry(dataset_id)
            delta = append_to_dataset(
                entry.dataset, entry.chain, payload, entry.page_capacity
            )
            matrices_patched = self._patch_matrices(entry, delta)
            sketches_patched = self._patch_sketches(entry, delta)
            entry.dataset = delta.dataset
            entry.chain = delta.chain
            entry.fingerprint = delta.fingerprint
            entry.appends += 1
            entry.objects_appended += delta.objects_added
            dropped_results = self._drop_results(dataset_id)
            self.count("serving.appends")
            self.count("serving.pages_appended", len(delta.new_pages))
            self.count("serving.matrix_patches", matrices_patched)
            self.count("serving.sketch_patches", sketches_patched)
            response = {
                "id": dataset_id,
                "fingerprint": delta.fingerprint,
                "old_fingerprint": delta.old_fingerprint,
                "pages_before": delta.pages_before,
                "pages_after": delta.pages_after,
                "new_pages": [int(p) for p in delta.new_pages],
                "dirty_pages": [int(p) for p in delta.dirty_pages],
                "objects_added": delta.objects_added,
                "matrices_patched": matrices_patched,
                "sketches_patched": sketches_patched,
            }
        del dropped_results
        return response

    def _patch_matrices(self, entry: ResidentDataset, delta) -> int:
        patched = 0
        old_fp = entry.fingerprint
        for key, meta in list(self._matrix_meta.items()):
            if old_fp not in (meta["fp_r"], meta["fp_s"]):
                continue
            matrix = self.store.peek_matrix(key)
            if matrix is None:
                # Registered by an in-flight join that has not saved yet;
                # its eventual save lands under the pre-append key, which
                # no future request can reach.  Drop the provenance.
                del self._matrix_meta[key]
                continue
            sides = {}
            stale = False
            for side, id_field, fp_field in (
                ("r", "r_id", "fp_r"),
                ("s", "s_id", "fp_s"),
            ):
                if meta[fp_field] == old_fp and meta[id_field] == entry.dataset_id:
                    sides[side] = (delta.dataset, delta.changed_pages, delta.fingerprint)
                else:
                    other = self._datasets.get(meta[id_field])
                    if other is None or other.fingerprint != meta[fp_field]:
                        stale = True
                        break
                    sides[side] = (
                        other.dataset,
                        np.empty(0, dtype=np.int64),
                        other.fingerprint,
                    )
            if stale:
                self.store.drop_matrix(key)
                del self._matrix_meta[key]
                continue
            r_ds, changed_r, fp_r = sides["r"]
            s_ds, changed_s, fp_s = sides["s"]
            work = matrix.copy()
            patch_matrix(
                work, r_ds, s_ds, changed_r, changed_s, meta["epsilon"]
            )
            new_key = matrix_cache_key(
                fp_r, fp_s, meta["epsilon"], meta["max_filter_rounds"]
            )
            self.store.replace_matrix(key, new_key, work)
            new_meta = dict(meta, fp_r=fp_r, fp_s=fp_s)
            del self._matrix_meta[key]
            self._matrix_meta[new_key] = new_meta
            patched += 1
        return patched

    def _patch_sketches(self, entry: ResidentDataset, delta) -> int:
        patched = 0
        old_fp = entry.fingerprint
        for key, meta in list(self._sketch_meta.items()):
            # A dataset with equal page boxes shares the fingerprint,
            # never the sketches.
            if meta["dataset_id"] != entry.dataset_id or meta["fingerprint"] != old_fp:
                continue
            old = self.store.peek_sketches(key)
            if old is None:
                del self._sketch_meta[key]
                continue
            config = meta["config"]
            changed = delta.changed_pages
            rows, row_counts = build_sketch_rows(delta.dataset, config, changed)
            signatures = np.empty(
                (delta.pages_after,) + old.signatures.shape[1:],
                dtype=old.signatures.dtype,
            )
            counts = np.empty(delta.pages_after, dtype=np.int64)
            signatures[: delta.pages_before] = old.signatures
            counts[: delta.pages_before] = old.counts
            signatures[changed] = rows
            counts[changed] = row_counts
            sketches = PageSketches(
                kind=old.kind, signatures=signatures, counts=counts
            )
            new_key = sketch_cache_key(delta.dataset, config)
            self.store.replace_sketches(key, new_key, sketches)
            new_meta = dict(meta, fingerprint=delta.fingerprint)
            del self._sketch_meta[key]
            self._sketch_meta[new_key] = new_meta
            patched += 1
        return patched

    # -- joins -----------------------------------------------------------------

    def join(
        self,
        r_id: str,
        s_id: str,
        epsilon: float,
        method: str = "sc",
        buffer_pages: Optional[int] = None,
        max_filter_rounds: int = 5,
        prefilter=None,
        count_only: bool = False,
        include_pairs: bool = True,
        explain: bool = False,
        request_id: Optional[str] = None,
        memoize: bool = True,
    ) -> Dict[str, Any]:
        """Run one join against the resident snapshots.

        Admission-controlled: leases ``buffer_pages`` frames from the
        shared pool first (queue-or-:class:`AdmissionRejected`).  Returns
        a JSON-ready payload with the pairs (unless suppressed), the
        per-request counters, the cache disposition and — with
        ``explain=True`` — the full EXPLAIN artifact.

        ``memoize=False`` opts the request out of the result memo (both
        lookup and fill) — it always executes, which is what
        latency-measuring clients and the concurrency bench want.

        The named parameters are the whole request surface: how a join
        executes (worker processes, the matrix cache, buffer policy) is
        the daemon's setting, never a request's.
        """
        # Before the memo key: a malformed argument must not match a
        # memoised request or key a cache entry of its own.
        check_matrix_arguments(epsilon, max_filter_rounds)
        frames = self.request_buffer_pages if buffer_pages is None else buffer_pages
        require_positive_int("buffer_pages", frames)
        req = request_id or uuid.uuid4().hex[:12]
        started = time.perf_counter()
        # Repeat-request fast path: identical shapes replay the memoised
        # warm payload without admission, leases, or any join work.
        memoizable = memoize and not explain and prefilter is None
        shape = (
            float(epsilon),
            method,
            frames,
            max_filter_rounds,
            bool(count_only),
            bool(include_pairs),
        )
        if memoizable:
            with self._mutate:
                probe_r = self._entry(r_id)
                probe_s = probe_r if s_id == r_id else self._entry(s_id)
                memo_key = (
                    r_id, s_id, probe_r.fingerprint, probe_s.fingerprint
                ) + shape
            memoized = self._memo_get(memo_key)
            if memoized is not None:
                memoized["request_id"] = req
                memoized["elapsed_seconds"] = time.perf_counter() - started
                memoized["result_cache"] = "hit"
                memoized["counters"]["serving.result_hit"] = 1
                self.count("serving.requests")
                self.count("serving.warm_hits")
                self.count("serving.result_hits")
                return memoized
        ticket = self.admission.admit(frames)
        try:
            with self._mutate:
                entry_r = self._entry(r_id)
                entry_s = entry_r if s_id == r_id else self._entry(s_id)
                r_ds, s_ds = entry_r.dataset, entry_s.dataset
                fp_r, fp_s = entry_r.fingerprint, entry_s.fingerprint
                key = matrix_cache_key(
                    fp_r, fp_s, float(epsilon), max_filter_rounds
                )
                # Register provenance before running: the join computes
                # the same key itself (fingerprints are memoised on the
                # snapshots), so whatever it saves or hits, appends know
                # how to patch the entry.
                self._matrix_meta.setdefault(
                    key,
                    {
                        "r_id": r_id,
                        "s_id": s_id,
                        "fp_r": fp_r,
                        "fp_s": fp_s,
                        "epsilon": float(epsilon),
                        "max_filter_rounds": max_filter_rounds,
                    },
                )
                pf_config = resolve_prefilter(prefilter)
                if pf_config is not None:
                    for entry, ds in ((entry_r, r_ds), (entry_s, s_ds)):
                        self._sketch_meta.setdefault(
                            sketch_cache_key(ds, pf_config),
                            {
                                "dataset_id": entry.dataset_id,
                                "fingerprint": entry.fingerprint,
                                "config": pf_config,
                            },
                        )
            recorder = InMemoryRecorder()
            explain_meta = (
                {"request_id": req, "fingerprint_r": fp_r, "fingerprint_s": fp_s}
                if explain
                else None
            )
            result = join(
                r_ds,
                s_ds,
                epsilon,
                method=method,
                buffer_pages=frames,
                cost_model=self.cost_model,
                max_filter_rounds=max_filter_rounds,
                matrix_cache=self.store,
                recorder=recorder,
                prefilter=prefilter,
                count_only=count_only,
                explain=explain,
                explain_meta=explain_meta,
                workers=self.workers,
            )
        finally:
            ticket.release()
        elapsed = time.perf_counter() - started
        report = result.report
        cache_state = report.extra.get("matrix_cache")
        self.count("serving.requests")
        if cache_state == "hit":
            self.count("serving.warm_hits")
        elif cache_state == "miss":
            self.count("serving.cold_misses")
        counters = dict(recorder.counters)
        counters["serving.warm_hit"] = 1 if cache_state == "hit" else 0
        payload: Dict[str, Any] = {
            "request_id": req,
            "r": r_id,
            "s": s_id,
            "epsilon": float(epsilon),
            "method": method,
            "fingerprints": {"r": fp_r, "s": fp_s},
            "num_pairs": result.num_pairs,
            "matrix_cache": cache_state,
            "matrix_seconds": report.extra.get("matrix_seconds"),
            "stage_seconds": report.extra.get("stage_seconds"),
            "io_seconds": report.io_seconds,
            "cpu_seconds": report.cpu_seconds,
            "comparisons": report.comparisons,
            "elapsed_seconds": elapsed,
            "counters": counters,
        }
        payload["result_cache"] = "miss"
        if include_pairs and not count_only:
            payload["pairs"] = Pairs(result.pairs)
        explain_artifact = report.extra.get("explain")
        if explain_artifact is not None:
            payload["explain"] = explain_artifact.data
        if memoizable and cache_state == "hit":
            # Only matrix-warm executions are memoised: their payloads
            # carry zero matrix_seconds and no sweep counters, so a
            # replay is bit-identical to re-running the warm join.
            self._memo_put((r_id, s_id, fp_r, fp_s) + shape, r_ds, s_ds, payload)
        return payload

    def _memo_get(self, key: tuple) -> Optional[Dict[str, Any]]:
        with self._memo_lock:
            hit = self._results.get(key)
        return None if hit is None else _copy_payload(hit)

    def _memo_put(
        self,
        key: tuple,
        r_ds: IndexedDataset,
        s_ds: IndexedDataset,
        payload: Dict[str, Any],
    ) -> None:
        """Memoise ``payload``, computed on snapshots ``r_ds`` and ``s_ds``.

        Skipped when an append or evict has replaced either snapshot
        since the join resolved them: no request could hit the entry.
        """
        r_id, s_id = key[:2]
        with self._mutate:
            entry_r = self._datasets.get(r_id)
            entry_s = self._datasets.get(s_id)
            if (
                entry_r is None
                or entry_s is None
                or entry_r.dataset is not r_ds
                or entry_s.dataset is not s_ds
            ):
                return
            with self._memo_lock:
                if key not in self._results and len(self._results) >= _RESULT_MEMO_CAP:
                    self._results.pop(next(iter(self._results)))
                self._results[key] = _copy_payload(payload)

    def _drop_results(self, dataset_id: str) -> List[Dict[str, Any]]:
        """Remove every memoised result over ``dataset_id``; the payloads.

        The caller holds the session lock and lets the payloads go only
        after releasing it: freeing a large result's pairs takes
        milliseconds, which every other mutation would wait out.
        """
        with self._memo_lock:
            stale = [key for key in self._results if dataset_id in key[:2]]
            return [self._results.pop(key) for key in stale]

    def subsequence_join(self, r_id: str, s_id: str, epsilon: float, **kwargs):
        """The sliding-window join (text/series datasets only)."""
        with self._mutate:
            kinds = {
                self._entry(r_id).dataset.kind,
                self._entry(s_id).dataset.kind,
            }
        if "vector" in kinds:
            raise ValueError(
                "subsequence_join joins sliding-window (text/series) "
                "datasets; use join for vector data"
            )
        return self.join(r_id, s_id, epsilon, **kwargs)

    # -- introspection ---------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the session counter ``name`` (``/healthz``)."""
        if value:
            with self._counter_lock:
                self._counters[name] = self._counters.get(name, 0) + value

    def counters(self) -> Dict[str, int]:
        with self._counter_lock:
            return dict(self._counters)

    def stats(self) -> Dict[str, Any]:
        with self._mutate:
            datasets = [entry.describe() for entry in self._datasets.values()]
        return {
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "datasets": datasets,
            "store": self.store.stats(),
            "admission": self.admission.stats(),
            "counters": self.counters(),
            "result_memo_entries": len(self._results),
        }

    # -- internals -------------------------------------------------------------

    def _entry(self, dataset_id: str) -> ResidentDataset:
        try:
            return self._datasets[dataset_id]
        except KeyError:
            raise KeyError(f"no resident dataset {dataset_id!r}") from None
