"""An LRU buffer pool over the simulated disk.

The paper fixes LRU as the replacement policy "due to its simplicity and
effectiveness" (Section 4).  All join techniques request pages through
:meth:`BufferPool.fetch`; hits are free, misses charge the disk.  The pool
also offers :meth:`load_batch`, which reads a page set in optimal
(block-sorted) order while skipping already-buffered pages — the primitive
the cluster executor uses to realise cache reuse between consecutive
clusters (Section 8).

The pool models residency only: its frames hold page keys, not
payloads.  :meth:`fetch` builds a page's objects from its dataset at the
call, for the baselines that read them, and :meth:`replay_hits`
accounts a run of fetches of buffered pages in one call — the executor's
staging replay, whose joins read columnar page views instead.

The pool is single-process state.  Sharded execution
(:func:`repro.core.executor.execute_clusters_sharded`) keeps **all**
pool traffic in the parent: worker processes read page payloads straight
from shared memory and never touch a BufferPool, so hit/miss accounting
stays a single serial replay and matches the serial executor exactly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

import numpy as np

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.storage.disk import SimulatedDisk
from repro.storage.page import PagedDataset
from repro.storage.scheduler import plan_batch_read

__all__ = ["BufferLease", "BufferPool", "PinnedBatch"]

PageKey = Tuple[Hashable, int]


REPLACEMENT_POLICIES = ("lru", "fifo", "mru")


class BufferPool:
    """Fixed-capacity page pool with a pluggable replacement policy.

    Parameters
    ----------
    disk:
        The simulated disk charged on every miss.
    capacity:
        Buffer size in pages (the paper's ``B``).
    policy:
        ``"lru"`` (the paper's choice, default), ``"fifo"`` (hits do not
        refresh), or ``"mru"`` (evict the most recently used — the classic
        antidote to sequential flooding).  Exposed for the replacement-
        policy ablation; all paper experiments run LRU.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int,
        policy: str = "lru",
        recorder: Recorder | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive, got {capacity}")
        if policy not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement policy {policy!r}; expected one of "
                f"{REPLACEMENT_POLICIES}"
            )
        self.disk = disk
        self.capacity = capacity
        self.policy = policy
        self.recorder = recorder if recorder is not None else disk.recorder
        self._datasets: Dict[Hashable, PagedDataset] = {}
        # Buffered page keys in replacement order; frames hold no payloads.
        self._frames: "OrderedDict[PageKey, None]" = OrderedDict()
        self._reserved = 0
        # Pin reference counts: pinned pages are never chosen as eviction
        # victims while any scope holds them (see :meth:`pinned`).
        self._pins: Dict[PageKey, int] = {}
        # Frames granted to leases (see :meth:`try_lease`).  Leases carve
        # capacity out of ``available`` without holding any pages — the
        # serving layer uses a session-level pool purely as an admission
        # ledger while each request does its I/O on a private pool sized
        # by its lease.
        self._lease_lock = threading.Lock()
        self._leased = 0

    # -- dataset registration ----------------------------------------------

    def attach(self, dataset: PagedDataset) -> None:
        """Register a dataset, placing it on disk if not yet placed."""
        if dataset.dataset_id in self._datasets:
            existing = self._datasets[dataset.dataset_id]
            if existing is not dataset:
                raise ValueError(
                    f"a different dataset with id {dataset.dataset_id!r} is already attached"
                )
            return
        self._datasets[dataset.dataset_id] = dataset
        if not self.disk.is_placed(dataset.dataset_id):
            self.disk.place(dataset.dataset_id, dataset.num_pages)

    # -- capacity management -------------------------------------------------

    @property
    def available(self) -> int:
        """Frames usable for data pages (capacity minus reservations/leases)."""
        return self.capacity - self._reserved - self._leased

    @property
    def leased(self) -> int:
        """Frames currently granted to open :class:`BufferLease` scopes."""
        return self._leased

    def try_lease(self, frames: int) -> "BufferLease | None":
        """Atomically carve ``frames`` out of the pool, or return ``None``.

        Thread-safe: this is the only BufferPool entry point intended for
        concurrent callers.  A granted lease reduces :attr:`available`
        until released (``with pool.try_lease(n) as lease:`` or an explicit
        idempotent :meth:`BufferLease.release`).  The lease holds no pages;
        it is an admission token sized in frames.

        Returns ``None`` when the frames are not available *right now*
        (the caller may queue and retry).  Raises ``ValueError`` for
        requests that could never succeed: negative frame counts or
        requests exceeding the unreserved capacity.
        """
        if frames < 0:
            raise ValueError(f"cannot lease a negative number of frames: {frames}")
        if frames > self.capacity - self._reserved:
            raise ValueError(
                f"lease of {frames} frames can never be granted: only "
                f"{self.capacity - self._reserved} unreserved frames exist"
            )
        with self._lease_lock:
            if frames > self.capacity - self._reserved - self._leased:
                return None
            self._leased += frames
        return BufferLease(self, frames)

    def _release_lease(self, frames: int) -> None:
        with self._lease_lock:
            self._leased -= frames

    def reserve(self, frames: int) -> None:
        """Set aside buffer frames for non-data structures.

        BFRJ's intermediate join index competes with data pages for buffer
        space; it models that pressure by reserving frames here.  Raises if
        the reservation would leave no room for data pages.
        """
        if frames < 0:
            raise ValueError(f"cannot reserve a negative number of frames: {frames}")
        if frames >= self.capacity:
            raise ValueError(
                f"reserving {frames} of {self.capacity} frames leaves no room for data pages"
            )
        self._reserved = frames
        self._evict_to(self.available)

    # -- page access ----------------------------------------------------------

    def fetch(self, dataset_id: Hashable, page_no: int) -> np.ndarray:
        """Return a page's objects, reading from disk on a miss.

        Frames hold no payloads: the objects are built by the dataset's
        ``page_objects`` at each call, hit or miss.
        """
        key = (dataset_id, page_no)
        if key in self._frames:
            if self.policy != "fifo":
                self._frames.move_to_end(key)
            self.disk.stats.buffer_hits += 1
            if self.recorder.enabled:
                self.recorder.count("buffer.hits")
            return self._datasets[dataset_id].page_objects(page_no)
        if self.recorder.enabled:
            self.recorder.count("buffer.misses")
        dataset = self._dataset(dataset_id)
        self.disk.read(dataset_id, page_no)
        self._evict_to(self.available - 1)
        self._frames[key] = None
        return dataset.page_objects(page_no)

    def replay_hits(self, keys: Sequence[PageKey]) -> None:
        """Account a run of fetches of resident pages in one call.

        Leaves the pool, ``disk.stats.buffer_hits`` and the
        ``buffer.hits`` counter exactly as ``for key in keys:
        self.fetch(*key)`` leaves them when every key is buffered: one
        hit per key, and unless the policy is FIFO each distinct key
        moves to the most-recently-used end in order of its last access
        in ``keys``.  Raises ``KeyError`` (and changes nothing) if a key
        is not buffered — a caller replays only pages it has pinned.
        """
        # Distinct keys, latest access first.
        latest_first = dict.fromkeys(reversed(keys))
        if not latest_first.keys() <= self._frames.keys():
            absent = next(key for key in latest_first if key not in self._frames)
            raise KeyError(f"page {absent!r} is not buffered")
        if self.policy != "fifo":
            for key in reversed(latest_first):
                self._frames.move_to_end(key)
        if keys:
            self.disk.stats.buffer_hits += len(keys)
            if self.recorder.enabled:
                self.recorder.count("buffer.hits", len(keys))

    def load_batch(self, pages: Iterable[PageKey]) -> List[PageKey]:
        """Bring a page set into the buffer with optimally scheduled reads.

        Pages already buffered are refreshed (LRU) and *not* re-read; the
        remainder is read in ascending block order.  Returns the keys that
        were physically read.  The page set must fit in the available
        buffer frames.
        """
        wanted = list(dict.fromkeys(pages))
        if len(wanted) > self.available:
            raise ValueError(
                f"batch of {len(wanted)} pages exceeds the available buffer of "
                f"{self.available} frames"
            )
        missing = []
        hits = 0
        for key in wanted:
            if key in self._frames:
                if self.policy != "fifo":
                    self._frames.move_to_end(key)
                self.disk.stats.buffer_hits += 1
                hits += 1
            else:
                missing.append(key)
        if self.recorder.enabled:
            if hits:
                self.recorder.count("buffer.hits", hits)
            if missing:
                self.recorder.count("buffer.misses", len(missing))
        for key in plan_batch_read(self.disk, missing):
            dataset_id, page_no = key
            self._dataset(dataset_id)  # KeyError for an unattached dataset
            self.disk.read(dataset_id, page_no)
            self._evict_to(self.available - 1)
            self._frames[key] = None
        return missing

    def pinned(self, pages: Iterable[PageKey]) -> "PinnedBatch":
        """Stage a page set and pin it for the duration of a ``with`` block.

        ``with pool.pinned(page_nos) as staged:`` brings the pages into
        the buffer exactly like :meth:`load_batch` (same hit/miss/read
        accounting, same optimally scheduled reads) and additionally pins
        them: while the scope is open, no pinned page can be chosen as an
        eviction victim.  ``staged.missing`` lists the keys that were
        physically read.  Pins nest (a page pinned by two scopes stays
        pinned until both exit) and are released on scope exit even when
        the body raises.

        Under LRU the pins are pure insurance — :meth:`load_batch` never
        evicts a member of the batch it is loading, and re-fetching a
        staged page is always a hit — so the accounting is identical with
        or without the scope.  Under FIFO/MRU, whose victim choice can
        throw out a page of the very batch being staged, pinning prevents
        the re-read: strictly fewer (never more) physical reads.

        Raises ``ValueError`` if the requested pages (together with pages
        pinned by enclosing scopes) would exceed the available frames —
        over-pinning would make eviction impossible.
        """
        return PinnedBatch(self, list(dict.fromkeys(pages)))

    def pinned_pages(self) -> List[PageKey]:
        """Currently pinned page keys (unordered snapshot)."""
        return list(self._pins)

    def contains(self, dataset_id: Hashable, page_no: int) -> bool:
        """True iff the page is currently buffered (no LRU update)."""
        return (dataset_id, page_no) in self._frames

    def resident_pages(self) -> List[PageKey]:
        """Currently buffered page keys, least recently used first."""
        return list(self._frames)

    def clear(self) -> None:
        """Drop every buffered page (reservations stay)."""
        self._frames.clear()

    # -- internals ----------------------------------------------------------

    def _dataset(self, dataset_id: Hashable) -> PagedDataset:
        try:
            return self._datasets[dataset_id]
        except KeyError:
            raise KeyError(
                f"dataset {dataset_id!r} is not attached to this buffer pool"
            ) from None

    def _evict_to(self, frames: int) -> None:
        """Evict victims per policy until at most ``frames`` remain.

        LRU and FIFO evict from the cold end; MRU evicts the hottest frame.
        Pinned pages are skipped — the policy's order applies to the
        unpinned frames only.  Raises ``ValueError`` when the target is
        unreachable because every remaining frame is pinned.
        """
        target = max(frames, 0)
        evict_last = self.policy == "mru"
        if not self._pins:
            if self.recorder.enabled:
                while len(self._frames) > target:
                    (dataset_id, page_no), _ = self._frames.popitem(last=evict_last)
                    self.recorder.count("buffer.evictions")
                    self.recorder.event("buffer.evict", dataset=dataset_id, page=page_no)
                return
            while len(self._frames) > target:
                self._frames.popitem(last=evict_last)
            return
        while len(self._frames) > target:
            order = reversed(self._frames) if evict_last else iter(self._frames)
            victim = next((key for key in order if key not in self._pins), None)
            if victim is None:
                raise ValueError(
                    f"cannot evict to {target} frames: all "
                    f"{len(self._frames)} buffered pages are pinned"
                )
            del self._frames[victim]
            if self.recorder.enabled:
                dataset_id, page_no = victim
                self.recorder.count("buffer.evictions")
                self.recorder.event("buffer.evict", dataset=dataset_id, page=page_no)

    def _pin(self, keys: List[PageKey]) -> None:
        """Add one pin reference per key; validates the pin budget first."""
        new_distinct = sum(1 for key in set(keys) if key not in self._pins)
        if len(self._pins) + new_distinct > self.available:
            raise ValueError(
                f"pinning {len(keys)} pages (of which {new_distinct} newly "
                f"pinned, {len(self._pins)} already pinned) exceeds the "
                f"available buffer of {self.available} frames"
            )
        for key in keys:
            self._pins[key] = self._pins.get(key, 0) + 1

    def _unpin(self, keys: List[PageKey]) -> None:
        for key in keys:
            count = self._pins.get(key, 0)
            if count <= 1:
                self._pins.pop(key, None)
            else:
                self._pins[key] = count - 1


class PinnedBatch:
    """Context manager returned by :meth:`BufferPool.pinned`.

    Pins on entry, stages the page set with :meth:`BufferPool.load_batch`
    semantics, and unpins on exit.  ``missing`` holds the keys that were
    physically read (valid after ``__enter__``).
    """

    def __init__(self, pool: BufferPool, keys: List[PageKey]) -> None:
        self._pool = pool
        self._keys = keys
        self._active = False
        self.missing: List[PageKey] = []

    def __enter__(self) -> "PinnedBatch":
        if self._active:
            raise RuntimeError("PinnedBatch scope is not re-entrant")
        self._pool._pin(self._keys)
        self._active = True
        try:
            self.missing = self._pool.load_batch(self._keys)
        except BaseException:
            self._pool._unpin(self._keys)
            self._active = False
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._active:
            self._pool._unpin(self._keys)
            self._active = False


class BufferLease:
    """A granted frame lease from :meth:`BufferPool.try_lease`.

    Usable as a context manager; :meth:`release` is idempotent so an
    explicit early release followed by scope exit is safe.
    """

    def __init__(self, pool: BufferPool, frames: int) -> None:
        self._pool = pool
        self.frames = frames
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._pool._release_lease(self.frames)

    def __enter__(self) -> "BufferLease":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
