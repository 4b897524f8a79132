"""A deterministic linear-disk simulator.

The paper assumes "a finite buffer of B pages and a linear disk model"
(Section 4).  This module is that disk: datasets are laid out contiguously
on a one-dimensional block address space, the head position is tracked, and
every read charges either a sequential transfer or a seek + transfer
against the active :class:`~repro.costmodel.CostModel`.

The distinction between sequential runs and random seeks is load-bearing:
it is what the CC clustering (Section 7.2) and Seeger-style batch
scheduling (Section 8) optimise, and it is why EGO/BFRJ deteriorate on
sequence data (they cannot avoid random seeks there).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Tuple

from repro.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.storage.stats import IOStats

__all__ = ["SimulatedDisk", "ReadSubscriber", "StreamSubscriber"]

PageKey = Tuple[Hashable, int]

# Called after every accounted page read with
# (dataset_id, page_no, block, sequential).  ``sequential`` is the
# disk's own head-movement verdict — the single source of truth for the
# seek definition (the first read of a disk is never sequential).
ReadSubscriber = Callable[[Hashable, int, int, bool], None]

# Called after every bulk :meth:`SimulatedDisk.charge_stream` with
# (transfers, seeks).  Stream charges have no per-page identity, so they
# get their own channel instead of synthesising fake page reads.
StreamSubscriber = Callable[[int, int], None]


class SimulatedDisk:
    """Block-addressed read-only disk holding one or more paged datasets.

    Datasets register with :meth:`place` and receive a contiguous extent.
    Reads are addressed by ``(dataset_id, page_no)``; the disk resolves the
    physical block, charges transfer (plus a seek when the block is not the
    successor of the previously read block) and advances the head.

    Observability: every read is offered to registered
    :meth:`subscribe` callbacks (this is how
    :class:`~repro.storage.trace.AccessTrace` listens, replacing the old
    ``disk.read`` monkeypatch), and counted on the attached ``recorder``
    (``disk.reads`` / ``disk.seeks``) when one is recording.
    """

    def __init__(
        self,
        cost_model: CostModel | None = None,
        recorder: Recorder | None = None,
    ) -> None:
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.stats = IOStats()
        self._extents: Dict[Hashable, Tuple[int, int]] = {}
        self._next_block = 0
        self._head = -2  # sentinel: first read always seeks
        self._subscribers: List[ReadSubscriber] = []
        self._stream_subscribers: List[StreamSubscriber] = []

    # -- observability --------------------------------------------------------

    def subscribe(self, callback: ReadSubscriber) -> ReadSubscriber:
        """Register a callback invoked after every accounted page read.

        Bulk :meth:`charge_stream` accounting is *not* forwarded here (it
        has no per-page identity by design) — use :meth:`subscribe_stream`
        for those.  Returns the callback so the method can be used as a
        decorator.
        """
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: ReadSubscriber) -> None:
        self._subscribers.remove(callback)

    def subscribe_stream(self, callback: StreamSubscriber) -> StreamSubscriber:
        """Register a callback invoked after every bulk stream charge.

        Together with :meth:`subscribe`, a pair of callbacks observes
        every accounted I/O event on the disk — which is how the EXPLAIN
        layer's :class:`~repro.obs.metrics.DiskCostReplayer` reconciles
        predicted against charged I/O seconds exactly.
        """
        self._stream_subscribers.append(callback)
        return callback

    def unsubscribe_stream(self, callback: StreamSubscriber) -> None:
        self._stream_subscribers.remove(callback)

    # -- layout -------------------------------------------------------------

    def place(self, dataset_id: Hashable, num_pages: int) -> int:
        """Allocate a contiguous extent of ``num_pages`` blocks.

        Returns the base block address.  Placing the same dataset twice is
        an error: physical layout is fixed for the lifetime of the disk.
        """
        if num_pages <= 0:
            raise ValueError(f"num_pages must be positive, got {num_pages}")
        if dataset_id in self._extents:
            raise ValueError(f"dataset {dataset_id!r} is already placed on this disk")
        base = self._next_block
        self._extents[dataset_id] = (base, num_pages)
        self._next_block += num_pages
        return base

    def is_placed(self, dataset_id: Hashable) -> bool:
        """True iff ``dataset_id`` has an extent on this disk."""
        return dataset_id in self._extents

    def block_of(self, dataset_id: Hashable, page_no: int) -> int:
        """Physical block address of a dataset page."""
        try:
            base, size = self._extents[dataset_id]
        except KeyError:
            raise KeyError(f"dataset {dataset_id!r} is not placed on this disk") from None
        if not 0 <= page_no < size:
            raise IndexError(
                f"page {page_no} out of range for dataset {dataset_id!r} with {size} pages"
            )
        return base + page_no

    # -- access -------------------------------------------------------------

    def read(self, dataset_id: Hashable, page_no: int) -> None:
        """Charge one page read and move the head.

        The disk stores no payloads — datasets keep their data in memory and
        the buffer pool mediates logical access; this method only performs
        the *accounting* for the physical read.
        """
        block = self.block_of(dataset_id, page_no)
        sequential = block == self._head + 1
        self.stats.transfers += 1
        if not sequential:
            self.stats.seeks += 1
        self.stats.io_seconds += self.cost_model.io_cost(
            transfers=1, seeks=0 if sequential else 1
        )
        self._head = block
        if self.recorder.enabled:
            self.recorder.count("disk.reads")
            if not sequential:
                self.recorder.count("disk.seeks")
        for callback in self._subscribers:
            callback(dataset_id, page_no, block, sequential)

    def charge_stream(self, transfers: int, seeks: int = 1) -> None:
        """Charge a modeled bulk sequential read without per-page calls.

        Streaming scans (NLJ's inner loops, EGO's re-sort pass) read whole
        extents front to back; charging them page by page through
        :meth:`read` would only burn simulation CPU.  The head position is
        invalidated (next read seeks), which is what a full scan does.
        """
        if transfers < 0 or seeks < 0:
            raise ValueError("transfers and seeks must be non-negative")
        self.stats.transfers += transfers
        self.stats.seeks += seeks
        self.stats.io_seconds += self.cost_model.io_cost(transfers, seeks)
        self._head = -2
        if self.recorder.enabled:
            self.recorder.count("disk.stream_transfers", transfers)
            self.recorder.count("disk.stream_seeks", seeks)
        for callback in self._stream_subscribers:
            callback(transfers, seeks)

    # -- analytics ------------------------------------------------------------

    def cost_of_read_set(self, pages: Iterable[PageKey]) -> float:
        """Cost of reading a page set in optimal (sorted) order, hypothetically.

        Does not touch the head or the counters; used by the CC clustering
        to evaluate candidate cluster expansions (Section 7.2) and by tests.
        Assumes the head needs an initial seek.
        """
        blocks = sorted(self.block_of(ds, p) for ds, p in pages)
        if not blocks:
            return 0.0
        seeks = 1 + sum(
            1 for prev, cur in zip(blocks, blocks[1:]) if cur != prev + 1
        )
        return self.cost_model.io_cost(transfers=len(blocks), seeks=seeks)

    @property
    def head_block(self) -> int:
        """Current physical head position (block of the last read)."""
        return self._head

    @property
    def total_blocks(self) -> int:
        """Number of allocated blocks across all datasets."""
        return self._next_block
