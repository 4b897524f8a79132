"""Storage substrate: simulated linear disk, LRU buffer pool, paged datasets.

Every join technique in this package performs its page reads through a
:class:`~repro.storage.buffer.BufferPool` backed by a
:class:`~repro.storage.disk.SimulatedDisk`, so I/O counts, seek counts and
simulated I/O seconds are accounted uniformly and comparably.
"""

from repro.storage.buffer import REPLACEMENT_POLICIES, BufferPool, PinnedBatch
from repro.storage.disk import SimulatedDisk
from repro.storage.page import (
    PageBlock,
    PagedDataset,
    SequencePagedDataset,
    VectorPagedDataset,
)
from repro.storage.persist import (
    dataset_fingerprint,
    load_dataset,
    matrix_cache_key,
    save_dataset,
)
from repro.storage.scheduler import plan_batch_read
from repro.storage.stats import CostReport, IOStats
from repro.storage.trace import AccessTrace, TraceSummary

__all__ = [
    "BufferPool",
    "PinnedBatch",
    "REPLACEMENT_POLICIES",
    "SimulatedDisk",
    "PagedDataset",
    "PageBlock",
    "VectorPagedDataset",
    "SequencePagedDataset",
    "plan_batch_read",
    "IOStats",
    "CostReport",
    "save_dataset",
    "load_dataset",
    "dataset_fingerprint",
    "matrix_cache_key",
    "AccessTrace",
    "TraceSummary",
]
