"""``BufferPool.replay_hits`` against the per-entry fetch loop it replaced.

The executor's staging replay used to fetch each entry's two pages one
call at a time inside the cluster's pin scope (:func:`fetch_each_entry`,
frozen here).  ``replay_hits`` must leave the same resident order, the
same disk statistics and the same recorder counters, under every
replacement policy, for cross and self joins (whose row and col keys
collide), whatever the pool held before.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel
from repro.obs import InMemoryRecorder
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import VectorPagedDataset

PAGES = 12
MODEL = CostModel(seek_s=0.010, transfer_s=0.001, cpu_compare_s=1e-6)


def fetch_each_entry(pool, r_id, s_id, entries):
    """The executor's staging replay before ``replay_hits``: one fetch
    per entry side, in entry order."""
    for row, col in entries:
        pool.fetch(r_id, row)
        pool.fetch(s_id, col)


def _dataset(name):
    data = np.arange(4 * PAGES, dtype=float).reshape(2 * PAGES, 2)
    return VectorPagedDataset(data, objects_per_page=2, dataset_id=name)


def _staged(policy, self_join, warmup, entries, outer_pins, replay):
    """Pool state after a warm-up and one cluster's pin-scoped staging."""
    recorder = InMemoryRecorder()
    disk = SimulatedDisk(MODEL, recorder=recorder)
    pool = BufferPool(disk, capacity=8, policy=policy, recorder=recorder)
    r = _dataset("r")
    s = r if self_join else _dataset("s")
    pool.attach(r)
    pool.attach(s)
    for dataset_id, page in warmup:
        pool.fetch("r" if self_join else dataset_id, page)
    wanted = sorted(
        {("r", row) for row, _ in entries}
        | {(s.dataset_id, col) for _, col in entries}
    )
    with pool.pinned([key for key in outer_pins if key in wanted]):
        with pool.pinned(wanted):
            if replay:
                pool.replay_hits(
                    [
                        key
                        for row, col in entries
                        for key in (("r", row), (s.dataset_id, col))
                    ]
                )
            else:
                fetch_each_entry(pool, "r", s.dataset_id, entries)
        pinned = pool.pinned_pages()
    return (
        pool.resident_pages(),
        asdict(disk.stats),
        recorder.metrics_snapshot()["counters"],
        pinned,
    )


@st.composite
def clusters(draw):
    """A warm-up fetch sequence, and a cluster of at most eight pages."""
    self_join = draw(st.booleans())
    rows = draw(st.lists(st.integers(0, PAGES - 1), min_size=1, max_size=4, unique=True))
    cols = draw(st.lists(st.integers(0, PAGES - 1), min_size=1, max_size=4, unique=True))
    pairs = [(row, col) for row in rows for col in cols]
    entries = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True)
    )
    warmup = draw(
        st.lists(st.tuples(st.sampled_from(["r", "s"]), st.integers(0, PAGES - 1)),
                 max_size=20)
    )
    outer_pins = draw(
        st.lists(st.tuples(st.just("r"), st.integers(0, PAGES - 1)), max_size=3)
    )
    return self_join, warmup, entries, outer_pins


class TestReplayHits:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "mru"])
    @given(cluster=clusters())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_per_entry_loop(self, policy, cluster):
        self_join, warmup, entries, outer_pins = cluster
        args = (policy, self_join, warmup, entries, outer_pins)
        assert _staged(*args, replay=True) == _staged(*args, replay=False)

    def test_counts_every_access_and_orders_by_last_access(self, cost_model):
        disk = SimulatedDisk(cost_model)
        pool = BufferPool(disk, capacity=4)
        pool.attach(_dataset("d"))
        for page in (0, 1, 2, 3):
            pool.fetch("d", page)
        pool.replay_hits([("d", 2), ("d", 0), ("d", 2), ("d", 1)])
        assert disk.stats.buffer_hits == 4
        assert pool.resident_pages() == [("d", 3), ("d", 0), ("d", 2), ("d", 1)]

    def test_absent_key_raises_and_changes_nothing(self, cost_model):
        recorder = InMemoryRecorder()
        disk = SimulatedDisk(cost_model, recorder=recorder)
        pool = BufferPool(disk, capacity=4, recorder=recorder)
        pool.attach(_dataset("d"))
        for page in (0, 1):
            pool.fetch("d", page)
        before = (pool.resident_pages(), asdict(disk.stats),
                  recorder.metrics_snapshot()["counters"])
        with pytest.raises(KeyError, match="not buffered"):
            pool.replay_hits([("d", 0), ("d", 5)])
        after = (pool.resident_pages(), asdict(disk.stats),
                 recorder.metrics_snapshot()["counters"])
        assert after == before

    def test_fetch_builds_the_payload_at_each_call(self, cost_model):
        pool = BufferPool(SimulatedDisk(cost_model), capacity=4)
        dataset = _dataset("d")
        pool.attach(dataset)
        pool.load_batch([("d", 3)])
        assert np.array_equal(pool.fetch("d", 3), dataset.page_objects(3))
        assert pool.fetch("d", 3) is not pool.fetch("d", 3)
