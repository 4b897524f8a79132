"""Join results as one read-only int64 array that reads like a pair list."""

import gc
import pickle
import sys

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.core.joiners import NumericPagePairJoiner, TextPagePairJoiner
from repro.core.pairs import ResultPairs
from repro.core.sharding import shutdown_shard_pools
from repro.costmodel import DEFAULT_COST_MODEL
from repro.datasets.genome import markov_dna
from repro.sequence.subjoin import subsequence_join

EPSILON = 0.02
BUFFER = 13


@pytest.fixture(scope="module")
def points():
    """About 45k pairs: more than two of the sequence's iteration chunks."""
    rng = np.random.default_rng(3)
    r = IndexedDataset.from_points(rng.random((6000, 2)))
    s = IndexedDataset.from_points(rng.random((6000, 2)))
    return r, s


@pytest.fixture(scope="module")
def point_join(points):
    r, s = points
    return join(r, s, EPSILON, buffer_pages=BUFFER, keep_details=True)


def _schedule_order(joiner, clusters):
    """The pairs as the per-cluster joins list them, in schedule order:
    the list of Python tuples a join returned before results stayed
    arrays."""
    return [
        (int(a), int(b))
        for cluster in clusters
        for a, b in joiner.join_cluster(cluster.entries).pairs
    ]


def _check_sequence(pairs, expected):
    """Everything the list of tuples did, ``pairs`` does."""
    assert type(pairs) is ResultPairs
    got = list(pairs)
    assert got == expected
    assert all(type(a) is int and type(b) is int for a, b in got)
    assert len(pairs) == len(expected)
    assert pairs == expected and expected == pairs
    assert pairs == tuple(expected)
    assert pairs == ResultPairs(np.array(expected, dtype=np.int64).reshape(-1, 2))
    assert (-1, -1) not in pairs
    with pytest.raises(TypeError):
        hash(pairs)
    restored = pickle.loads(pickle.dumps(pairs))
    assert type(restored) is ResultPairs and restored == pairs
    array = np.asarray(pairs)
    assert array.dtype == np.int64 and array.shape == (len(expected), 2)
    assert not array.flags.writeable
    assert np.asarray(pairs) is array
    if not expected:
        return
    middle = len(expected) // 2
    assert pairs[0] == expected[0] and pairs[-1] == expected[-1]
    assert pairs[middle] == expected[middle]
    assert type(pairs[middle][0]) is int
    assert pairs[1:5] == expected[1:5] and pairs[::7] == expected[::7]
    assert pairs[-3:] == expected[-3:]
    assert expected[middle] in pairs and expected[-1] in pairs
    assert list(expected[middle]) not in pairs  # a list never equals a tuple
    assert pairs != expected[::-1] and pairs != expected[:-1]
    assert pairs != tuple(expected[1:] + expected[:1])
    with pytest.raises(IndexError):
        pairs[len(expected)]


class TestJoinResults:
    def test_point_join_pairs(self, points, point_join):
        r, s = points
        joiner = NumericPagePairJoiner(
            r.paged, s.paged, r.distance, EPSILON, DEFAULT_COST_MODEL, False
        )
        expected = _schedule_order(joiner, point_join.clusters)
        assert len(expected) == point_join.num_pairs > 2 * (1 << 14)
        _check_sequence(point_join.pairs, expected)

    def test_count_only_is_an_empty_sequence(self, points, point_join):
        r, s = points
        counted = join(r, s, EPSILON, buffer_pages=BUFFER, count_only=True)
        assert counted.num_pairs == point_join.num_pairs
        assert counted.pairs == [] and counted.pairs == ()
        assert not counted.pairs
        _check_sequence(counted.pairs, [])

    def test_subsequence_offsets(self):
        dna = markov_dna(3000, seed=4)
        ds = IndexedDataset.from_string(dna, window_length=48, windows_per_page=64)
        planned = join(ds, ds, 2, buffer_pages=24, keep_details=True)
        joiner = TextPagePairJoiner(
            ds.paged, ds.paged, ds.features, ds.features, 2,
            DEFAULT_COST_MODEL, True,
        )
        expected = _schedule_order(joiner, planned.clusters)
        result = subsequence_join(
            dna, None, window_length=48, epsilon=2, buffer_pages=24,
            windows_per_page=64,
        )
        assert result.num_pairs == len(expected) > 100
        _check_sequence(result.offsets, expected)


class TestHeldResult:
    """A held result keeps O(1) Python objects, not one tuple per pair."""

    @staticmethod
    def _blocks_held(run) -> int:
        run()  # warm lazy imports and caches
        gc.collect()
        before = sys.getallocatedblocks()
        result = run()
        gc.collect()
        held = sys.getallocatedblocks() - before
        assert result.num_pairs > 40_000
        return held

    def test_serial_join(self, points):
        r, s = points
        held = self._blocks_held(lambda: join(r, s, EPSILON, buffer_pages=BUFFER))
        assert held < 1_000

    def test_sharded_join_on_a_warm_pool(self, points):
        r, s = points
        try:
            held = self._blocks_held(
                lambda: join(r, s, EPSILON, buffer_pages=BUFFER, workers=2)
            )
        finally:
            shutdown_shard_pools()
        assert held < 1_000


class TestResultPairs:
    def test_wraps_the_array_without_copying(self):
        source = np.arange(12, dtype=np.int64).reshape(6, 2)
        pairs = ResultPairs(source)
        array = np.asarray(pairs)
        assert np.shares_memory(array, source)
        assert not array.flags.writeable
        assert source.flags.writeable  # the caller's array keeps its flags
        with pytest.raises(ValueError):
            array[0, 0] = 99
        assert np.asarray(pairs, dtype=np.int64) is array
        copied = np.array(pairs)
        assert copied.flags.writeable and not np.shares_memory(copied, source)
        assert np.asarray(pairs, dtype=np.float64).dtype == np.float64

    def test_slices_share_the_array(self):
        source = np.arange(12, dtype=np.int64).reshape(6, 2)
        head = ResultPairs(source)[:3]
        assert type(head) is ResultPairs and head == [(0, 1), (2, 3), (4, 5)]
        assert np.shares_memory(np.asarray(head), source)

    def test_membership_compares_like_a_list(self):
        pairs = ResultPairs(np.array([[1, 2], [3, 4]], dtype=np.int64))
        assert (3, 4) in pairs and (np.int64(1), np.int64(2)) in pairs
        assert (3.0, 4.0) in pairs and (True, 2) in pairs
        assert (4, 3) not in pairs and (3, 4.5) not in pairs
        assert (2**70, 4) not in pairs and (3, 4, 5) not in pairs
        assert "ab" not in pairs and 3 not in pairs

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            ResultPairs(np.arange(6, dtype=np.int64))
        with pytest.raises(ValueError):
            ResultPairs(np.zeros((2, 3), dtype=np.int64))
