"""Per-entry conformance of the fused cluster cascade.

Every join method joins page pairs through
:meth:`~repro.core.joiners.PagePairJoiner.join_cluster`.  For any set of
distinct entries, diagonal ones included — random ones, and every
marked entry of a real SC schedule in schedule order, the set one serial
join's cascade takes — entry ``k`` of the returned
cluster result — its rows of the pair array, its count, comparisons and
modeled CPU — must equal the frozen per-page-pair oracle
(``tests/oracles/joiners.py``) on ``(row_k, col_k)`` bit for bit, pairs
in order, and one cascade must add the same semantic counters as the
oracle run entry by entry.  Only kernel invocation counts differ: one
per cascade instead of one per page pair.

``TestSequenceEquivalence`` checks the same on whole joins: ``join()``
with the cascade, serial and sharded, and a serial ``join()`` with the
oracle joining each marked page pair on its own give the same pairs in
order, every simulated cost and the same semantic counters.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.joiners import NumericPagePairJoiner, TextPagePairJoiner
from repro.core.join import IndexedDataset, join
from repro.costmodel import CostModel
from repro.datasets import markov_dna
from repro.distance.dtw import DTWDistance
from repro.distance.vector import MinkowskiDistance
from repro.obs import SHARDING_VARIANT_COUNTER_PREFIXES, InMemoryRecorder
from tests.oracles.joiners import PerPairJoiner, page_pair, per_entry

# The module, not the ``join`` function ``repro.core`` re-exports under
# the same name.
JOIN_MODULE = importlib.import_module("repro.core.join")

MODEL = CostModel(cpu_compare_s=1e-6)
INVOCATIONS = frozenset(
    {
        "kernel.minkowski.invocations",
        "kernel.dtw.invocations",
        "kernel.edit.invocations",
    }
)


def _semantic_counters(recorder: InMemoryRecorder) -> dict:
    counters = recorder.metrics_snapshot()["counters"]
    return {
        name: v
        for name, v in counters.items()
        if name not in INVOCATIONS
        and not name.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
    }


def _entry_sets(r, s, epsilon, self_join, seed, size=24):
    """Random distinct entries: mostly near page pairs, some far, and on
    self joins a few diagonal ones; three sets in random order."""
    rng = np.random.default_rng(seed)
    boxes_r, boxes_s = r.index.leaf_bounds(), s.index.leaf_bounds()
    near, far = [], []
    for row, box in enumerate(boxes_r):
        for col, other in enumerate(boxes_s):
            gap = box.min_dist(other, p=float("inf"))
            (near if gap <= 2 * epsilon else far).append((row, col))
    sets = []
    for _ in range(3):
        picks = [near[k] for k in rng.choice(len(near), min(size, len(near)), replace=False)]
        picks += [far[k] for k in rng.choice(len(far), min(4, len(far)), replace=False)]
        if self_join:
            diagonal = rng.choice(r.num_pages, 3, replace=False)
            picks += [(int(p), int(p)) for p in diagonal]
        picks = list(dict.fromkeys((int(a), int(b)) for a, b in picks))
        sets.append([picks[k] for k in rng.permutation(len(picks))])
    return sets


def _schedule_entries(r, s, epsilon):
    """Every marked entry of a real SC schedule, in schedule order — the
    entry set one cascade joins per serial join."""
    result = join(r, s, epsilon, method="sc", buffer_pages=10, keep_details=True)
    entries = [entry for cluster in result.clusters for entry in cluster.entries]
    assert len(entries) == result.report.extra["marked_entries"]
    return entries


def _assert_conforms(make_joiner, entries):
    fused_rec, oracle_rec = InMemoryRecorder(), InMemoryRecorder()
    fused = per_entry(make_joiner(fused_rec).join_cluster(entries))
    oracle = make_joiner(oracle_rec)
    expected = [page_pair(oracle, row, col) for row, col in entries]
    assert len(fused) == len(entries)
    for entry, got, want in zip(entries, fused, expected):
        assert got[0] == want[0], entry  # pairs, in order
        assert got[1:] == want[1:], entry  # count, comparisons, cpu
        assert [type(v) for v in got[1:]] == [int, int, float], entry
    assert _semantic_counters(fused_rec) == _semantic_counters(oracle_rec)
    return expected


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    centers = rng.random((6, 2))
    r = centers[rng.integers(0, 6, 360)] + rng.normal(scale=0.06, size=(360, 2))
    s = centers[rng.integers(0, 6, 260)] + rng.normal(scale=0.06, size=(260, 2))
    return (
        IndexedDataset.from_points(r, page_capacity=16),
        IndexedDataset.from_points(s, page_capacity=16),
    )


def _walk_pair(**kwargs):
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(size=500))
    r = IndexedDataset.from_time_series(
        walk, window_length=12, windows_per_page=24, **kwargs
    )
    s = IndexedDataset.from_time_series(
        walk[50:450] + rng.normal(scale=0.05, size=400),
        window_length=12, windows_per_page=24, **kwargs,
    )
    return r, s


@pytest.fixture(scope="module")
def walks():
    return _walk_pair()


@pytest.fixture(scope="module")
def dtw_walks():
    return _walk_pair(dtw_band=2)


@pytest.fixture(scope="module")
def texts():
    r = IndexedDataset.from_string(
        markov_dna(1200, seed=5, repeat_share=0.1), window_length=8,
        windows_per_page=24,
    )
    s = IndexedDataset.from_string(
        markov_dna(900, seed=6), window_length=8, windows_per_page=24
    )
    return r, s


def _sides(pair, join_kind):
    r, s = pair
    return (r, r) if join_kind == "self" else (r, s)


class TestVectorConformance:
    @pytest.mark.parametrize("p, epsilon", [(1.0, 0.05), (2.0, 0.04), (np.inf, 0.03)])
    @pytest.mark.parametrize("join_kind", ["cross", "self"])
    @pytest.mark.parametrize("collect_pairs", [True, False], ids=["pairs", "count_only"])
    def test_minkowski(self, points, p, epsilon, join_kind, collect_pairs):
        r, s = _sides(points, join_kind)
        self_join = r is s

        def make(recorder):
            return NumericPagePairJoiner(
                r.paged, s.paged, MinkowskiDistance(p), epsilon, MODEL,
                self_join, collect_pairs=collect_pairs, recorder=recorder,
            )

        found = 0
        entry_sets = _entry_sets(r, s, epsilon, self_join, seed=7)
        entry_sets.append(_schedule_entries(r, s, epsilon))
        for entries in entry_sets:
            found += sum(res[1] for res in _assert_conforms(make, entries))
        assert found > 0, "calibration: the entry sets should hold results"


class TestSequenceConformance:
    @pytest.mark.parametrize(
        "distance, data, epsilon",
        [(MinkowskiDistance(2.0), "walks", 4.0), (DTWDistance(2), "dtw_walks", 0.6)],
        ids=["l2", "dtw"],
    )
    @pytest.mark.parametrize("join_kind", ["cross", "self"])
    @pytest.mark.parametrize("collect_pairs", [True, False], ids=["pairs", "count_only"])
    def test_windows(self, request, distance, data, epsilon, join_kind, collect_pairs):
        r, s = _sides(request.getfixturevalue(data), join_kind)
        self_join = r is s

        def make(recorder):
            return NumericPagePairJoiner(
                r.paged, s.paged, distance, epsilon, MODEL, self_join,
                collect_pairs=collect_pairs, recorder=recorder,
            )

        found = 0
        entry_sets = _entry_sets(r, s, epsilon, self_join, seed=5)
        entry_sets.append(_schedule_entries(r, s, epsilon))
        for entries in entry_sets:
            found += sum(res[1] for res in _assert_conforms(make, entries))
        assert found > 0, "calibration: the entry sets should hold results"

    @pytest.mark.parametrize("epsilon", [0, 1, 2])
    @pytest.mark.parametrize("join_kind", ["cross", "self"])
    @pytest.mark.parametrize("collect_pairs", [True, False], ids=["pairs", "count_only"])
    def test_text(self, texts, epsilon, join_kind, collect_pairs):
        # The three regimes: Hamming-only accept (0), Hamming accept and
        # reject (1), and the banded DP behind the Hamming filter (2).
        r, s = _sides(texts, join_kind)
        self_join = r is s

        def make(recorder):
            return TextPagePairJoiner(
                r.paged, s.paged, r.features, s.features, epsilon, MODEL,
                self_join, collect_pairs=collect_pairs, recorder=recorder,
            )

        found = 0
        entry_sets = _entry_sets(r, s, epsilon, self_join, seed=epsilon)
        entry_sets.append(_schedule_entries(r, s, epsilon))
        for entries in entry_sets:
            found += sum(res[1] for res in _assert_conforms(make, entries))
        assert found > 0, "calibration: the entry sets should hold results"


def _run_join(monkeypatch, r, s, epsilon, *, workers, per_pair):
    """``join()``; with ``per_pair`` its joiner is the per-pair oracle."""
    rec = InMemoryRecorder()
    with monkeypatch.context() as patch:
        if per_pair:
            make = JOIN_MODULE._make_joiner
            patch.setattr(
                JOIN_MODULE, "_make_joiner",
                lambda *args, **kwargs: PerPairJoiner(make(*args, **kwargs)),
            )
        result = join(
            r, s, epsilon, buffer_pages=10, workers=workers, recorder=rec
        )
    return result, rec


def _assert_identical(monkeypatch, r, s, epsilon, workers):
    """The cascade join at ``workers`` equals the serial per-pair oracle
    join bit for bit (the oracle joiner cannot be shipped to shards)."""
    base_result, base_rec = _run_join(
        monkeypatch, r, s, epsilon, workers=1, per_pair=True
    )
    cand_result, cand_rec = _run_join(
        monkeypatch, r, s, epsilon, workers=workers, per_pair=False
    )
    assert cand_result.pairs == base_result.pairs
    br, cr = base_result.report, cand_result.report
    assert cr.result_pairs == br.result_pairs
    assert cr.comparisons == br.comparisons
    assert cr.cpu_seconds == br.cpu_seconds
    assert cr.io_seconds == br.io_seconds
    assert cr.page_reads == br.page_reads
    assert cr.seeks == br.seeks
    assert cr.buffer_hits == br.buffer_hits
    assert cr.extra["pages_reused"] == br.extra["pages_reused"]
    assert _semantic_counters(cand_rec) == _semantic_counters(base_rec)
    return cand_result


@pytest.fixture(scope="module")
def series_pair():
    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.normal(size=600))
    r = IndexedDataset.from_time_series(walk, window_length=16, windows_per_page=32)
    s = IndexedDataset.from_time_series(
        walk[100:500] + rng.normal(scale=0.05, size=400),
        window_length=16,
        windows_per_page=32,
    )
    return r, s


class TestSequenceEquivalence:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_series_window_join_matches(self, monkeypatch, series_pair, workers):
        r, s = series_pair
        _assert_identical(monkeypatch, r, s, 0.5, workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dtw_join_matches(self, monkeypatch, dtw_walks, workers):
        r, s = dtw_walks
        result = _assert_identical(monkeypatch, r, s, 0.6, workers)
        assert result.num_pairs > 0

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0])
    def test_text_join_matches(self, monkeypatch, texts, workers, epsilon):
        # epsilon spans the joiner's three regimes: Hamming-only accept
        # (0), Hamming accept/reject (1), and the DP fallback (2).
        r, s = texts
        _assert_identical(monkeypatch, r, s, epsilon, workers)


class TestNonLruPolicies:
    """FIFO/MRU pick other victims than LRU, but each cluster's pages stay
    pinned while it is staged: results equal the LRU run's and no cluster
    reads more than its ``r + c`` pages (Lemma 2)."""

    @pytest.mark.parametrize("policy", ["fifo", "mru"])
    def test_results_equal_and_reads_bounded(self, vector_pair, policy):
        r, s = vector_pair
        lru = join(r, s, 0.05, buffer_pages=10)
        rec = InMemoryRecorder()
        other = join(
            r, s, 0.05, buffer_pages=10, buffer_policy=policy, recorder=rec,
            keep_details=True,
        )
        assert other.pairs == lru.pairs
        assert other.report.comparisons == lru.report.comparisons
        counters = rec.metrics_snapshot()["counters"]
        assert counters["lemma.clusters_audited"] == len(other.clusters)
        assert counters.get("lemma.violations", 0) == 0
        assert other.report.page_reads <= sum(c.num_pages for c in other.clusters)
