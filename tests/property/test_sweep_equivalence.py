"""Vectorized block sweep vs. brute force and vs. the reference sweep.

The prediction matrix is defined point-wise: page pair ``(i, j)`` is
marked iff the L∞ box distance between the two page MBRs is at most ε
(equivalently, the ε/2-extended boxes intersect).  The block sweep must
reproduce exactly that set on *any* hierarchy — including ε = 0, boxes
that touch exactly at distance ε, and duplicate coordinates that stress
the sorted-search tie handling — and must additionally match the frozen
reference implementation counter for counter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.filtering import iterative_filter
from repro.core.join import IndexedDataset
from repro.core.sweep import SweepStats, block_sweep_pairs, build_prediction_matrix
from repro.geometry import BoxArray, Rect
from repro.index.node import PageIndex
from repro.obs.recorder import Histogram, InMemoryRecorder
from tests.oracles.sweep_reference import build_prediction_matrix_reference

HISTOGRAMS = ("sweep.block_size", "filter.round_survivors")


def brute_force_marks(index_r, index_s, epsilon):
    """All-pairs L∞ ``min_dist <= eps`` over the page MBRs."""
    dists = index_r.leaf_bounds().min_dist_matrix(index_s.leaf_bounds(), p=float("inf"))
    rows, cols = np.nonzero(dists <= epsilon)
    return set(zip(rows.tolist(), cols.tolist()))


def spatial_dataset(rng, n, d, page_capacity=8, duplicates=False, integer_grid=False):
    pts = rng.random((n, d))
    if integer_grid:
        # Small-integer coordinates: extended boxes touch *exactly* at
        # epsilon multiples, and coordinates repeat across points.
        pts = np.floor(pts * 6)
    if duplicates:
        # Repeat a block of points so leaf boxes share identical edges.
        pts[n // 2 :] = pts[: n - n // 2]
    return IndexedDataset.from_points(pts, page_capacity=page_capacity)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.3])
    def test_rstar_hierarchies(self, rng, d, epsilon):
        r = spatial_dataset(rng, 150, d)
        s = spatial_dataset(rng, 130, d)
        matrix, _ = build_prediction_matrix(r.index, s.index, epsilon)
        assert set(matrix.entries()) == brute_force_marks(r.index, s.index, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, 2.0])
    def test_touching_boxes_and_duplicate_coordinates(self, rng, epsilon):
        """Integer grids make ε-extended boxes touch exactly; duplicates
        make endpoint ties ubiquitous in the sorted sweep order."""
        r = spatial_dataset(rng, 120, 2, duplicates=True, integer_grid=True)
        s = spatial_dataset(rng, 120, 2, duplicates=True, integer_grid=True)
        matrix, _ = build_prediction_matrix(r.index, s.index, epsilon)
        assert set(matrix.entries()) == brute_force_marks(r.index, s.index, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 2.0])
    def test_mr_index_hierarchies(self, rng, epsilon):
        """Sequence-window hierarchies (MR-index) sweep identically."""
        series_r = rng.normal(size=700).cumsum()
        series_s = rng.normal(size=600).cumsum()
        r = IndexedDataset.from_time_series(series_r, window_length=8, windows_per_page=32)
        s = IndexedDataset.from_time_series(series_s, window_length=8, windows_per_page=32)
        matrix, _ = build_prediction_matrix(r.index, s.index, epsilon)
        assert set(matrix.entries()) == brute_force_marks(r.index, s.index, epsilon)

    def test_self_join_hierarchy(self, rng):
        ds = spatial_dataset(rng, 160, 3)
        matrix, _ = build_prediction_matrix(ds.index, ds.index, 0.1)
        assert set(matrix.entries()) == brute_force_marks(ds.index, ds.index, 0.1)


class TestAgainstReference:
    """Marks must be set-identical and SweepStats counter-identical."""

    @pytest.mark.parametrize("max_filter_rounds", [0, 1, 5])
    @pytest.mark.parametrize("d,epsilon", [(2, 0.1), (2, 0.0), (5, 0.4), (16, 1.0)])
    def test_marks_and_stats_identical(self, rng, d, epsilon, max_filter_rounds):
        r = spatial_dataset(rng, 200, d)
        s = spatial_dataset(rng, 180, d)
        got, got_stats = build_prediction_matrix(
            r.index, s.index, epsilon,
            max_filter_rounds=max_filter_rounds,
        )
        want, want_stats = build_prediction_matrix_reference(
            r.index, s.index, epsilon,
            max_filter_rounds=max_filter_rounds,
        )
        assert got == want
        assert got_stats == want_stats

    def test_duplicate_coordinates_stats_identical(self, rng):
        r = spatial_dataset(rng, 140, 2, duplicates=True, integer_grid=True)
        s = spatial_dataset(rng, 140, 2, duplicates=True, integer_grid=True)
        got, got_stats = build_prediction_matrix(r.index, s.index, 1.0)
        want, want_stats = build_prediction_matrix_reference(r.index, s.index, 1.0)
        assert got == want
        assert got_stats == want_stats


def assert_matches_reference(index_r, index_s, epsilon, max_filter_rounds):
    """Marks, every SweepStats field and both histograms equal the oracle's."""
    recorder = InMemoryRecorder()
    got, got_stats = build_prediction_matrix(
        index_r, index_s, epsilon, max_filter_rounds=max_filter_rounds,
        recorder=recorder,
    )
    observed = {}
    want, want_stats = build_prediction_matrix_reference(
        index_r, index_s, epsilon, max_filter_rounds=max_filter_rounds,
        observe=lambda name, value: observed.setdefault(name, Histogram()).add(value),
    )
    assert got == want
    assert got_stats == want_stats
    for name in HISTOGRAMS:
        got_hist = recorder.histograms.get(name)
        want_hist = observed.get(name)
        assert (got_hist is None) == (want_hist is None), name
        if want_hist is not None:
            assert got_hist.to_dict() == want_hist.to_dict(), name


@st.composite
def leaf_hierarchies(draw):
    """Two packed hierarchies over random leaf boxes, plus an ε.

    Page counts, fanouts and dimensions vary independently per side, so
    tree heights differ and either side may be a single page.  Integer
    grids put box edges at exact multiples of ε (boxes touch at exactly
    distance ε) and repeat coordinates across boxes.
    """
    dim = draw(st.integers(1, 60))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indexes = []
    for _side in range(2):
        pages = draw(st.sampled_from([1, 2, 3, 7, 16, 40, 150]))
        fanout = draw(st.integers(2, 64))
        if grid:
            lo = np.floor(rng.random((pages, dim)) * 4)
            hi = lo + rng.integers(0, 2, size=(pages, dim))
        else:
            lo = rng.random((pages, dim))
            hi = lo + rng.random((pages, dim)) * draw(st.sampled_from([0.05, 0.4]))
        if pages > 1 and draw(st.booleans()):
            # Duplicate a block of boxes: identical edges everywhere.
            half = pages // 2
            lo[half:], hi[half:] = lo[: pages - half].copy(), hi[: pages - half].copy()
        indexes.append(PageIndex.pack(BoxArray(lo, hi), fanout, np.arange(pages)))
    epsilon = draw(st.sampled_from([0.0, 1.0, 2.0] if grid else [0.0, 0.05, 0.3]))
    return indexes[0], indexes[1], epsilon


class TestRandomHierarchies:
    """The level-by-level descent against the per-node-pair oracle."""

    @settings(max_examples=150, deadline=None)
    @given(case=leaf_hierarchies(), max_filter_rounds=st.sampled_from([0, 1, 5]))
    def test_matches_reference(self, case, max_filter_rounds):
        index_r, index_s, epsilon = case
        assert_matches_reference(index_r, index_s, epsilon, max_filter_rounds)

    @pytest.mark.parametrize("max_filter_rounds", [0, 1, 5])
    @pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.5])
    def test_deep_tree_against_one_page(self, rng, epsilon, max_filter_rounds):
        """600 points at 4 per page (150 pages, three levels) against one page."""
        deep = IndexedDataset.from_points(rng.random((600, 3)), page_capacity=4)
        single = IndexedDataset.from_points(rng.random((3, 3)), page_capacity=4)
        assert deep.index.height > 1 and single.index.height == 0
        for index_r, index_s in ((deep.index, single.index), (single.index, deep.index)):
            assert_matches_reference(index_r, index_s, epsilon, max_filter_rounds)


@st.composite
def segmented_boxes(draw):
    """Boxes of both sides in 1–12 segments of 1–20 boxes per side."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = []
    num_segments = draw(st.integers(1, 12))
    for _side in range(2):
        counts = rng.integers(1, 21, size=num_segments)
        lo = np.floor(rng.random((counts.sum(), dim)) * 5)
        hi = lo + rng.integers(0, 3, size=lo.shape)
        sides.append((BoxArray(lo, hi), np.repeat(np.arange(num_segments), counts)))
    return sides


class TestSegments:
    """A segmented call equals one call per segment."""

    @settings(max_examples=100, deadline=None)
    @given(case=segmented_boxes(), max_rounds=st.sampled_from([1, 2, 5]),
           given_covers=st.booleans())
    def test_filter(self, case, max_rounds, given_covers):
        (left, seg_l), (right, seg_r) = case
        parts = [(left[seg_l == k], right[seg_r == k]) for k in range(seg_l.max() + 1)]
        covers = {}
        if given_covers:
            covers = {
                side: BoxArray(
                    np.stack([boxes.lo.min(axis=0) for boxes in group]),
                    np.stack([boxes.hi.max(axis=0) for boxes in group]),
                )
                for side, group in (("cover_left", [p[0] for p in parts]),
                                    ("cover_right", [p[1] for p in parts]))
            }
        got = iterative_filter(left, right, max_rounds, segments=(seg_l, seg_r), **covers)
        alone = [iterative_filter(l_k, r_k, max_rounds) for l_k, r_k in parts]
        assert got.keep_left.tolist() == sum((o.keep_left.tolist() for o in alone), [])
        assert got.keep_right.tolist() == sum((o.keep_right.tolist() for o in alone), [])
        assert got.rounds == sum(o.rounds for o in alone)

    @settings(max_examples=100, deadline=None)
    @given(case=segmented_boxes())
    def test_sweep(self, case):
        (left, seg_l), (right, seg_r) = case
        got_stats, want_stats = SweepStats(), SweepStats()
        i, j = block_sweep_pairs(left, right, got_stats, segments=(seg_l, seg_r))
        want = set()
        for k in range(seg_l.max() + 1):
            rows_l, rows_r = np.flatnonzero(seg_l == k), np.flatnonzero(seg_r == k)
            i_k, j_k = block_sweep_pairs(left[rows_l], right[rows_r], want_stats)
            want |= set(zip(rows_l[i_k].tolist(), rows_r[j_k].tolist()))
        assert sorted(zip(i.tolist(), j.tolist())) == sorted(want)
        assert got_stats == want_stats


class TestBlockSweepPairs:
    def test_matches_intersects_matrix(self, rng):
        """The dimension-0 search + remaining-dims mask finds each
        intersecting pair exactly once."""
        for _ in range(20):
            left = BoxArray(
                lo := rng.uniform(0, 5, size=(12, 3)), lo + rng.uniform(0, 2, size=(12, 3))
            )
            right = BoxArray(
                lo2 := rng.uniform(0, 5, size=(10, 3)), lo2 + rng.uniform(0, 2, size=(10, 3))
            )
            i, j = block_sweep_pairs(left, right)
            got = sorted(zip(i.tolist(), j.tolist()))
            assert len(got) == len(set(got)), "pair emitted twice"
            want = sorted(zip(*map(list, np.nonzero(left.intersects_matrix(right)))))
            assert got == want

    def test_intersection_tests_counts_dim0_overlaps(self, rng):
        """Documented counter definition: one test per pair overlapping in
        dimension 0, exactly what the event sweep used to count."""
        lo_l = rng.uniform(0, 5, size=(15, 2))
        lo_r = rng.uniform(0, 5, size=(11, 2))
        left = BoxArray(lo_l, lo_l + rng.uniform(0, 2, size=(15, 2)))
        right = BoxArray(lo_r, lo_r + rng.uniform(0, 2, size=(11, 2)))
        stats = SweepStats()
        block_sweep_pairs(left, right, stats)
        dim0_overlaps = int(
            np.sum(
                (left.lo[:, None, 0] <= right.hi[None, :, 0])
                & (right.lo[None, :, 0] <= left.hi[:, None, 0])
            )
        )
        assert stats.intersection_tests == dim0_overlaps
        assert stats.endpoints_processed == 2 * (15 + 11)
