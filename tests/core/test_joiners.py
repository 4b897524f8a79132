"""Unit tests for the page-pair join kernels."""

import numpy as np
import pytest

from repro.core.joiners import (
    NumericPagePairJoiner,
    make_numeric_joiner,
    make_text_joiner,
    text_dp_weight,
)
from repro.costmodel import CostModel
from repro.distance.edit import edit_distance
from repro.distance.frequency import frequency_vectors_sliding
from repro.distance.vector import EuclideanDistance
from repro.storage.page import SequencePagedDataset, VectorPagedDataset
from tests.oracles.joiners import per_entry


def join_one(joiner, row, col):
    """The joiner's ``(pairs, count, comparisons, cpu)`` for one page pair."""
    (result,) = per_entry(joiner.join_cluster([(row, col)]))
    return result


@pytest.fixture
def model():
    return CostModel(cpu_compare_s=1e-6)


class TestNumericJoiner:
    @pytest.fixture
    def pair(self, rng):
        r = VectorPagedDataset(rng.random((20, 2)), objects_per_page=5, dataset_id="R")
        s = VectorPagedDataset(rng.random((15, 2)), objects_per_page=5, dataset_id="S")
        return r, s

    def test_finds_exact_pairs(self, pair, model):
        r, s = pair
        joiner = make_numeric_joiner(r, s, EuclideanDistance(), 0.3, model, False)
        pairs, count, comparisons, cpu = join_one(joiner, 1, 2)
        assert count == len(pairs)
        assert comparisons == 25
        assert cpu == pytest.approx(25e-6)
        for gid_r, gid_s in pairs:
            d = np.linalg.norm(r.vectors[gid_r] - s.vectors[gid_s])
            assert d <= 0.3

    def test_global_ids_offset_by_page(self, pair, model):
        r, s = pair
        joiner = make_numeric_joiner(r, s, EuclideanDistance(), 10.0, model, False)
        pairs, _count, _cmp, _cpu = join_one(joiner, 2, 1)
        assert {gid_r for gid_r, _ in pairs} == set(range(10, 15))
        assert {gid_s for _, gid_s in pairs} == set(range(5, 10))

    def test_self_join_diagonal_strict_upper(self, pair, model):
        r, _ = pair
        joiner = make_numeric_joiner(r, r, EuclideanDistance(), 10.0, model, True)
        pairs, count, _cmp, _cpu = join_one(joiner, 0, 0)
        assert count == 10  # C(5, 2) pairs, no self matches
        for a, b in pairs:
            assert a < b

    def test_count_only_mode(self, pair, model):
        r, s = pair
        joiner = make_numeric_joiner(
            r, s, EuclideanDistance(), 10.0, model, False, collect_pairs=False
        )
        pairs, count, _cmp, _cpu = join_one(joiner, 0, 0)
        assert pairs == []
        assert count == 25

    def test_rejects_distance_without_a_cascade(self, pair, model):
        class HammingLike:
            comparison_weight = 1.0

            def pairs_within(self, left, right, epsilon):
                return []

        r, s = pair
        with pytest.raises(ValueError, match="MinkowskiDistance or DTWDistance"):
            NumericPagePairJoiner(r, s, HammingLike(), 0.3, model, False)


class TestTextJoiner:
    @pytest.fixture
    def dataset(self):
        from repro.datasets import markov_dna

        text = markov_dna(800, seed=4)
        ds = SequencePagedDataset(text, symbols_per_page=20, window_length=12, dataset_id="G")
        features = frequency_vectors_sliding(text, 12)
        return ds, features

    def test_matches_brute_force(self, dataset, model):
        ds, features = dataset
        epsilon = 1
        joiner = make_text_joiner(ds, ds, features, features, epsilon, model, False)
        for page_r, page_s in [(0, 5), (3, 3), (7, 20)]:
            pairs, count, _cmp, _cpu = join_one(joiner, page_r, page_s)
            expected = set()
            r_start, r_stop = ds.window_range(page_r)
            s_start, s_stop = ds.window_range(page_s)
            text = ds.sequence
            for p in range(r_start, r_stop):
                for q in range(s_start, s_stop):
                    if edit_distance(text[p : p + 12], text[q : q + 12], max_dist=1) <= epsilon:
                        expected.add((p, q))
            assert set(pairs) == expected
            assert count == len(expected)

    def test_brute_force_epsilon_two(self, dataset, model):
        """eps >= 2 exercises the DP fallback behind the Hamming filter."""
        ds, features = dataset
        joiner = make_text_joiner(ds, ds, features, features, 2, model, False)
        page_r, page_s = 1, 9
        pairs, _count, _cmp, _cpu = join_one(joiner, page_r, page_s)
        text = ds.sequence
        expected = set()
        r_start, r_stop = ds.window_range(page_r)
        s_start, s_stop = ds.window_range(page_s)
        for p in range(r_start, r_stop):
            for q in range(s_start, s_stop):
                if edit_distance(text[p : p + 12], text[q : q + 12], max_dist=2) <= 2:
                    expected.add((p, q))
        assert set(pairs) == expected

    def test_self_join_diagonal(self, dataset, model):
        ds, features = dataset
        joiner = make_text_joiner(ds, ds, features, features, 1, model, True)
        pairs, _count, _cmp, _cpu = join_one(joiner, 2, 2)
        for p, q in pairs:
            assert p < q

    def test_dp_weight_scales(self):
        assert text_dp_weight(500, 5) > text_dp_weight(50, 5)
        assert text_dp_weight(100, 5) > text_dp_weight(100, 1)


class TestCascadeMemory:
    """One cascade's transient memory is bounded by the joiner's chunk and
    panel constants, not by how many candidates its filter keeps.

    NumPy reports its allocations to ``tracemalloc``, so the peaks repeat
    exactly.  The text entry set is the genome figure's self join
    schedule (ε = 1): its frequency filter keeps over 100k candidates
    before the diagonal drop.  The DTW one pairs every page of two ±1
    series whose forward LB_Keogh keeps over 100k cells, nearly all of
    which the reverse bound then gathers and rejects.
    """

    TRANSIENT_LIMIT = 4 << 20  # bytes beyond the result's own arrays

    @pytest.fixture(scope="class")
    def genome(self):
        from repro.core.join import IndexedDataset, join
        from repro.datasets import markov_dna

        g = IndexedDataset.from_string(
            markov_dna(12676, seed=0, repeat_share=0.10),
            window_length=192, windows_per_page=64,
        )
        schedule = join(g, g, 1, method="sc", buffer_pages=16, keep_details=True)
        return g, [entry for cluster in schedule.clusters for entry in cluster.entries]

    @staticmethod
    def _transient(joiner, entries):
        import tracemalloc

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = joiner.join_cluster(entries)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        owned = (result.pairs, result.counts, result.comparisons, result.cpu)
        return peak - sum(array.nbytes for array in owned)

    def test_transient_bounded_by_constants(self, genome, model):
        from repro.obs import InMemoryRecorder

        g, entries = genome
        rec = InMemoryRecorder()
        make_text_joiner(
            g.paged, g.paged, g.features, g.features, 1, model, False, recorder=rec
        ).join_cluster(entries)
        candidates = rec.metrics_snapshot()["counters"]["text.fd_candidates"]
        assert candidates >= 100_000, "calibration: a filter that keeps many cells"

        joiner = make_text_joiner(
            g.paged, g.paged, g.features, g.features, 1, model, True
        )
        half = self._transient(joiner, entries[::2])
        full = self._transient(joiner, entries)
        assert full < self.TRANSIENT_LIMIT
        assert full < 1.5 * half

    @pytest.fixture(scope="class")
    def signs(self):
        from repro.core.join import IndexedDataset

        rng = np.random.default_rng(0)
        left = rng.choice([-1.0, 1.0], size=415)
        right = rng.choice([-1.0, 1.0], size=415)
        # Every right window gets two spikes: inside its own envelope,
        # 0.6 outside every left window's, so only the reverse bound
        # rejects the pair.
        right[::8] = 1.6
        r, s = (
            IndexedDataset.from_time_series(
                values, window_length=16, windows_per_page=32, dtw_band=4
            )
            for values in (left, right)
        )
        entries = [(i, j) for i in range(r.num_pages) for j in range(s.num_pages)]
        return r, s, entries

    def test_reverse_gather_bounded_by_constants(self, signs, model, monkeypatch):
        import repro.core.joiners as joiners_mod
        from repro.distance.dtw import DTWDistance
        from repro.kernels.backends import KernelBackend
        from repro.kernels.dtw import lb_keogh_limit

        r, s, entries = signs
        epsilon = 0.5
        limit = lb_keogh_limit(epsilon, 16)
        forward, gathered = [], []
        panel, gather = KernelBackend.lb_keogh_panel, joiners_mod.lb_keogh_gathered

        def counting_panel(self, *args):
            bounds = panel(self, *args)
            forward.append(int(np.count_nonzero(bounds <= limit)))
            return bounds

        def counting_gather(*args):
            gathered.append(args[3].shape[0])
            return gather(*args)

        with monkeypatch.context() as patch:
            patch.setattr(KernelBackend, "lb_keogh_panel", counting_panel)
            patch.setattr(joiners_mod, "lb_keogh_gathered", counting_gather)
            calibration = make_numeric_joiner(
                r.paged, s.paged, DTWDistance(4), epsilon, model, False
            ).join_cluster(entries)
        assert sum(forward) >= 100_000, "calibration: forward LB_Keogh keeps many"
        assert sum(gathered) >= 100_000, "calibration: the reverse gather sees them"
        assert calibration.counts.sum() == 0

        joiner = make_numeric_joiner(
            r.paged, s.paged, DTWDistance(4), epsilon, model, False
        )
        half = self._transient(joiner, entries[::2])
        full = self._transient(joiner, entries)
        assert full < self.TRANSIENT_LIMIT
        assert full < 1.5 * half


class TestClusterBlockPanels:
    """Panels are uniform (their col pages hold one object count), and
    ``filtered_cells`` emits exactly the cells, in exactly the order, that
    the row-major read plus stable regroup of ``tests/oracles`` emits —
    for the L2 decision kernel, the DTW and frequency-distance filters
    and the unfiltered panel."""

    W = 8  # object width; also the DTW window and the text window length

    @classmethod
    def _inputs(cls, name):
        """``(r, s, self_join, entries)``; entries in random order."""
        rng = np.random.default_rng(sum(map(ord, name)))
        if name == "short-last-pages":
            r = VectorPagedDataset(rng.random((16 * 6 + 5, cls.W)), objects_per_page=16)
            s = VectorPagedDataset(rng.random((16 * 5 + 11, cls.W)), objects_per_page=16)
            entries = [(a, b) for a in range(r.num_pages) for b in range(s.num_pages)]
            self_join = False
        elif name == "self-join":
            r = s = VectorPagedDataset(rng.random((16 * 7 + 9, cls.W)), objects_per_page=16)
            entries = [(a, b) for a in range(r.num_pages) for b in range(s.num_pages)
                       if abs(a - b) <= 3]
            self_join = True
        else:  # "long-run": one left page's marked run crosses _PANEL_CELLS
            r = VectorPagedDataset(rng.random((64 * 2 + 7, cls.W)), objects_per_page=64)
            s = VectorPagedDataset(rng.random((64 * 40 + 13, cls.W)), objects_per_page=64)
            entries = [(0, b) for b in range(s.num_pages)]
            entries += [(a, b) for a in (1, 2) for b in range(0, s.num_pages, 3)]
            self_join = False
        entries = [entries[k] for k in rng.permutation(len(entries))]
        return r, s, self_join, entries

    @classmethod
    def _filters(cls, kind, left, right, left_ids, right_ids):
        """``(panel filter for filtered_cells, row-major oracle decisions
        (start, n, panel_j) -> bool)``."""
        from repro.core.joiners import _read_blocked, make_fd_filter, make_keogh_filter
        from repro.kernels.minkowski import (
            euclidean_augmented, euclidean_panel_decisions, minkowski_refine,
        )

        if kind == "l2":
            eps = 0.5
            left_aug, right_aug = euclidean_augmented(left, right, eps)

            def decide(rows, panel_j, groups):
                return euclidean_panel_decisions(
                    left_aug[rows], right_aug[panel_j], eps, groups
                )[0]

            def truth(start, n, panel_j):
                i = np.repeat(np.arange(start, start + n), panel_j.shape[0])
                j = np.tile(panel_j, n)
                return minkowski_refine(left, right, i, j, eps, 2.0).reshape(n, -1)

            return decide, truth
        if kind == "dtw":
            cell_filter = make_keogh_filter(left, right, 2, 0.45)
        elif kind == "fd":
            counts = np.random.default_rng(7).multinomial(
                cls.W, [0.25] * 4, size=max(left_ids.max(), right_ids.max()) + 1
            )
            cell_filter = make_fd_filter(counts[left_ids], counts[right_ids], 1, cls.W)
        else:
            return None, lambda start, n, panel_j: np.ones((n, panel_j.shape[0]), bool)
        return _read_blocked(cell_filter), (
            lambda start, n, panel_j: cell_filter(slice(start, start + n), panel_j)
        )

    @staticmethod
    def _panels(block):
        """Per panel: ``(lo, hi, start, n, col page counts, panel_j)``,
        ``panel_j`` built page by page."""
        bounds = block._bounds
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            row = block._row[lo]
            assert (block._row[lo:hi] == row).all()
            cols = block._col[lo:hi]
            counts = block.s_block.counts[cols]
            panel_j = np.concatenate([
                np.arange(start, start + count)
                for start, count in zip(block.s_block.starts[cols], counts)
            ])
            yield (lo, hi, int(block.r_block.starts[row]),
                   int(block.r_block.counts[row]), counts, panel_j)

    @pytest.mark.parametrize("name", ["short-last-pages", "self-join", "long-run"])
    def test_no_panel_mixes_col_page_sizes(self, name):
        from repro.core.joiners import _PANEL_CELLS, _ClusterBlock

        r, s, self_join, entries = self._inputs(name)
        block = _ClusterBlock(entries, r, s, self_join)
        sizes_cut = 0
        for lo, hi, _start, n, counts, _panel_j in self._panels(block):
            assert (counts == counts[0]).all(), (lo, hi)
            assert n * counts[:-1].sum() < _PANEL_CELLS
            nxt = hi < block.num_entries and block._row[hi] == block._row[lo]
            if nxt and block.s_block.counts[block._col[hi]] != counts[0]:
                sizes_cut += 1
        assert sizes_cut > 0, "calibration: some panel ends at a size change"
        if name == "long-run":
            first = block._bounds[block._bounds < block._bounds.max()]
            assert (block._row[first] == block._row[0]).sum() >= 3

    @pytest.mark.parametrize("kind", ["l2", "dtw", "fd", "none"])
    @pytest.mark.parametrize("name", ["short-last-pages", "self-join", "long-run"])
    def test_filtered_cells_equal_the_regroup(self, name, kind):
        from repro.core.joiners import _ClusterBlock
        from tests.oracles.joiners import regrouped_cells

        r, s, self_join, entries = self._inputs(name)
        block = _ClusterBlock(entries, r, s, self_join)
        left, right = block.r_block.objects, block.s_block.objects
        panel_filter, truth = self._filters(
            kind, left, right, block.r_block.global_ids, block.s_block.global_ids
        )
        kept = 0
        for panel, (lo, _hi, start, n, counts, panel_j) in enumerate(
            self._panels(block)
        ):
            got = block.filtered_cells(panel_filter, panel)
            want = regrouped_cells(truth(start, n, panel_j), start, panel_j, counts, lo)
            for got_col, want_col in zip(got, want):
                assert got_col.dtype == np.int64
                assert np.array_equal(got_col, want_col), (name, kind, panel)
            kept += got[0].shape[0]
        total = int(block.cells.sum())
        assert kept > 0 and (kind == "none" or kept < total), "calibration"
