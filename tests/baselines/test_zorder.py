"""Unit tests for the Z-order sort-merge baseline."""

import numpy as np
import pytest

from repro.baselines.ego import _sort_passes
from repro.baselines.zorder import morton_codes
from repro.core.join import IndexedDataset, join
from repro.obs.recorder import InMemoryRecorder


class TestMortonCodes:
    def test_locality(self):
        # Nearby points get nearby codes more often than far points.
        pts = np.array([[0.0, 0.0], [0.01, 0.01], [0.9, 0.9]])
        codes = morton_codes(pts, cell=0.05)
        assert abs(int(codes[0]) - int(codes[1])) < abs(int(codes[0]) - int(codes[2]))

    def test_deterministic(self, rng):
        pts = rng.random((50, 3))
        assert np.array_equal(morton_codes(pts, 0.1), morton_codes(pts, 0.1))

    def test_high_dimensional_bit_cap(self, rng):
        codes = morton_codes(rng.random((20, 60)), 0.1)
        assert codes.dtype == np.uint64

    def test_validation(self):
        with pytest.raises(ValueError):
            morton_codes(np.empty((0, 2)), 0.1)
        with pytest.raises(ValueError):
            morton_codes(np.zeros((2, 2)), 0.0)


class TestZorderJoin:
    def test_results_match_sc(self, vector_pair):
        r, s = vector_pair
        z = join(r, s, 0.05, method="zorder", buffer_pages=10)
        sc = join(r, s, 0.05, method="sc", buffer_pages=10)
        assert sorted(z.pairs) == sorted(sc.pairs)

    def test_self_join_matches_sc(self, rng):
        ds = IndexedDataset.from_points(rng.random((150, 2)), page_capacity=8)
        z = join(ds, ds, 0.08, method="zorder", buffer_pages=10)
        sc = join(ds, ds, 0.08, method="sc", buffer_pages=10)
        assert sorted(z.pairs) == sorted(sc.pairs)

    def test_charges_sort(self, vector_pair, cost_model):
        r, s = vector_pair
        result = join(r, s, 0.05, method="zorder", buffer_pages=10,
                      cost_model=cost_model, count_only=True)
        assert result.report.page_reads >= 2 * (r.num_pages + s.num_pages)
        assert result.report.extra["zorder_box_tests"] > 0

    @pytest.mark.parametrize("method", ["zorder", "ego"])
    def test_sort_charges_both_sides_passes(self, method):
        rng = np.random.default_rng(0)
        r = IndexedDataset.from_points(rng.random((400, 2)), page_capacity=8)
        s = IndexedDataset.from_points(rng.random((900, 2)), page_capacity=8)
        assert (r.num_pages, s.num_pages) == (50, 113)
        # Six buffer pages sort either file in three merge passes; each
        # pass streams the file in and out once.
        passes_r, passes_s = _sort_passes(50, 6), _sort_passes(113, 6)
        assert (passes_r, passes_s) == (3, 3)
        recorder = InMemoryRecorder()
        join(r, s, 0.02, method=method, buffer_pages=6, count_only=True,
             recorder=recorder)
        assert recorder.counters["disk.stream_seeks"] == 2 * passes_r + 2 * passes_s

    def test_rejects_sequence_data(self, dna_dataset):
        with pytest.raises(ValueError, match="point data"):
            join(dna_dataset, dna_dataset, 1, method="zorder", buffer_pages=10)
