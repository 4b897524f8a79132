"""Unit tests for the EGO baseline."""

import numpy as np
import pytest

from repro.baselines.ego import _window, _window_keys
from repro.core.join import IndexedDataset, join
from repro.datasets import markov_dna
from repro.geometry import BoxArray


class TestEgoVectors:
    def test_results_match_sc(self, vector_pair):
        r, s = vector_pair
        ego = join(r, s, 0.05, method="ego", buffer_pages=10)
        sc = join(r, s, 0.05, method="sc", buffer_pages=10)
        assert sorted(ego.pairs) == sorted(sc.pairs)

    def test_self_join_matches_sc(self, rng):
        ds = IndexedDataset.from_points(rng.random((100, 2)), page_capacity=8)
        ego = join(ds, ds, 0.08, method="ego", buffer_pages=10)
        sc = join(ds, ds, 0.08, method="sc", buffer_pages=10)
        assert sorted(ego.pairs) == sorted(sc.pairs)

    def test_charges_sort_passes(self, vector_pair, cost_model):
        r, s = vector_pair
        result = join(r, s, 0.05, method="ego", buffer_pages=10,
                      cost_model=cost_model, count_only=True)
        # The re-sort alone reads + writes both datasets once per pass.
        assert result.report.page_reads >= 2 * (r.num_pages + s.num_pages)
        assert result.report.extra.get("ego_sort_passes", 0) >= 1

    def test_zero_epsilon(self, rng):
        pts = rng.random((50, 2))
        r = IndexedDataset.from_points(pts, page_capacity=8)
        s = IndexedDataset.from_points(pts.copy(), page_capacity=8)
        result = join(r, s, 0.0, method="ego", buffer_pages=10)
        assert result.num_pairs == 50  # each point matches its twin


class TestEgoSequence:
    def test_results_match_sc_on_text(self, dna_dataset):
        ego = join(dna_dataset, dna_dataset, 1, method="ego", buffer_pages=10)
        sc = join(dna_dataset, dna_dataset, 1, method="sc", buffer_pages=10)
        assert sorted(ego.pairs) == sorted(sc.pairs)

    def test_no_physical_reorder_for_text(self, dna_dataset, cost_model):
        result = join(dna_dataset, dna_dataset, 1, method="ego", buffer_pages=10,
                      cost_model=cost_model, count_only=True)
        assert result.report.extra.get("ego_logical_order") is True

    def test_sequence_ego_seek_heavy(self, dna_dataset, cost_model):
        """The paper's point: EGO on sequences pays random seeks."""
        ego = join(dna_dataset, dna_dataset, 1, method="ego", buffer_pages=10,
                   cost_model=cost_model, count_only=True)
        sc = join(dna_dataset, dna_dataset, 1, method="sc", buffer_pages=10,
                  cost_model=cost_model, count_only=True)
        assert ego.report.seeks > sc.report.seeks

    def test_scan_window_reaches_every_partner_page(self):
        """EGO order sorts pages by centre cell, so the pages' ``lo[0]``
        are not sorted along it; the scan must still reach every page
        within ε."""
        ds = IndexedDataset.from_string(
            markov_dna(2000, seed=0, repeat_share=0.1),
            window_length=64, windows_per_page=64,
        )
        ego = join(ds, ds, 2, method="ego", buffer_pages=16)
        sc = join(ds, ds, 2, method="sc", buffer_pages=16)
        assert (639, 640) in ego.pairs
        assert sorted(ego.pairs) == sorted(sc.pairs)


class TestScanWindow:
    def test_window_holds_every_page_within_epsilon(self, rng):
        epsilon = 0.05
        for _ in range(50):
            lo = rng.random((30, 2))
            boxes = BoxArray(lo, lo + rng.random((30, 2)) * 0.2)
            hi_max, lo_min = _window_keys(boxes)
            probe = boxes[int(rng.integers(30))]
            window = set(_window(hi_max, lo_min, probe, epsilon))
            near = {
                k for k, box in enumerate(boxes)
                if box.min_dist(probe, p=np.inf) <= epsilon
            }
            assert near <= window
