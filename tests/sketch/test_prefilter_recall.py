"""Approximate-mode recall contract on the paper's figure configurations.

The acceptance bar: with the default ``recall_target=0.99``, measured
recall (true result pairs surviving the pruning) must meet the target
on the spatial, Landsat, genome and time-series configurations — while
the pruning still removes a meaningful share of cells where the data
permits (genome repeats, self-similar walks)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.datasets import random_walks
from repro.obs import InMemoryRecorder
from repro.sketch.cascade import measured_recall, select_unmark
from repro.sketch.config import PrefilterConfig
from repro.experiments.figures import (
    GENOME_BUFFER,
    GENOME_COST_MODEL,
    GENOME_EPSILON,
    LANDSAT_COST_MODEL,
    LANDSAT_EPSILON,
    SPATIAL_EPSILON,
    hchr18,
    landsat_pair,
    lbeach_mcounty,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TARGET = 0.99


def _recall_run(r, s, epsilon, **kwargs):
    base = join(r, s, epsilon, **kwargs)
    rec = InMemoryRecorder()
    approx = join(
        r, s, epsilon,
        prefilter=PrefilterConfig(recall_target=TARGET),
        recorder=rec,
        **kwargs,
    )
    recall = measured_recall(base, approx, recorder=rec)
    return recall, base, approx, rec


class TestFigureConfigRecall:
    def test_spatial(self):
        r, s = lbeach_mcounty(0.1)
        recall, base, approx, rec = _recall_run(
            r, s, SPATIAL_EPSILON, method="sc", buffer_pages=40
        )
        assert base.num_pairs > 0
        assert recall >= TARGET
        counters = rec.metrics_snapshot()["counters"]
        assert counters["prefilter.recall_measured_ppm"] >= int(TARGET * 1e6)

    def test_landsat(self):
        r, s = landsat_pair(0.05)
        recall, base, approx, _ = _recall_run(
            r, s, LANDSAT_EPSILON, method="sc", buffer_pages=60,
            cost_model=LANDSAT_COST_MODEL,
        )
        assert base.num_pairs > 0
        assert recall >= TARGET

    def test_genome(self):
        genome = hchr18(0.005)
        recall, base, approx, _ = _recall_run(
            genome, genome, GENOME_EPSILON, method="sc",
            buffer_pages=GENOME_BUFFER, cost_model=GENOME_COST_MODEL,
        )
        assert base.num_pairs > 0
        assert recall >= TARGET
        # The genome's repeat structure leaves most marked cells without
        # shared grams — the minhash prefilter must actually prune.
        info = approx.report.extra["prefilter"]
        assert info["cells_unmarked"] > info["cells_scored"] * 0.25

    def test_series(self):
        walk = random_walks(1, 4000, seed=5)[0]
        series = IndexedDataset.from_time_series(
            walk, window_length=64, windows_per_page=32
        )
        recall, base, approx, _ = _recall_run(
            series, series, 1.5, method="sc", buffer_pages=40
        )
        assert base.num_pairs > 0
        assert recall >= TARGET
        info = approx.report.extra["prefilter"]
        assert info["cells_unmarked"] > info["cells_scored"] * 0.25

    def test_estimated_recall_reported_against_target(self):
        r, s = lbeach_mcounty(0.1)
        _, _, approx, rec = _recall_run(
            r, s, SPATIAL_EPSILON, method="sc", buffer_pages=40
        )
        info = approx.report.extra["prefilter"]
        assert info["mode"] == "approximate"
        assert info["est_recall"] >= TARGET
        counters = rec.metrics_snapshot()["counters"]
        assert counters["prefilter.recall_target_ppm"] == int(TARGET * 1e6)
        assert counters["prefilter.est_recall_ppm"] >= int(TARGET * 1e6)


class TestMeasuredRecall:
    def test_set_based_when_pairs_available(self):
        assert measured_recall([(1, 2), (3, 4)], [(1, 2)]) == 0.5
        assert measured_recall([(1, 2)], [(1, 2), (9, 9)]) == 1.0

    def test_empty_reference_is_perfect(self):
        assert measured_recall([], []) == 1.0

    def test_count_only_falls_back_to_ratio(self):
        class CountOnly:
            pairs = []
            num_pairs = 80

        class CountOnlySmaller:
            pairs = []
            num_pairs = 60

        assert measured_recall(CountOnly(), CountOnlySmaller()) == 0.75
        assert measured_recall(CountOnlySmaller(), CountOnly()) == 1.0

    def test_records_counter(self):
        rec = InMemoryRecorder()
        measured_recall([(1, 2), (3, 4)], [(1, 2)], recorder=rec)
        counters = rec.metrics_snapshot()["counters"]
        assert counters["prefilter.recall_measured_ppm"] == 500000


class TestSelectUnmark:
    def _cells(self, scores, sizes=None):
        n = len(scores)
        rows = np.arange(n, dtype=np.int64)
        cols = np.zeros(n, dtype=np.int64)
        scores = np.asarray(scores, dtype=np.float64)
        sizes = (
            np.full(n, 100.0) if sizes is None else np.asarray(sizes, dtype=np.float64)
        )
        return rows, cols, scores, sizes

    def test_unmarks_lowest_mass_within_budget(self):
        rows, cols, scores, sizes = self._cells([0.5, 0.001, 0.0005, 0.4])
        unmark, est = select_unmark(rows, cols, scores, sizes, 0.99, 1.0)
        assert unmark.tolist() == [False, True, True, False]
        assert est >= 0.99

    def test_budget_zero_keeps_all(self):
        rows, cols, scores, sizes = self._cells([0.5, 0.001])
        unmark, est = select_unmark(rows, cols, scores, sizes, 1.0, 1.0)
        assert not unmark.any()
        assert est == 1.0

    def test_no_mass_keeps_all(self):
        rows, cols, scores, sizes = self._cells([0.0, 0.0, 0.0])
        unmark, est = select_unmark(rows, cols, scores, sizes, 0.5, 1.0)
        assert not unmark.any()
        assert est == 1.0

    def test_cell_pair_floor_protects_heavy_cells(self):
        # Second cell's mass (0.008 * 100 = 0.8 pairs) exceeds the floor:
        # it survives even though the proportional budget would admit it.
        rows, cols, scores, sizes = self._cells([10.0, 0.008, 0.00001])
        loose, _ = select_unmark(
            rows, cols, scores, sizes, 0.99, 1.0, cell_pair_floor=0.0
        )
        assert loose.tolist() == [False, True, True]
        guarded, _ = select_unmark(
            rows, cols, scores, sizes, 0.99, 1.0, cell_pair_floor=0.5
        )
        assert guarded.tolist() == [False, False, True]

    def test_never_unmarks_everything(self):
        rows, cols, scores, sizes = self._cells([1e-9, 1e-9])
        unmark, _ = select_unmark(rows, cols, scores, sizes, 0.01, 1.0)
        assert not unmark.all()

    def test_margin_scales_budget(self):
        rows, cols, scores, sizes = self._cells([0.5, 0.004, 0.003, 0.002])
        full, _ = select_unmark(rows, cols, scores, sizes, 0.98, 1.0)
        half, _ = select_unmark(rows, cols, scores, sizes, 0.98, 0.5)
        assert half.sum() <= full.sum()

    def test_deterministic_tie_break(self):
        rows = np.asarray([3, 1, 2], dtype=np.int64)
        cols = np.asarray([0, 0, 0], dtype=np.int64)
        scores = np.asarray([0.001, 0.001, 0.001])
        sizes = np.full(3, 100.0)
        first, _ = select_unmark(rows, cols, scores, sizes, 0.998, 1.0)
        second, _ = select_unmark(rows, cols, scores, sizes, 0.998, 1.0)
        assert first.tolist() == second.tolist()
        # Budget of ~0.6 pair-mass admits exactly one 0.1-mass cell... all
        # three fit; shrink the budget so only the lowest (row, col) goes.
        tight, _ = select_unmark(rows, cols, scores, sizes, 0.9989, 0.9)
        assert tight.sum() <= 2
