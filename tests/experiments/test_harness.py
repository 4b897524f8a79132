"""Unit tests for the experiment harness and report formatting."""

import pytest

from repro.experiments.harness import run_methods, sweep_buffer_sizes
from repro.experiments.report import format_series, format_table


class TestRunMethods:
    def test_collects_reports(self, vector_pair):
        r, s = vector_pair
        runs = run_methods(r, s, 0.05, ["nlj", "sc"], buffer_pages=10)
        assert set(runs) == {"nlj", "sc"}
        assert all(run.feasible for run in runs.values())
        assert runs["sc"].total_seconds is not None

    def test_result_agreement_enforced(self, vector_pair):
        r, s = vector_pair
        runs = run_methods(r, s, 0.05, ["nlj", "pm-nlj", "sc"], buffer_pages=10)
        counts = {run.num_pairs for run in runs.values()}
        assert len(counts) == 1

    def test_prefilter_forwarded_to_clustering_methods_only(self, vector_pair):
        r, s = vector_pair
        runs = run_methods(
            r, s, 0.05, ["nlj", "sc"], buffer_pages=10, prefilter="approximate"
        )
        assert "prefilter" not in runs["nlj"].report.extra
        assert runs["sc"].report.extra["prefilter"]["cells_scored"] > 0
        assert runs["sc"].num_pairs <= runs["nlj"].num_pairs

    def test_infeasible_method_reported_as_none(self, rng):
        from repro.core.join import IndexedDataset

        r = IndexedDataset.from_points(rng.random((400, 2)), page_capacity=4)
        s = IndexedDataset.from_points(rng.random((400, 2)), page_capacity=4)
        runs = run_methods(r, s, 0.3, ["bfrj", "sc"], buffer_pages=2)
        assert not runs["bfrj"].feasible
        assert runs["bfrj"].total_seconds is None
        assert runs["sc"].feasible


class TestSweep:
    def test_one_run_per_buffer(self, vector_pair):
        r, s = vector_pair
        per_method = sweep_buffer_sizes(r, s, 0.05, ["sc"], [6, 12, 24])
        assert len(per_method["sc"]) == 3
        assert [run.buffer_pages for run in per_method["sc"]] == [6, 12, 24]


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], [10, 0.125]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bbb" in lines[1]
        assert "2.500" in text
        assert "0.125" in text

    def test_format_series_handles_none(self):
        text = format_series("x", [1, 2], {"m": [1.0, None]})
        assert "-" in text
        assert "1.000s" in text
