"""The ``prefilter=`` argument: validation, forwarding and telemetry.

The approximate cascade's recall contract is tested in
``tests/sketch/test_prefilter_recall.py``; its serial and sharded runs
are compared counter for counter in ``tests/obs/test_explain.py``.
"""

from __future__ import annotations

import pytest

from repro.core.join import join
from repro.datasets import markov_dna
from repro.obs import InMemoryRecorder
from repro.sketch.config import PrefilterConfig


def _run(r, s, epsilon, *, prefilter, **kwargs):
    rec = InMemoryRecorder()
    result = join(
        r, s, epsilon, method="sc", buffer_pages=10, prefilter=prefilter,
        recorder=rec, **kwargs,
    )
    return result, rec


class TestPrefilterValidation:
    def test_rejected_for_competitor_methods(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError, match="prefilter"):
            join(r, s, 0.05, method="nlj", buffer_pages=10, prefilter="approximate")

    def test_rejected_for_unknown_mode(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError, match="prefilter"):
            join(r, s, 0.05, buffer_pages=10, prefilter="fuzzy")

    def test_exact_mode_was_removed(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError, match="prefilter='exact' was removed"):
            join(r, s, 0.05, buffer_pages=10, prefilter="exact")

    def test_rejected_for_wrong_type(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(TypeError, match="prefilter"):
            join(r, s, 0.05, buffer_pages=10, prefilter=42)


class TestPrefilterTelemetry:
    def test_prefilter_counters_and_span_present(self, vector_pair):
        r, s = vector_pair
        result, rec = _run(r, s, 0.05, prefilter="approximate")
        counters = rec.metrics_snapshot()["counters"]
        info = result.report.extra["prefilter"]
        assert counters["prefilter.cells_scored"] == info["cells_scored"] > 0
        assert counters["prefilter.cells_unmarked"] == info["cells_unmarked"]
        assert counters["prefilter.sketch_builds"] == 2
        spans = [s.name for s in rec.spans]
        assert "join.prefilter" in spans
        stage_seconds = result.report.extra["stage_seconds"]
        assert stage_seconds["prefilter"] > 0.0
        assert info["mode"] == "approximate"
        assert 0.0 < info["est_recall"] <= 1.0

    def test_no_prefilter_keys_without_prefilter(self, vector_pair):
        r, s = vector_pair
        result, rec = _run(r, s, 0.05, prefilter=None)
        counters = rec.metrics_snapshot()["counters"]
        assert not any(k.startswith("prefilter.") for k in counters)
        assert "prefilter" not in result.report.extra
        assert result.report.extra["stage_seconds"]["prefilter"] == 0.0

    def test_subsequence_join_forwards(self):
        from repro.sequence.subjoin import subsequence_join

        dna = markov_dna(2500, seed=7)
        kwargs = dict(
            window_length=24, epsilon=1, method="sc",
            buffer_pages=16, windows_per_page=32,
        )
        baseline = subsequence_join(dna, None, **kwargs)
        approx = subsequence_join(
            dna, None, prefilter=PrefilterConfig(recall_target=0.99), **kwargs
        )
        assert "prefilter" not in baseline.report.extra
        assert approx.report.extra["prefilter"]["cells_scored"] > 0
        assert set(approx.offsets) <= set(baseline.offsets)
