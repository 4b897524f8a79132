"""Telemetry integration: stage spans, counter parity, Lemma auditing."""

import numpy as np
import pytest

from repro.core.join import join
from repro.obs import (
    SHARDING_VARIANT_COUNTER_PREFIXES,
    InMemoryRecorder,
    LemmaAuditor,
    lemma_bound,
    to_chrome_trace,
)

STAGE_SPANS = {
    "matrix": "join.matrix",
    "clustering": "join.clustering",
    "scheduling": "join.scheduling",
    "execution": "join.execution",
}


def _spans_by_name(recorder):
    out = {}
    for span in recorder.spans:
        out.setdefault(span.name, []).append(span)
    return out


class TestStageSpans:
    def test_sc_join_emits_every_stage_span(self, vector_pair):
        r, s = vector_pair
        rec = InMemoryRecorder()
        join(r, s, 0.05, method="sc", buffer_pages=10, recorder=rec)
        names = {sp.name for sp in rec.spans}
        # Every pipeline stage appears as a named span; execution joins
        # whole clusters per cascade.
        assert {
            "join.matrix", "matrix.sweep", "matrix.filter",
            "join.clustering", "join.scheduling", "join.execution",
            "execute.cluster", "execute.megabatch",
        } <= names

    def test_stage_seconds_equal_span_durations(self, vector_pair):
        r, s = vector_pair
        for method in ("sc", "cc", "pm-nlj"):
            rec = InMemoryRecorder()
            result = join(r, s, 0.05, method=method, buffer_pages=10, recorder=rec)
            stage_seconds = result.report.extra["stage_seconds"]
            spans = _spans_by_name(rec)
            for stage, span_name in STAGE_SPANS.items():
                if span_name in spans:
                    (span,) = spans[span_name]
                    assert stage_seconds[stage] == span.duration
                else:
                    assert stage_seconds[stage] == 0.0

    def test_competitor_charges_execution_span(self, vector_pair):
        r, s = vector_pair
        rec = InMemoryRecorder()
        result = join(r, s, 0.05, method="ego", buffer_pages=10, recorder=rec)
        (span,) = _spans_by_name(rec)["join.execution"]
        assert result.report.extra["stage_seconds"]["execution"] == span.duration

    def test_null_recorder_still_reports_stage_seconds(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10)
        stage_seconds = result.report.extra["stage_seconds"]
        assert stage_seconds["execution"] > 0.0


class TestSpanTreeWellFormedness:
    """Property test: the recorded span forest is a proper interval tree."""

    def test_join_span_forest_is_well_formed(self, vector_pair):
        r, s = vector_pair
        rec = InMemoryRecorder()
        join(r, s, 0.05, method="sc", buffer_pages=10, workers=2, recorder=rec)
        by_id = {sp.span_id: sp for sp in rec.spans}
        assert len(by_id) == len(rec.spans)  # unique ids
        for span in rec.spans:
            assert span.start is not None and span.end is not None
            assert span.end >= span.start
            if span.parent_id is not None:
                parent = by_id[span.parent_id]
                # Child interval is contained in its parent's.
                assert parent.start <= span.start
                assert span.end <= parent.end
                # Parent/child recorded on the same thread.
                assert parent.thread_id == span.thread_id
        # Same-thread sibling spans never overlap.
        for parent_id in {sp.parent_id for sp in rec.spans}:
            group = sorted(
                (sp for sp in rec.spans if sp.parent_id == parent_id),
                key=lambda sp: sp.start,
            )
            for a, b in zip(group, group[1:]):
                if a.thread_id == b.thread_id:
                    assert a.end <= b.start

    def test_chrome_trace_gives_each_shard_its_own_tid(self, vector_pair):
        r, s = vector_pair
        rec = InMemoryRecorder()
        join(r, s, 0.05, method="sc", buffer_pages=10, workers=2, recorder=rec)
        tids = {}
        for event in to_chrome_trace(rec)["traceEvents"]:
            if event["ph"] == "X":
                tids.setdefault(event["args"].get("shard"), set()).add(event["tid"])
        parent = tids.pop(None)
        assert len(tids) == rec.counter("executor.shards") == 2
        for shard_tids in tids.values():
            assert len(shard_tids) == 1
            assert not shard_tids & parent
        assert len(set().union(*tids.values())) == len(tids)


class TestCounterParity:
    @pytest.mark.parametrize("method", ["sc", "cc"])
    def test_counters_identical_serial_vs_parallel(self, vector_pair, method):
        """Equal but for the per-shard bookkeeping the sharded run adds."""
        r, s = vector_pair
        counters = []
        for workers in (1, 3):
            rec = InMemoryRecorder()
            join(r, s, 0.05, method=method, buffer_pages=10,
                 workers=workers, recorder=rec)
            counters.append({
                name: value
                for name, value in rec.metrics_snapshot()["counters"].items()
                if not name.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
            })
        assert counters[0] == counters[1]

    def test_disk_and_buffer_counters_match_stats(self, vector_pair):
        r, s = vector_pair
        rec = InMemoryRecorder()
        result = join(r, s, 0.05, method="sc", buffer_pages=10, recorder=rec)
        counters = rec.metrics_snapshot()["counters"]
        assert counters["disk.reads"] == result.report.page_reads
        assert counters["disk.seeks"] == result.report.seeks
        assert counters["buffer.hits"] == result.report.buffer_hits

    def test_recorder_does_not_change_result(self, vector_pair):
        r, s = vector_pair
        plain = join(r, s, 0.05, method="sc", buffer_pages=10)
        traced = join(r, s, 0.05, method="sc", buffer_pages=10,
                      recorder=InMemoryRecorder())
        assert traced.num_pairs == plain.num_pairs
        assert traced.report.page_reads == plain.report.page_reads
        assert traced.report.seeks == plain.report.seeks


class TestLemmaAuditor:
    def test_bound_formula(self):
        # e + min(r, c) vs r + c — whichever is smaller.
        assert lemma_bound(num_entries=6, num_rows=3, num_cols=2) == 5
        assert lemma_bound(num_entries=2, num_rows=3, num_cols=4) == 5

    def test_synthetic_violation_detected(self):
        class FakeCluster:
            rows = [0, 1]
            cols = [2]
            num_entries = 2

        rec = InMemoryRecorder()
        auditor = LemmaAuditor(rec)
        assert auditor.check_cluster(FakeCluster(), observed_reads=3)
        assert not auditor.check_cluster(FakeCluster(), observed_reads=4)
        assert auditor.violations == 1
        assert rec.counter("lemma.violations") == 1
        (event,) = rec.events
        assert event["name"] == "lemma.violation"
        assert event["fields"]["observed_reads"] == 4

    def test_under_bound_reads_are_legitimate(self):
        class FakeCluster:
            rows = [0]
            cols = [1]
            num_entries = 1

        auditor = LemmaAuditor(InMemoryRecorder())
        assert auditor.check_cluster(FakeCluster(), observed_reads=0)
        assert auditor.summary() == {"clusters_audited": 1, "violations": 0}

    @pytest.mark.parametrize("method,workers", [("sc", 1), ("sc", 2), ("cc", 1)])
    def test_join_execution_never_violates_lemmas(self, vector_pair, method, workers):
        r, s = vector_pair
        rec = InMemoryRecorder()
        join(r, s, 0.05, method=method, buffer_pages=10,
             workers=workers, recorder=rec)
        counters = rec.metrics_snapshot()["counters"]
        assert counters["lemma.clusters_audited"] > 0
        assert counters.get("lemma.violations", 0) == 0

    def test_figure10_and_figure11_configurations_audit_clean(self):
        """The harness configurations run with zero Lemma violations."""
        from repro.experiments.figures import figure10, figure11

        for runner, kwargs in (
            (figure10, {"scale": 0.02, "buffer_pages": 8}),
            (figure11, {"scale": 0.001, "buffer_pages": 8}),
        ):
            rec = InMemoryRecorder()
            runner(recorder=rec, **kwargs)
            counters = rec.metrics_snapshot()["counters"]
            assert counters["lemma.clusters_audited"] > 0
            assert counters.get("lemma.violations", 0) == 0


class TestPassThroughs:
    def test_subsequence_join_forwards_recorder(self):
        from repro.sequence.subjoin import subsequence_join

        rec = InMemoryRecorder()
        result = subsequence_join(
            "ACGTACGTACGTACGTACGT", None, window_length=4, epsilon=0,
            buffer_pages=4, windows_per_page=2, recorder=rec,
        )
        assert result.num_pairs > 0
        assert "join.execution" in {sp.name for sp in rec.spans}
        assert rec.counter("refine.page_pairs") > 0

    def test_harness_shares_recorder_across_methods(self, vector_pair):
        from repro.experiments.harness import run_methods

        r, s = vector_pair
        rec = InMemoryRecorder()
        run_methods(r, s, 0.05, ["pm-nlj", "sc"], buffer_pages=10, recorder=rec)
        execution_spans = [sp for sp in rec.spans if sp.name == "join.execution"]
        assert len(execution_spans) == 2

    def test_trace_summary_renders(self, vector_pair):
        from repro.experiments.report import format_trace_summary

        r, s = vector_pair
        rec = InMemoryRecorder()
        join(r, s, 0.05, method="sc", buffer_pages=10, recorder=rec)
        text = format_trace_summary(rec)
        assert "join.execution" in text
        assert "counters:" in text
        assert "disk.reads" in text
