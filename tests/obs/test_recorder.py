"""Unit tests for the recorder protocol: spans, counters, histograms, events."""

import threading

import numpy as np
import pytest

from repro.obs import (
    NULL_RECORDER,
    Histogram,
    InMemoryRecorder,
    JsonlRecorder,
    NullRecorder,
    Recorder,
)


class TestNullRecorder:
    def test_is_disabled(self):
        assert NULL_RECORDER.enabled is False
        assert isinstance(NULL_RECORDER, NullRecorder)

    def test_span_still_times(self):
        with NULL_RECORDER.span("work") as span:
            pass
        assert span.duration >= 0.0
        assert span.end is not None

    def test_metrics_are_noops(self):
        NULL_RECORDER.count("x", 5)
        NULL_RECORDER.observe("y", 3.0)
        NULL_RECORDER.event("z", detail=1)
        assert NULL_RECORDER.counter("x") == 0

    def test_base_recorder_protocol(self):
        rec = Recorder()
        assert rec.enabled is False
        rec.close()  # no-op, must not raise


class TestSpans:
    def test_nesting_assigns_parents(self):
        rec = InMemoryRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        spans = {sp.name: sp for sp in rec.spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None

    def test_siblings_share_parent(self):
        rec = InMemoryRecorder()
        with rec.span("root"):
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
        spans = {sp.name: sp for sp in rec.spans}
        assert spans["a"].parent_id == spans["root"].span_id
        assert spans["b"].parent_id == spans["root"].span_id

    def test_span_ids_unique(self):
        rec = InMemoryRecorder()
        for _ in range(10):
            with rec.span("s"):
                pass
        ids = [sp.span_id for sp in rec.spans]
        assert len(set(ids)) == len(ids)

    def test_duration_zero_until_complete(self):
        rec = InMemoryRecorder()
        span = rec.span("pending")
        assert span.duration == 0.0

    def test_attrs_retained(self):
        rec = InMemoryRecorder()
        with rec.span("s", method="sc", pages=7):
            pass
        assert rec.spans[0].attrs == {"method": "sc", "pages": 7}

    def test_worker_thread_spans_are_parentless(self):
        rec = InMemoryRecorder()

        def work():
            with rec.span("worker"):
                pass

        with rec.span("main"):
            t = threading.Thread(target=work)
            t.start()
            t.join()
        spans = {sp.name: sp for sp in rec.spans}
        assert spans["worker"].parent_id is None
        assert spans["worker"].thread_id != spans["main"].thread_id


class TestCounters:
    def test_count_accumulates(self):
        rec = InMemoryRecorder()
        rec.count("hits")
        rec.count("hits", 4)
        assert rec.counter("hits") == 5
        assert rec.counter("unknown") == 0

    def test_concurrent_counts_are_exact(self):
        rec = InMemoryRecorder()

        def work():
            for _ in range(1000):
                rec.count("n")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counter("n") == 8000


class TestHistogram:
    def test_bucket_boundaries(self):
        # Bucket k holds 2**(k-1) < v <= 2**k; bucket 0 holds v <= 1.
        assert Histogram.bucket_of(0) == 0
        assert Histogram.bucket_of(1) == 0
        assert Histogram.bucket_of(2) == 1
        assert Histogram.bucket_of(3) == 2
        assert Histogram.bucket_of(4) == 2
        assert Histogram.bucket_of(5) == 3
        assert Histogram.bucket_of(1024) == 10
        assert Histogram.bucket_of(1025) == 11

    def test_stats(self):
        h = Histogram()
        for v in (3, 1, 10):
            h.add(v)
        d = h.to_dict()
        assert d["count"] == 3
        assert d["total"] == 14.0
        assert d["min"] == 1
        assert d["max"] == 10
        assert d["buckets"] == {"0": 1, "2": 1, "4": 1}

    def test_observe_creates_histograms(self):
        rec = InMemoryRecorder()
        rec.observe("sizes", 5)
        rec.observe("sizes", 7)
        snap = rec.metrics_snapshot()
        assert snap["histograms"]["sizes"]["count"] == 2

    def test_observe_many_equals_one_observe_per_sample(self):
        values = np.array([5, 1, 32, 7, 7, 2])
        one, many = InMemoryRecorder(), InMemoryRecorder()
        for value in values.tolist():
            one.observe("sizes", value)
        many.observe_many("sizes", values[:2])
        many.observe_many("sizes", values[2:])
        assert many.histograms["sizes"].to_dict() == one.histograms["sizes"].to_dict()

    def test_observe_many_of_nothing_creates_no_histogram(self):
        rec = InMemoryRecorder()
        rec.observe_many("sizes", np.empty(0, dtype=np.int64))
        NULL_RECORDER.observe_many("sizes", np.arange(3))
        assert rec.histograms == {}


class TestHistogramPercentile:
    def test_empty_is_none(self):
        assert Histogram().percentile(50) is None

    def test_rejects_out_of_range(self):
        h = Histogram()
        h.add(1)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_single_value_every_quantile(self):
        h = Histogram()
        h.add(7)
        for q in (0, 50, 99, 100):
            assert h.percentile(q) == 7

    def test_clamped_to_observed_range(self):
        # Bucket boundaries are powers of two, but the estimate never
        # leaves [min, max].
        h = Histogram()
        for v in (5, 5, 5):
            h.add(v)
        assert h.percentile(0) == 5
        assert h.percentile(100) == 5

    def test_monotone_in_q(self):
        h = Histogram()
        for v in (1, 2, 4, 8, 16, 32, 1024):
            h.add(v)
        estimates = [h.percentile(q) for q in (10, 25, 50, 75, 90, 99)]
        assert estimates == sorted(estimates)
        assert h.min <= estimates[0] and estimates[-1] <= h.max

    def test_interpolates_within_bucket(self):
        h = Histogram()
        for v in (3, 4):  # both land in bucket 2 (range 2..4]
            h.add(v)
        p50 = h.percentile(50)
        assert 3 <= p50 <= 4

    def test_merge_safe(self):
        """Percentiles of a merged histogram equal those of one built
        from all values — merge loses nothing the buckets had."""
        values = [1, 2, 3, 5, 9, 17, 100, 1024, 7, 6]
        combined, left, right = Histogram(), Histogram(), Histogram()
        for v in values:
            combined.add(v)
        for v in values[:5]:
            left.add(v)
        for v in values[5:]:
            right.add(v)
        left.merge(right)
        for q in (25, 50, 90, 99):
            assert left.percentile(q) == combined.percentile(q)


class TestHistogramMerge:
    def test_merge_equals_single_recorder(self):
        """Merging two halves reproduces one histogram over all values —
        bucket-exact, no double counting."""
        values = [1, 2, 3, 5, 9, 17, 1024, 1025, 0, 7]
        combined = Histogram()
        left, right = Histogram(), Histogram()
        for v in values:
            combined.add(v)
        for v in values[:5]:
            left.add(v)
        for v in values[5:]:
            right.add(v)
        left.merge(right)
        assert left.to_dict() == combined.to_dict()

    def test_merge_accepts_exported_dict(self):
        a, b = Histogram(), Histogram()
        a.add(4)
        b.add(100)
        a.merge(b.to_dict())
        d = a.to_dict()
        assert d["count"] == 2
        assert d["max"] == 100

    def test_merge_into_empty(self):
        a, b = Histogram(), Histogram()
        b.add(6)
        a.merge(b)
        assert a.to_dict() == b.to_dict()
        b.merge(Histogram())  # empty other leaves stats alone
        assert a.to_dict() == b.to_dict()

    def test_from_dict_roundtrip(self):
        h = Histogram()
        for v in (3, 300, 12):
            h.add(v)
        assert Histogram.from_dict(h.to_dict()).to_dict() == h.to_dict()


class TestRecorderMerge:
    """Recorder.merge — the deterministic shard-merge primitive."""

    def test_counters_add(self):
        a, b = InMemoryRecorder(), InMemoryRecorder()
        a.count("x", 3)
        b.count("x", 4)
        b.count("y", 1)
        a.merge(b)
        assert a.counter("x") == 7
        assert a.counter("y") == 1

    def test_histograms_merge_without_double_count(self):
        a, b = InMemoryRecorder(), InMemoryRecorder()
        for v in (1, 5):
            a.observe("sizes", v)
        for v in (5, 9):
            b.observe("sizes", v)
        a.merge(b)
        snap = a.metrics_snapshot()["histograms"]["sizes"]
        assert snap["count"] == 4
        assert snap["total"] == 20.0
        assert sum(snap["buckets"].values()) == 4

    def test_merge_twice_double_counts_by_design(self):
        """merge is additive; callers merge each worker exactly once."""
        a, b = InMemoryRecorder(), InMemoryRecorder()
        b.count("x")
        a.merge(b)
        a.merge(b)
        assert a.counter("x") == 2

    def test_spans_remapped_with_fresh_ids_and_attrs(self):
        a, b = InMemoryRecorder(), InMemoryRecorder()
        with a.span("parent.work"):
            pass
        with b.span("outer"):
            with b.span("inner"):
                pass
        a.merge(b, span_attrs={"shard": 1})
        names = {sp.name: sp for sp in a.spans}
        assert set(names) == {"parent.work", "outer", "inner"}
        # Parent links survive under fresh ids...
        assert names["inner"].parent_id == names["outer"].span_id
        ids = [sp.span_id for sp in a.spans]
        assert len(set(ids)) == len(ids)
        # ...and merged spans carry the shard tag, local spans do not.
        assert names["outer"].attrs["shard"] == 1
        assert "shard" not in names["parent.work"].attrs

    def test_each_merge_gets_its_own_track(self):
        """A forked shard worker records under its parent thread's ident;
        its merged spans must not land on that thread's track."""
        a, b, c = InMemoryRecorder(), InMemoryRecorder(), InMemoryRecorder()
        with a.span("join.execution"):
            pass
        for shard in (b, c):
            with shard.span("outer"):
                with shard.span("inner"):
                    pass
        a.merge(b, span_attrs={"shard": 0})
        a.merge(c, span_attrs={"shard": 1})
        local = a.spans[0].thread_id
        tracks = {
            shard: {sp.thread_id for sp in a.spans if sp.attrs.get("shard") == shard}
            for shard in (0, 1)
        }
        assert len(tracks[0]) == len(tracks[1]) == 1
        assert tracks[0] != tracks[1]
        assert local not in tracks[0] | tracks[1]

    def test_merge_accepts_exported_state(self):
        a, b = InMemoryRecorder(), InMemoryRecorder()
        b.count("n", 2)
        with b.span("s"):
            pass
        b.event("evict", page=3)
        a.merge(b.export_state())
        assert a.counter("n") == 2
        assert [sp.name for sp in a.spans] == ["s"]
        (event,) = a.events
        assert event["name"] == "evict"
        assert event["ts"] >= 0.0

    def test_merged_events_rebase_to_local_origin(self):
        a = InMemoryRecorder()
        b = InMemoryRecorder()
        state = b.export_state()
        state["events"] = [{"ts": 0.5, "name": "e", "fields": {}}]
        a.merge(state)
        (event,) = a.events
        # b started after a, so the rebased timestamp moves forward.
        assert event["ts"] >= 0.5

    def test_base_recorder_merge_is_noop(self):
        rec = Recorder()
        rec.merge(InMemoryRecorder())  # must not raise

    def test_jsonl_hooks_see_merged_spans(self, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            worker = InMemoryRecorder()
            with worker.span("shard.work"):
                pass
            rec.merge(worker, span_attrs={"shard": 0})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [rec for rec in lines if rec.get("type") == "span"]
        assert any(
            sp["name"] == "shard.work" and sp["attrs"] == {"shard": 0}
            for sp in spans
        )


class TestEvents:
    def test_event_records_fields_and_time(self):
        rec = InMemoryRecorder()
        rec.event("evict", dataset="a", page=3)
        (record,) = rec.events
        assert record["name"] == "evict"
        assert record["fields"] == {"dataset": "a", "page": 3}
        assert record["ts"] >= 0.0


class TestJsonlRecorder:
    def test_close_is_idempotent(self, tmp_path):
        rec = JsonlRecorder(tmp_path / "t.jsonl")
        with rec.span("s"):
            pass
        rec.close()
        rec.close()

    def test_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlRecorder(path) as rec:
            rec.count("c")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2  # meta + metrics

    def test_flush_makes_spans_durable(self, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        rec = JsonlRecorder(path)
        with rec.span("s"):
            pass
        rec.flush()
        # Visible on disk before close (meta line + the completed span).
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(record.get("type") == "span" for record in lines)
        rec.close()

    def test_flush_after_close_is_noop(self, tmp_path):
        rec = JsonlRecorder(tmp_path / "t.jsonl")
        rec.close()
        rec.flush()  # must not raise
