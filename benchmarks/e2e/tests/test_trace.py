import json
import threading
import types

import pytest

from trace import Span, Tracer, rollup, self_times, to_chrome


def span(span_id, parent, start, end, name="x", trace=1, thread=1):
    return Span(span_id, parent, trace, name, start, end, thread)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [
            span(1, None, 0.0, 10.0),
            span(2, 1, 1.0, 3.0),
            span(3, 1, 4.0, 8.0),
            span(4, 3, 5.0, 6.0),
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(4.0)
        assert selfs[3] == pytest.approx(3.0)
        assert selfs[2] == pytest.approx(2.0)
        assert selfs[4] == pytest.approx(1.0)

    def test_overlapping_children_count_once(self):
        spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 5.0), span(3, 1, 3.0, 7.0)]
        assert self_times(spans)[1] == pytest.approx(4.0)

    def test_cross_thread_children_clip_to_the_parent(self):
        # Children recorded on two other threads overlap each other and
        # run past the parent's end.
        spans = [
            span(1, None, 0.0, 10.0, thread=1),
            span(2, 1, 2.0, 6.0, thread=2),
            span(3, 1, 5.0, 12.0, thread=3),
        ]
        assert self_times(spans)[1] == pytest.approx(2.0)

    def test_rollup_groups_by_trace_and_name(self):
        spans = [
            span(1, None, 0.0, 10.0, name="root", trace=1),
            span(2, 1, 1.0, 3.0, name="leaf", trace=1),
            span(3, 1, 4.0, 5.0, name="leaf", trace=1),
            span(4, None, 20.0, 21.0, name="root", trace=4),
        ]
        rows = rollup(spans)
        assert [row["trace"] for row in rows] == [1, 4]
        assert rows[0]["root"] == "root"
        assert rows[0]["layers"]["leaf"] == {"n": 2, "total": 3.0, "self": 3.0}
        assert rows[0]["layers"]["root"]["self"] == pytest.approx(7.0)


def _fake_module():
    module = types.ModuleType("fake_layer_module")

    class Store:
        def load(self, x):
            return module.inner(x) + 1

        @classmethod
        def build(cls, x):
            return cls, x

    def inner(x):
        return x * 2

    module.Store = Store
    module.inner = inner
    return module


class TestTracer:
    def setup_method(self):
        import sys

        self.module = _fake_module()
        sys.modules[self.module.__name__] = self.module

    def teardown_method(self):
        import sys

        del sys.modules[self.module.__name__]

    def test_records_nested_spans_only_while_enabled(self):
        tracer = Tracer()
        tracer.install([
            ("fake_layer_module", "Store.load", "load"),
            ("fake_layer_module", "inner", "inner"),
            ("fake_layer_module", "Store.build", "build"),
        ])
        store = self.module.Store()
        assert store.load(2) == 5
        assert tracer.spans == []
        tracer.enabled = True
        assert tracer.call("root", store.load, 3) == 7
        assert self.module.Store.build(1) == (self.module.Store, 1)
        tracer.enabled = False
        by_name = {s.name: s for s in tracer.spans}
        root = by_name["root"]
        assert by_name["load"].parent == root.span_id
        assert by_name["inner"].parent == by_name["load"].span_id
        assert {by_name[n].trace for n in ("root", "load", "inner")} == {root.span_id}
        assert by_name["build"].parent is None
        assert by_name["build"].trace != root.trace
        tracer.uninstall()
        assert self.module.inner(4) == 8
        assert not hasattr(self.module.inner, "__wrapped__")

    def test_annotations_land_in_the_trace_attributes(self):
        tracer = Tracer()
        tracer.install([("fake_layer_module", "inner", "inner", lambda r: {"result": r})])
        tracer.enabled = True
        tracer.call("root", self.module.inner, 5)
        assert rollup(tracer.spans)[0]["attrs"] == {"result": 10}
        tracer.uninstall()

    def test_missing_targets_are_listed_not_fatal(self):
        tracer = Tracer()
        tracer.install([
            ("fake_layer_module", "nope", "x"),
            ("no_such_module_here", "f", "y"),
        ])
        assert tracer.missing == ["fake_layer_module:nope", "no_such_module_here:f"]

    def test_thread_override_traces_one_thread_only(self):
        tracer = Tracer()
        tracer.install([("fake_layer_module", "inner", "inner")])

        def traced_worker():
            tracer.thread_enabled(True)
            self.module.inner(1)

        worker = threading.Thread(target=traced_worker)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        self.module.inner(2)  # main thread: tracing is off
        assert [s.name for s in tracer.spans] == ["inner"]
        assert tracer.spans[0].thread != threading.get_ident()
        tracer.uninstall()

    def test_chrome_trace_is_json_with_one_event_per_span(self):
        spans = [span(1, None, 1.0, 2.0), span(2, 1, 1.25, 1.5, thread=7)]
        data = json.loads(json.dumps(to_chrome(spans)))
        events = data["traceEvents"]
        assert [e["ph"] for e in events] == ["X", "X"]
        assert events[1]["ts"] == pytest.approx(0.25e6)
        assert events[1]["dur"] == pytest.approx(0.25e6)
        assert events[1]["args"]["parent"] == 1
        assert events[0]["tid"] != events[1]["tid"]
