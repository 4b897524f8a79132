"""The recorder protocol: spans, counters, histograms, events.

One instrumentation surface for the whole pipeline.  Every instrumented
module takes a ``recorder`` (defaulting to :data:`NULL_RECORDER`) and
calls four methods on it:

``span(name, **attrs)``
    A context manager timing a nested stage.  Spans always time
    themselves with ``time.perf_counter`` — even under the null recorder
    — so callers can read ``span.duration`` afterwards (this is how
    ``join()`` derives ``stage_seconds`` and why the reported stage
    seconds are *exactly* the span durations).  Only non-null recorders
    retain the span, assign ids and track per-thread nesting.
``count(name, value=1)``
    Add to a named counter.  Additions are commutative and (in the
    recording implementations) lock-protected, so totals are
    bit-identical whether the pipeline runs serially or across a worker
    pool.
``observe(name, value)``
    Feed a named histogram (count/total/min/max plus power-of-two
    buckets).
``event(name, **fields)``
    Append a timestamped structured event (e.g. a buffer eviction or a
    lemma-bound violation).

Hot paths guard *expensive-to-compute* metric arguments behind
``recorder.enabled``; cheap calls go through unconditionally and cost a
no-op method call under :class:`NullRecorder`.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, IO, List, Optional

__all__ = [
    "Span",
    "Histogram",
    "Recorder",
    "NullRecorder",
    "InMemoryRecorder",
    "JsonlRecorder",
    "NULL_RECORDER",
    "BATCHING_VARIANT_COUNTERS",
    "SHARDING_VARIANT_COUNTER_PREFIXES",
    "EXPLAIN_VARIANT_COUNTER_PREFIXES",
    "SERVING_COUNTER_PREFIXES",
]

# Counters that measure *how* work was batched rather than *what* work
# was done.  The cluster executor's mega-batch mode fuses every page
# pair of a cluster into one filter-and-refine cascade (span
# ``execute.megabatch``), so kernel-invocation counts collapse from one
# per page pair to one per cluster while every semantic counter (pairs
# tested/accepted, candidates, abandons, comparisons, I/O) stays
# bit-identical to the per-pair path.  Equivalence checks between
# batching modes must ignore exactly this set and nothing else.
BATCHING_VARIANT_COUNTERS = frozenset(
    {
        "kernel.minkowski.invocations",
        "kernel.dtw.invocations",
        "kernel.edit.invocations",
        "executor.megabatch_clusters",
    }
)

# Counter-name prefixes that exist only under process-sharded execution
# (per-shard I/O attribution and shard bookkeeping — see
# ``repro.core.executor.execute_clusters_sharded``).  Like
# :data:`BATCHING_VARIANT_COUNTERS` they describe *how* the work was
# dispatched, never *what* was computed: equivalence checks between the
# serial and sharded paths must drop counters with these prefixes (and
# the batching set) and require everything else to match exactly.
SHARDING_VARIANT_COUNTER_PREFIXES = ("executor.shard",)

# Counter-name prefix that exists only with the EXPLAIN layer enabled
# (``join(..., explain=True)`` — signed reconciliation residuals, see
# ``repro.obs.explain``).  Equivalence checks against ``explain=None``
# runs must drop this prefix.  Only *deterministic* residuals are
# emitted as counters (I/O µs, per-cluster reads, recall ppm), so
# between serial and sharded runs of the same configuration these
# counters are NOT variant: the parent replays all I/O itself and the
# residual counters match the serial run exactly.
EXPLAIN_VARIANT_COUNTER_PREFIXES = ("explain.",)

# Counter-name prefix that exists only when a join runs through the
# long-lived serving layer (``repro.serve`` — warm-path hits, incremental
# appends, admission decisions).  These counters describe the *session's*
# residency bookkeeping, never the join computation itself: equivalence
# checks between a served join and the same join run directly must drop
# this prefix and require everything else to match exactly.
SERVING_COUNTER_PREFIXES = ("serving.",)


class Span:
    """One timed, optionally-recorded interval.

    Use as a context manager (``with recorder.span("join.matrix"):``).
    ``start``/``end`` are ``time.perf_counter`` readings; ``duration``
    is their difference.  When created by a recording recorder, the span
    also carries an id, its parent's id (the innermost open span on the
    same thread) and the recording thread's ident.
    """

    __slots__ = ("name", "attrs", "start", "end", "span_id", "parent_id", "thread_id", "_recorder")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None, recorder=None) -> None:
        self.name = name
        self.attrs = attrs or {}
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.thread_id: Optional[int] = None
        self._recorder = recorder

    @property
    def duration(self) -> float:
        """Elapsed seconds; 0.0 until the span has both entered and exited."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def __enter__(self) -> "Span":
        if self._recorder is not None:
            self._recorder._enter_span(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        if self._recorder is not None:
            self._recorder._exit_span(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, duration={self.duration:.6f})"


class Histogram:
    """Count/total/min/max plus power-of-two bucket counts.

    Bucket ``k`` counts observations ``v`` with ``2**(k-1) < v <= 2**k``
    (bucket 0 holds everything ``<= 1``).  Updates are commutative, so
    merged totals do not depend on observation order.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    @staticmethod
    def bucket_of(value: float) -> int:
        if value <= 1:
            return 0
        # Smallest k with value <= 2**k, via integer bit tricks (exact,
        # no floating log).
        return (int(-(-value // 1)) - 1).bit_length()

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = self.bucket_of(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def percentile(self, q: float) -> Optional[float]:
        """Approximate ``q``-th percentile (``0 <= q <= 100``) from buckets.

        Walks the cumulative bucket counts to the bucket containing the
        q-th observation, then interpolates linearly across that bucket's
        value range ``(2**(k-1), 2**k]``, clamping to the exact observed
        ``min``/``max``.  Depends only on the bucket counts and min/max —
        all of which :meth:`merge` combines losslessly — so a percentile
        of merged shard histograms equals the percentile of one histogram
        that observed every value (merge-safe, to bucket resolution).
        Returns ``None`` for an empty histogram.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        # Rank of the target observation (nearest-rank with interpolation
        # inside the landing bucket).
        target = q / 100.0 * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            n = self.buckets[bucket]
            if seen + n >= target:
                lo = 0.0 if bucket == 0 else float(2 ** (bucket - 1))
                hi = 1.0 if bucket == 0 else float(2**bucket)
                frac = 0.0 if n == 0 else (target - seen) / n
                value = lo + frac * (hi - lo)
                return min(max(value, self.min), self.max)
            seen += n
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Histogram":
        hist = cls()
        hist.count = int(payload["count"])
        hist.total = float(payload["total"])
        hist.min = payload["min"]
        hist.max = payload["max"]
        hist.buckets = {int(k): int(v) for k, v in payload["buckets"].items()}
        return hist

    def merge(self, other: "Histogram | Dict[str, Any]") -> None:
        """Fold another histogram's state into this one.

        Accepts a :class:`Histogram` or its :meth:`to_dict` form.  Bucket
        counts *add* (never overwrite), so merging N disjoint shard
        histograms equals observing their values through one histogram —
        no double counting, no dropped buckets.
        """
        if isinstance(other, dict):
            other = Histogram.from_dict(other)
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or (other.min is not None and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None and other.max > self.max):
            self.max = other.max
        for bucket, n in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + n


class Recorder:
    """Base recorder: the protocol, with every operation a no-op.

    ``enabled`` is the hot-path guard: instrumentation whose *arguments*
    are expensive to compute checks it before doing the work.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> Span:
        """A timed (but unrecorded) span; subclasses record it too."""
        return Span(name, attrs or None, recorder=None)

    def count(self, name: str, value: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def counter(self, name: str) -> int:
        """Current value of a counter (0 when unknown or not recording)."""
        return 0

    def merge(self, other, span_attrs: Optional[Dict[str, Any]] = None) -> None:
        """Fold another recorder's retained state into this one.

        ``other`` is a recorder or an :meth:`InMemoryRecorder.export_state`
        dict (the picklable form shard worker processes ship back).  The
        base recorder retains nothing, so this is a no-op; recording
        implementations add counters, merge histogram buckets and re-home
        spans/events (see :meth:`InMemoryRecorder.merge`).
        """

    def close(self) -> None:
        pass


class NullRecorder(Recorder):
    """The zero-overhead default: times spans, retains nothing."""


NULL_RECORDER = NullRecorder()


class InMemoryRecorder(Recorder):
    """Thread-safe recorder retaining spans, metrics and events in memory.

    Span nesting is tracked per thread (a ``threading.local`` stack): a
    span opened on a worker thread while no span is open *on that
    thread* records with ``parent_id=None`` and its own ``thread_id`` —
    exporters group such spans into per-thread tracks.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._next_span_id = 0
        self.origin = time.perf_counter()
        self.origin_unix = time.time()
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events: List[Dict[str, Any]] = []

    # -- span bookkeeping ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(name, attrs or None, recorder=self)

    def _thread_stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _enter_span(self, span: Span) -> None:
        stack = self._thread_stack()
        with self._lock:
            span.span_id = self._next_span_id
            self._next_span_id += 1
        span.parent_id = stack[-1].span_id if stack else None
        span.thread_id = threading.get_ident()
        stack.append(span)

    def _exit_span(self, span: Span) -> None:
        stack = self._thread_stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested exit, be lenient
            stack.remove(span)
        with self._lock:
            self.spans.append(span)
        self._on_span(span)

    # -- metrics -------------------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.add(value)

    def event(self, name: str, **fields: Any) -> None:
        record = {"name": name, "ts": time.perf_counter() - self.origin, "fields": fields}
        with self._lock:
            self.events.append(record)
        self._on_event(record)

    def counter(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Counters and histograms as plain JSON-ready dicts."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
            }

    def export_state(self) -> Dict[str, Any]:
        """Everything retained, as one picklable dict for cross-process merge.

        Span and event times stay on this recorder's ``perf_counter``
        axis; ``origin`` travels along so the receiving recorder can
        re-express them on its own axis (``perf_counter`` is
        CLOCK_MONOTONIC, shared by every process of the machine, so the
        rebasing is exact).
        """
        with self._lock:
            spans = [
                {
                    "name": span.name,
                    "attrs": dict(span.attrs),
                    "start": span.start,
                    "end": span.end,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "thread_id": span.thread_id,
                }
                for span in self.spans
            ]
            return {
                "origin": self.origin,
                "counters": dict(self.counters),
                "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
                "events": [dict(e) for e in self.events],
                "spans": spans,
            }

    def merge(self, other, span_attrs: Optional[Dict[str, Any]] = None) -> None:
        """Fold a shard recorder's exported state into this recorder.

        ``other`` is an :class:`InMemoryRecorder` or its
        :meth:`export_state` dict.  Counters add; histograms merge bucket
        by bucket (:meth:`Histogram.merge` — each observation is counted
        exactly once); events rebase their timestamps onto this
        recorder's origin; spans are re-created with fresh ids (parent
        links remapped within the merged batch) and, when ``span_attrs``
        is given, those attributes added — the sharded executor tags each
        worker's spans with its shard index this way.
        """
        if isinstance(other, InMemoryRecorder):
            other = other.export_state()
        if other is None:
            return
        origin_delta = other["origin"] - self.origin
        merged_events: List[Dict[str, Any]] = []
        merged_spans: List[Span] = []
        with self._lock:
            for name, value in other["counters"].items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, payload in other["histograms"].items():
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = Histogram()
                hist.merge(payload)
            for record in other["events"]:
                rebased = dict(record)
                rebased["ts"] = record["ts"] + origin_delta
                self.events.append(rebased)
                merged_events.append(rebased)
            id_map: Dict[int, int] = {}
            for row in other["spans"]:
                if row["span_id"] is not None:
                    id_map[row["span_id"]] = self._next_span_id
                    self._next_span_id += 1
            for row in other["spans"]:
                attrs = dict(row["attrs"])
                if span_attrs:
                    attrs.update(span_attrs)
                span = Span(row["name"], attrs or None, recorder=None)
                span.start = row["start"]
                span.end = row["end"]
                span.span_id = id_map.get(row["span_id"])
                span.parent_id = id_map.get(row["parent_id"])
                span.thread_id = row["thread_id"]
                self.spans.append(span)
                merged_spans.append(span)
        # Stream through the subclass hooks outside the lock, so e.g.
        # JsonlRecorder traces carry the merged shard spans too.
        for record in merged_events:
            self._on_event(record)
        for span in merged_spans:
            self._on_span(span)

    # -- subclass hooks ------------------------------------------------------

    def _on_span(self, span: Span) -> None:
        pass

    def _on_event(self, record: Dict[str, Any]) -> None:
        pass


def span_to_dict(span: Span, origin: float) -> Dict[str, Any]:
    """A span as the JSONL schema dict (times relative to ``origin``)."""
    return {
        "type": "span",
        "id": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "thread": span.thread_id,
        "start": (span.start - origin) if span.start is not None else None,
        "end": (span.end - origin) if span.end is not None else None,
        "dur": span.duration,
        "attrs": span.attrs,
    }


class JsonlRecorder(InMemoryRecorder):
    """An :class:`InMemoryRecorder` that also streams JSONL to a file.

    Spans and events are written as they complete; a final ``metrics``
    line (counters + histograms) is written by :meth:`close`.  The file
    format is documented in ``docs/observability.md``.
    """

    def __init__(self, path) -> None:
        super().__init__()
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self._write_lock = threading.Lock()
        self._emit({"type": "meta", "origin_unix": self.origin_unix, "version": 1})

    def _emit(self, payload: Dict[str, Any]) -> None:
        if self._fh is None:
            return
        line = json.dumps(payload, default=str)
        with self._write_lock:
            if self._fh is not None:
                self._fh.write(line + "\n")

    def _on_span(self, span: Span) -> None:
        self._emit(span_to_dict(span, self.origin))

    def _on_event(self, record: Dict[str, Any]) -> None:
        self._emit({"type": "event", **record})

    def flush(self) -> None:
        """Push buffered trace lines to the OS; safe after :meth:`close`.

        Call at checkpoints of long runs so a crash truncates at most the
        lines written since the last flush (``read_trace_jsonl`` skips
        and counts a torn trailing line rather than raising).
        """
        with self._write_lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        """Write the final ``metrics`` line and close the file (idempotent)."""
        if self._fh is None:
            return
        self._emit({"type": "metrics", **self.metrics_snapshot()})
        with self._write_lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
