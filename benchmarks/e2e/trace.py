"""Outside-in span tracing for the end-to-end benchmark.

A :class:`Tracer` replaces chosen functions of the program with wrappers
that record a :class:`Span` around each call: name, start, end, parent
span, trace id and thread.  Nothing in the program changes; the wrappers
are installed from the benchmark's own code and removed again with
:meth:`Tracer.uninstall`.  Spans stay in memory until the caller writes
them out (:func:`write_chrome`).

A span opened while no span is open on its thread starts a new trace;
nested calls on the same thread become its children.  A layer's *self
time* is its duration minus the part of that interval covered by the
union of its children (:func:`self_times`), so overlapping children — for
instance ones recorded on other threads with an explicit parent — are not
subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "rollup", "self_times", "to_chrome", "write_chrome"]

# (module, attribute path inside the module, span name[, annotate]):
# ``annotate(result)`` returns extra attributes stored on the span.
Target = Tuple[Any, ...]


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    trace: int
    name: str
    start: float
    end: float
    thread: int
    attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables while enabled.

    ``enabled`` switches recording for every thread; :meth:`thread_enabled`
    overrides it for the calling thread only (the traced daemon uses this
    to trace every other request).  Disabled wrappers cost one attribute
    lookup and a call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self.missing: List[str] = []
        self._clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def thread_enabled(self, value: Optional[bool]) -> None:
        """Force recording on or off for this thread (``None`` clears it)."""
        self._local.force = value

    def active(self) -> bool:
        force = getattr(self._local, "force", None)
        return self.enabled if force is None else force

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, Optional[int], int, float]:
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent, trace = stack[-1][0], stack[-1][1]
        else:
            parent, trace = None, span_id
        stack.append((span_id, trace))
        return span_id, parent, trace, self._clock()

    def _close(self, token, name: str, attrs: Optional[Dict[str, Any]]) -> None:
        end = self._clock()
        span_id, parent, trace, start = token
        self._stack().pop()
        self.spans.append(
            Span(span_id, parent, trace, name, start, end, threading.get_ident(), attrs)
        )

    def call(self, name: str, func: Callable, *args, **kwargs):
        """Run ``func`` inside a span (when recording)."""
        return self.wrap(func, name)(*args, **kwargs)

    def wrap(
        self,
        func: Callable,
        name: str,
        annotate: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active():
                return func(*args, **kwargs)
            token = tracer._open()
            attrs = None
            try:
                result = func(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(result)
                return result
            finally:
                tracer._close(token, name, attrs)

        return traced

    # -- installation ----------------------------------------------------------

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap each target in place; unknown targets are listed in ``missing``.

        A target names the attribute where the program *looks the callable
        up* — for a function imported with ``from x import f`` that is the
        importing module, not ``x``.
        """
        for target in targets:
            module_name, path, name = target[:3]
            annotate = target[3] if len(target) > 3 else None
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: Any = type(raw)(self.wrap(raw.__func__, name, annotate))
            else:
                wrapped = self.wrap(raw, name, annotate)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)


# -- analysis -------------------------------------------------------------------


def _covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def rollup(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Per-trace totals: one row per trace id, ordered by trace start.

    Each row carries the root span's name, the attributes of all its
    spans merged, and per span name the call count ``n``, summed duration
    ``total`` and summed self time ``self`` (seconds).
    """
    selfs = self_times(spans)
    rows: Dict[int, Dict[str, Any]] = {}
    for span in sorted(spans, key=lambda s: (s.start, s.span_id)):
        row = rows.get(span.trace)
        if row is None:
            row = rows[span.trace] = {
                "trace": span.trace, "root": None, "attrs": {}, "layers": {},
            }
        if span.span_id == span.trace:
            row["root"] = span.name
        if span.attrs:
            row["attrs"].update(span.attrs)
        agg = row["layers"].setdefault(span.name, {"n": 0, "total": 0.0, "self": 0.0})
        agg["n"] += 1
        agg["total"] += span.duration
        agg["self"] += selfs[span.span_id]
    return list(rows.values())


# -- writers --------------------------------------------------------------------


def to_chrome(spans: Sequence[Span]) -> Dict[str, Any]:
    """Chrome trace-event JSON (complete events, microseconds).

    Span id, parent and trace id travel in each event's ``args``, so the
    file keeps the whole tree and loads in ``chrome://tracing`` or
    Perfetto as is.
    """
    origin = min((span.start for span in spans), default=0.0)
    tids: Dict[int, int] = {}
    events = []
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids) + 1)
        args: Dict[str, Any] = {
            "span": span.span_id, "parent": span.parent, "trace": span.trace,
        }
        if span.attrs:
            args.update(span.attrs)
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(path, spans: Sequence[Span]) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome(spans), fh)
