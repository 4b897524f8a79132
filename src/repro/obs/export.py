"""Trace exporters: JSONL, Chrome trace-event JSON, text span tree.

All three read from an :class:`~repro.obs.recorder.InMemoryRecorder`
(:class:`~repro.obs.recorder.JsonlRecorder` additionally streams the
JSONL form as it records).

JSONL schema (one JSON object per line)
---------------------------------------
``{"type": "meta", "origin_unix": ..., "version": 1}``
    First line; ``origin_unix`` is the wall-clock time of recorder
    creation (span/event times are seconds *relative to creation*).
``{"type": "span", "id": int, "parent": int|null, "name": str,
"thread": int, "start": float, "end": float, "dur": float, "attrs": {}}``
    One per completed span, in completion order.
``{"type": "event", "name": str, "ts": float, "fields": {}}``
    One per structured event.
``{"type": "metrics", "counters": {...}, "histograms": {...}}``
    Final line: the counter and histogram registry.

Chrome trace-event JSON
-----------------------
:func:`to_chrome_trace` emits the ``{"traceEvents": [...]}`` object
format with one complete event (``"ph": "X"``) per span — ``ts``/``dur``
in microseconds, thread idents remapped to small ``tid`` integers — and
one instant event (``"ph": "i"``) per recorded event.  Load the file at
https://ui.perfetto.dev (or ``chrome://tracing``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.recorder import InMemoryRecorder, Span, span_to_dict

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_trace_jsonl",
    "format_span_tree",
]


# -- JSONL -------------------------------------------------------------------------


def write_jsonl(recorder: InMemoryRecorder, path) -> None:
    """Dump a recorder's spans, events and metrics as JSONL."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps({"type": "meta", "origin_unix": recorder.origin_unix, "version": 1})
            + "\n"
        )
        for span in recorder.spans:
            fh.write(json.dumps(span_to_dict(span, recorder.origin), default=str) + "\n")
        for record in recorder.events:
            fh.write(json.dumps({"type": "event", **record}, default=str) + "\n")
        fh.write(json.dumps({"type": "metrics", **recorder.metrics_snapshot()}) + "\n")


def read_trace_jsonl(path) -> Dict[str, Any]:
    """Parse a JSONL trace back into ``{meta, spans, events, metrics}``.

    A line that fails to parse — typically the torn trailing line of a
    crash-truncated trace — is skipped and tallied in the returned
    ``corrupt_lines`` count instead of raising, so a partial trace still
    yields every record written before the crash.
    """
    out: Dict[str, Any] = {
        "meta": None,
        "spans": [],
        "events": [],
        "metrics": None,
        "corrupt_lines": 0,
    }
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                out["corrupt_lines"] += 1
                continue
            if not isinstance(record, dict):
                out["corrupt_lines"] += 1
                continue
            kind = record.get("type")
            if kind == "span":
                out["spans"].append(record)
            elif kind == "event":
                out["events"].append(record)
            elif kind == "metrics":
                out["metrics"] = {
                    "counters": record.get("counters", {}),
                    "histograms": record.get("histograms", {}),
                }
            elif kind == "meta":
                out["meta"] = record
    return out


# -- Chrome trace-event JSON -------------------------------------------------------


def to_chrome_trace(recorder: InMemoryRecorder) -> Dict[str, Any]:
    """The recorder's spans/events in Chrome trace-event object format."""
    spans = list(recorder.spans)
    tid_map: Dict[int, int] = {}

    def tid_of(thread_ident: Optional[int]) -> int:
        if thread_ident is None:
            return 0
        if thread_ident not in tid_map:
            tid_map[thread_ident] = len(tid_map)
        return tid_map[thread_ident]

    # Register the main thread first so it gets tid 0 even if a worker
    # span completed earlier in the list.
    for span in sorted(spans, key=lambda sp: sp.start if sp.start is not None else 0.0):
        tid_of(span.thread_id)

    events: List[Dict[str, Any]] = []
    origin = recorder.origin
    for span in spans:
        if span.start is None or span.end is None:
            continue
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": tid_of(span.thread_id),
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
        )
    for record in recorder.events:
        events.append(
            {
                "name": record["name"],
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": record["ts"] * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {k: _jsonable(v) for k, v in record["fields"].items()},
            }
        )
    events.sort(key=lambda ev: ev["ts"])
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": recorder.metrics_snapshot(),
    }


def write_chrome_trace(recorder: InMemoryRecorder, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(recorder), fh)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# -- text span tree ----------------------------------------------------------------


def format_span_tree(recorder: InMemoryRecorder, max_depth: int = 6) -> str:
    """An aggregated text rendering of the recorded span forest.

    Sibling spans sharing a name are merged into one line (``×N`` with
    summed duration) — a join executes thousands of ``execute.cluster``
    spans and nobody wants to scroll through them individually.  Spans
    merged from shard worker processes have no parent and appear as
    extra roots.
    """
    spans = [sp for sp in recorder.spans if sp.start is not None]
    if not spans:
        return "(no spans recorded)"
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    lines: List[str] = []

    def render(group: List[Span], prefix: str, depth: int) -> None:
        # Aggregate the sibling group by span name, earliest start first.
        by_name: Dict[str, List[Span]] = {}
        for span in sorted(group, key=lambda sp: sp.start or 0.0):
            by_name.setdefault(span.name, []).append(span)
        items = list(by_name.items())
        for pos, (name, members) in enumerate(items):
            last = pos == len(items) - 1
            connector = "└─ " if last else "├─ "
            total = sum(sp.duration for sp in members)
            label = name if len(members) == 1 else f"{name} ×{len(members)}"
            lines.append(f"{prefix}{connector}{label:<{max(1, 44 - len(prefix))}} {total:9.4f}s")
            if depth + 1 >= max_depth:
                continue
            sub: List[Span] = []
            for sp in members:
                sub.extend(children.get(sp.span_id, []))
            if sub:
                extension = "   " if last else "│  "
                render(sub, prefix + extension, depth + 1)

    roots = children.get(None, [])
    render(roots, "", 0)
    return "\n".join(lines)
