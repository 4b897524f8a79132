"""Unified telemetry: span tracing, metrics registry, exportable traces.

See ``docs/observability.md`` for the recorder protocol, the metric
catalog, the Lemma-auditor semantics and the EXPLAIN artifact schema.
"""

from repro.obs.audit import LemmaAuditor, lemma_bound
from repro.obs.explain import (
    EXPLAIN_SCHEMA_VERSION,
    ExplainCollector,
    JoinExplain,
    validate_explain,
    validate_explain_file,
)
from repro.obs.export import (
    format_span_tree,
    read_trace_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import DiskCostReplayer, fraction_to_ppm, seconds_to_us, signed_residual
from repro.obs.recorder import (
    BATCHING_VARIANT_COUNTERS,
    EXPLAIN_VARIANT_COUNTER_PREFIXES,
    NULL_RECORDER,
    SERVING_COUNTER_PREFIXES,
    SHARDING_VARIANT_COUNTER_PREFIXES,
    Histogram,
    InMemoryRecorder,
    JsonlRecorder,
    NullRecorder,
    Recorder,
    Span,
)

__all__ = [
    "BATCHING_VARIANT_COUNTERS",
    "SHARDING_VARIANT_COUNTER_PREFIXES",
    "EXPLAIN_VARIANT_COUNTER_PREFIXES",
    "SERVING_COUNTER_PREFIXES",
    "Recorder",
    "NullRecorder",
    "InMemoryRecorder",
    "JsonlRecorder",
    "NULL_RECORDER",
    "Span",
    "Histogram",
    "LemmaAuditor",
    "lemma_bound",
    "EXPLAIN_SCHEMA_VERSION",
    "ExplainCollector",
    "JoinExplain",
    "validate_explain",
    "validate_explain_file",
    "DiskCostReplayer",
    "signed_residual",
    "seconds_to_us",
    "fraction_to_ppm",
    "format_span_tree",
    "read_trace_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
