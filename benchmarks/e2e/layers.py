"""Trace targets and per-layer metrics.

Each target wraps a layer entry point where the program looks it up, so a
span brackets every call into that layer.  The per-layer metrics are
derived from those spans (medians over the traced operations of a run
that entered the layer), from the
:class:`~repro.storage.stats.CostReport` of each join and from the
counters of an ``InMemoryRecorder`` passed to ``join()``.  A metric that
does not apply to a workload (a shard metric on a workload whose variant
plan is the prefilter, a serving metric on a batch workload) reads 0.

``MOVES`` lists every metric with the end-to-end metric and workload it
should move; ``README.md`` prints the same map.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence

from stats import median

__all__ = [
    "CORE_TARGETS",
    "MOVES",
    "SERVE_TARGETS",
    "batch_layers",
    "report_fields",
    "serve_layers",
]


def report_fields(report) -> Dict[str, Any]:
    """The CostReport fields the per-layer metrics read."""
    extra = report.extra
    return {
        "page_reads": report.page_reads,
        "seeks": report.seeks,
        "buffer_hits": report.buffer_hits,
        "comparisons": report.comparisons,
        "result_pairs": report.result_pairs,
        "marked_entries": extra.get("marked_entries", 0),
        "num_clusters": extra.get("num_clusters", 0),
        "pages_reused": extra.get("pages_reused", 0),
        "prefilter": extra.get("prefilter"),
    }


def _plan_attrs(plan) -> Dict[str, Any]:
    return {"shard_costs": list(plan.costs), "duplicated_pages": plan.duplicated_pages}


def _engine_attrs(result) -> Dict[str, Any]:
    return {"report": report_fields(result.report)}


def _session_attrs(payload) -> Dict[str, Any]:
    return {"counters": payload.get("counters", {})}


CORE_TARGETS = [
    ("repro.core.join", "IndexedDataset.from_points", "index.build"),
    ("repro.core.join", "IndexedDataset.from_string", "index.build"),
    ("repro.core.join", "IndexedDataset.from_time_series", "index.build"),
    ("repro.core.join", "build_prediction_matrix", "matrix.sweep"),
    ("repro.core.sweep", "iterative_filter", "matrix.filter"),
    ("repro.core.join", "plan_prefilter", "prefilter"),
    ("repro.core.join", "square_clustering", "clustering"),
    ("repro.core.join", "cost_clustering", "clustering"),
    ("repro.core.join", "greedy_cluster_order", "scheduling"),
    ("repro.core.join", "execute_clusters", "execution"),
    ("repro.core.join", "execute_clusters_sharded", "shard.execution"),
    ("repro.core.planner", "plan_shards", "shard.plan", _plan_attrs),
    ("repro.storage.buffer", "BufferPool.load_batch", "execute.stage"),
    ("repro.storage.buffer", "BufferPool.fetch", "execute.stage"),
    ("repro.core.joiners", "_ClusterBlock.filtered_cells", "execute.filter"),
    ("repro.kernels.backends", "KernelBackend.batch_envelopes", "execute.filter"),
    ("repro.kernels.backends", "KernelBackend.lb_keogh_panel", "kernel.panel"),
    ("repro.kernels.backends", "KernelBackend.euclidean_gram_panel", "kernel.panel"),
    ("repro.core.joiners", "minkowski_refine", "execute.refine"),
    ("repro.core.joiners", "dtw_batch", "execute.refine"),
    ("repro.core.joiners", "edit_batch", "execute.refine"),
]

SERVE_TARGETS = [
    ("repro.serve.session", "JoinSession.join", "serve.session", _session_attrs),
    ("repro.serve.session", "join", "serve.engine", _engine_attrs),
    ("repro.serve.session", "JoinSession.append", "serve.append"),
    ("repro.serve.admission", "AdmissionController.admit", "serve.admission"),
    ("repro.serve.service", "_Handler._read_body", "serve.parse"),
    ("repro.serve.service", "_Handler._send", "serve.serialize"),
]

# Every per-layer metric (BENCHMARK.json gives units and directions) and
# the end-to-end metric it should move, on which workload.
MOVES = {
    "index.build_s": "setup_s on spatial and landsat",
    "matrix.sweep_s": "p50_ms on landsat; no change on spatial or series",
    "matrix.filter_s": "p50_ms on landsat; no change on spatial or series",
    "matrix.marked_cells": "p50_ms and sim_io_s everywhere",
    "matrix.useful_ratio": "p50_ms on landsat",
    "prefilter.s": "alt_p50_ms on landsat and genome",
    "prefilter.unmark_ratio": "alt_p50_ms on landsat and genome",
    "prefilter.recall": "correctness of alt plan on landsat and genome",
    "clustering.s": "p50_ms on landsat",
    "clustering.clusters": "sim_io_s everywhere",
    "scheduling.s": "p50_ms on landsat",
    "schedule.pages_reused": "sim_io_s everywhere",
    "execution.s": "p50_ms on spatial, genome and series; alt_p50_ms on serve",
    "execution.stage_s": "p50_ms on spatial, genome and series",
    "execution.filter_s": "p50_ms on spatial, genome and series",
    "execution.refine_s": "p50_ms on spatial, genome and series",
    "execution.scatter_s": "p50_ms on spatial, genome and series",
    "disk.reads": "sim_io_s everywhere",
    "disk.seeks": "sim_io_s everywhere",
    "buffer.hits": "sim_io_s everywhere",
    "refine.comparisons": "sim_total_s and p50_ms everywhere",
    "filter.pass_ratio": "p50_ms on spatial, genome and series",
    "refine.useful_ratio": "p50_ms on spatial, genome and series",
    "kernel.dtw.abandon_ratio": "p50_ms and alt_p50_ms on series",
    "shard.execution_s": "alt_p50_ms on spatial and series",
    "shard.plan_s": "alt_p50_ms on spatial and series",
    "shard.parallel_efficiency": "alt_p50_ms on spatial and series",
    "shard.max_over_mean_cells": "alt_p50_ms on spatial and series",
    "shard.duplicated_pages": "alt_p50_ms on spatial and series",
    "serve.client_wait_ms.p50": "p50_ms on serve",
    "serve.transport_ms.p50": "p50_ms, alt_p50_ms and ops_per_s on serve",
    "serve.session_ms.p50": "p50_ms and ops_per_s on serve",
    "serve.admission_ms.p50": "p50_ms and alt_p50_ms on serve",
    "serve.join_ms.p50": "alt_p50_ms and ops_per_s on serve",
    "serve.parse_ms.p50": "p50_ms and alt_p50_ms on serve",
    "serve.serialize_ms.p50": "p50_ms and ops_per_s on serve",
    "serve.memo_hit_ratio": "p50_ms and ops_per_s on serve",
    "serve.matrix_warm_ratio": "alt_p50_ms and ops_per_s on serve",
    "serve.rejected": "ops_per_s on serve",
    "gen.lag_ms.max": "validity of the open-loop latencies on serve",
    "trace.overhead_pct": "none: the cost of tracing itself",
}

_ZERO = dict.fromkeys(MOVES, 0.0)


def _med(values: Iterable[float]) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _span_med(rollups: Sequence[Dict[str, Dict[str, float]]], name: str,
              field: str = "total") -> float:
    """Median per-operation time in span ``name`` over the operations that entered it."""
    return _med(layers[name][field] for layers in rollups if name in layers)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _core_layers(calls: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Matrix, clustering and execution metrics over serial executions.

    Each call holds its trace rollup (``layers``), its CostReport fields
    (``report``) and its recorder ``counters``.
    """
    if not calls:
        return {}
    layers = [call["layers"] for call in calls]
    out = {
        "matrix.sweep_s": _span_med(layers, "matrix.sweep", "self"),
        "matrix.filter_s": _span_med(layers, "matrix.filter"),
        "clustering.s": _span_med(layers, "clustering"),
        "scheduling.s": _span_med(layers, "scheduling"),
        "execution.s": _span_med(layers, "execution"),
        "execution.stage_s": _span_med(layers, "execute.stage"),
        "execution.filter_s": _span_med(layers, "execute.filter"),
        "execution.refine_s": _span_med(layers, "execute.refine"),
        "execution.scatter_s": _span_med(layers, "execution", "self"),
    }
    reports = [call["report"] for call in calls]
    counters = [call["counters"] for call in calls]
    out.update({
        "matrix.marked_cells": _med(r["marked_entries"] for r in reports),
        "clustering.clusters": _med(r["num_clusters"] for r in reports),
        "schedule.pages_reused": _med(r["pages_reused"] for r in reports),
        "disk.reads": _med(r["page_reads"] for r in reports),
        "disk.seeks": _med(r["seeks"] for r in reports),
        "buffer.hits": _med(r["buffer_hits"] for r in reports),
        "refine.comparisons": _med(r["comparisons"] for r in reports),
        "refine.useful_ratio": _med(
            _ratio(r["result_pairs"], r["comparisons"]) for r in reports
        ),
        "filter.pass_ratio": _med(_filter_pass(c) for c in counters),
        "kernel.dtw.abandon_ratio": _med(
            _ratio(c.get("kernel.dtw.abandoned", 0), c.get("kernel.dtw.pairs", 0))
            for c in counters
        ),
    })
    return out


def _filter_pass(counters: Dict[str, int]) -> float:
    """Share of marked object pairs that survive the cheap filter."""
    if "kernel.minkowski.pairs_tested" in counters:
        return _ratio(
            counters.get("kernel.minkowski.gram_candidates", 0),
            counters["kernel.minkowski.pairs_tested"],
        )
    if "kernel.dtw.pairs_tested" in counters:
        return _ratio(
            counters.get("kernel.dtw.keogh_candidates", 0),
            counters["kernel.dtw.pairs_tested"],
        )
    if "text.fd_candidates" in counters:
        cells = counters.get("refine.comparisons", 0) - counters.get("text.dp_runs", 0)
        return _ratio(counters["text.fd_candidates"], cells)
    return 0.0


def batch_layers(
    default_calls: Sequence[Dict[str, Any]],
    variant_calls: Sequence[Dict[str, Any]],
    variant: str,
    build_rollups: Sequence[Dict[str, Dict[str, float]]],
    useful_cells: int,
    recall: Optional[float],
    overhead_pct: float,
) -> Dict[str, float]:
    """Every per-layer metric of one batch run (zeros where not applicable)."""
    out = dict(_ZERO)
    out.update(_core_layers(default_calls))
    out["index.build_s"] = _span_med(build_rollups, "index.build")
    out["matrix.useful_ratio"] = _ratio(useful_cells, out["matrix.marked_cells"])
    out["trace.overhead_pct"] = overhead_pct
    if variant == "prefilter" and variant_calls:
        out["prefilter.s"] = _span_med([c["layers"] for c in variant_calls], "prefilter")
        out["prefilter.unmark_ratio"] = _med(
            _ratio(c["report"]["prefilter"]["cells_unmarked"],
                   c["report"]["prefilter"]["cells_scored"])
            for c in variant_calls
        )
        out["prefilter.recall"] = recall or 0.0
    if variant == "sharded" and variant_calls:
        layers = [c["layers"] for c in variant_calls]
        out["shard.execution_s"] = _span_med(layers, "shard.execution")
        out["shard.plan_s"] = _span_med(layers, "shard.plan")
        out["shard.parallel_efficiency"] = _ratio(
            out["execution.s"], 2.0 * out["shard.execution_s"]
        )
        plans = [c["attrs"] for c in variant_calls if c["attrs"].get("shard_costs")]
        if plans:
            costs = plans[0]["shard_costs"]
            out["shard.max_over_mean_cells"] = _ratio(max(costs), sum(costs) / len(costs))
            out["shard.duplicated_pages"] = float(plans[0]["duplicated_pages"])
    return out


def serve_layers(
    server_rows: Sequence[Dict[str, Any]],
    join_records: Sequence[Dict[str, Any]],
    counters: Dict[str, int],
    gen_lag_max_s: float,
    overhead_pct: float,
) -> Dict[str, float]:
    """Every per-layer metric of one serve run (zeros where not applicable).

    ``server_rows`` is the traced daemon's rollup (one row per traced
    request); ``join_records`` the client's open-loop join requests.
    """
    out = dict(_ZERO)
    executed = [
        {
            "layers": row["layers"],
            "report": row["attrs"]["report"],
            "counters": row["attrs"].get("counters", {}),
        }
        for row in server_rows
        if "execution" in row["layers"] and "report" in row["attrs"]
    ]
    out.update(_core_layers(executed))
    rollups = [row["layers"] for row in server_rows]
    out["index.build_s"] = _span_med(rollups, "index.build")
    joins = [layers for layers in rollups if "serve.session" in layers]
    ms = 1e3
    out["serve.session_ms.p50"] = ms * _span_med(joins, "serve.session")
    out["serve.admission_ms.p50"] = ms * _span_med(joins, "serve.admission")
    out["serve.parse_ms.p50"] = ms * _span_med(joins, "serve.parse")
    out["serve.serialize_ms.p50"] = ms * _span_med(joins, "serve.serialize")
    ok = [rec for rec in join_records if rec["status"] == 200]
    out["serve.client_wait_ms.p50"] = ms * _med(rec["sent"] - rec["due"] for rec in ok)
    out["serve.transport_ms.p50"] = ms * _med(
        (rec["done"] - rec["sent"]) - rec["elapsed"] for rec in ok
    )
    out["serve.join_ms.p50"] = ms * _med(
        rec["stage_sum"] for rec in ok if rec["result_cache"] == "miss"
    )
    requests = counters.get("serving.requests", 0)
    result_hits = counters.get("serving.result_hits", 0)
    out["serve.memo_hit_ratio"] = _ratio(result_hits, requests)
    out["serve.matrix_warm_ratio"] = _ratio(
        counters.get("serving.warm_hits", 0) - result_hits, requests
    )
    out["serve.rejected"] = float(sum(1 for rec in join_records if rec["status"] == 429))
    out["gen.lag_ms.max"] = ms * gen_lag_max_s
    out["trace.overhead_pct"] = overhead_pct
    return out
