"""The four batch workloads: seeded inputs, timed join plans, oracle checks.

Each workload fixes one dataset pair and join configuration from the
paper's evaluation and times two plans of ``join()``: the default plan and
one variant that exercises an optional mechanism — the process-sharded
executor or the approximate sketch prefilter.  Each mechanism has one
workload where it wins and one where it loses (see ``README.md``).

Inputs: the generators of ``repro.datasets`` draw a dataset's *structure*
(urban cores, land-cover classes, isochores, walk levels) from their seed,
and that structure alone moves the join time by 17–65% between seeds, more
than any regression bound could absorb.  So the structure is drawn once
from the seed the figure configuration uses, and ``--seed`` draws the
instance: a 95% sample of the points, a few point mutations of the
genome, or measurement noise on the walks.  Equal seeds give equal
inputs.

Every timed step — an index build or a join — is bracketed by two
host-speed samples and reported at the reference speed
(``hostspeed.py``); a serial step and its samples run pinned to one CPU.
Raw medians are printed, and kept in the run record, next to the scaled
ones.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.join import IndexedDataset, join
from repro.datasets import landsat_like, markov_dna, road_intersections
from repro.datasets.timeseries import concatenated_walks
from repro.experiments.figures import GENOME_COST_MODEL, LANDSAT_COST_MODEL
from repro.obs.recorder import InMemoryRecorder
from repro.sketch.config import PrefilterConfig

import oracles
from hostspeed import calibrate, calibrate_all, pinned, scaled
from layers import CORE_TARGETS, batch_layers, report_fields
from stats import median, percentile, tail_percentile
from trace import Tracer, rollup, write_chrome

__all__ = ["BATCH_WORKLOADS", "run_batch"]

RECALL_TARGET = 0.99
VARIANTS: Dict[str, Dict[str, Any]] = {
    "sharded": {"workers": 2, "shard_strategy": "affinity"},
    "prefilter": {"prefilter": PrefilterConfig(recall_target=RECALL_TARGET)},
}
SAMPLE_SHARE = 0.95
SETUP_MIN_BUILDS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_BUILDS = 200
MIN_TIMED = 3
DTW_SAMPLE_ROWS = 16


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    inputs: Callable[[int], Any]
    build: Callable[[Any], Tuple[IndexedDataset, IndexedDataset]]
    join_kwargs: Dict[str, Any]
    variant: str
    # (inputs, r, s, default-plan pairs, seed) -> Check
    check: Callable[[Any, IndexedDataset, IndexedDataset, np.ndarray, int], oracles.Check]


def _sample(points: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    return points[rng.choice(points.shape[0], size, replace=False)]


def _pool(size: int) -> int:
    return math.ceil(size / SAMPLE_SHARE)


# -- spatial: Figure 10, LBeach x MCounty ---------------------------------------------


def _spatial_inputs(seed: int):
    rng = np.random.default_rng(seed)
    r = _sample(road_intersections(_pool(26572), seed=0), 26572, rng)
    s = _sample(road_intersections(_pool(19615), seed=1), 19615, rng)
    return r, s


def _points_build(capacity: int):
    def build(raw):
        r, s = raw
        return (
            IndexedDataset.from_points(r, page_capacity=capacity),
            IndexedDataset.from_points(s, page_capacity=capacity),
        )

    return build


def _l2_check(epsilon: float):
    def check(raw, r, s, pairs, seed):
        return oracles.check_l2_pairs(r.paged.vectors, s.paged.vectors, pairs, epsilon)

    return check


# -- landsat: Figures 13b/14 -------------------------------------------------------------


def _landsat_inputs(seed: int):
    # The generator emits its vectors in random order, so its two halves
    # are a fixed random split; re-splitting per seed moved sim_io_s by 8%.
    rng = np.random.default_rng(seed)
    pool = landsat_like(2 * _pool(8608), seed=0)
    half = pool.shape[0] // 2
    return _sample(pool[:half], 8608, rng), _sample(pool[half:], 8608, rng)


# -- genome: Figure 11, HChr18 self join --------------------------------------------------

GENOME_WINDOW = 192
GENOME_MUTATIONS = 8


def _genome_inputs(seed: int) -> str:
    rng = np.random.default_rng(seed)
    codes = np.frombuffer(
        markov_dna(12676, seed=0, repeat_share=0.10).encode("ascii"), dtype=np.uint8
    ).copy()
    alphabet = np.frombuffer(b"ACGT", dtype=np.uint8)
    for pos in rng.choice(codes.size, GENOME_MUTATIONS, replace=False):
        others = alphabet[alphabet != codes[pos]]
        codes[pos] = others[rng.integers(others.size)]
    return codes.tobytes().decode("ascii")


def _genome_build(text: str):
    g = IndexedDataset.from_string(text, window_length=GENOME_WINDOW, windows_per_page=64)
    return g, g


def _genome_check(text, r, s, pairs, seed):
    return oracles.check_text_self_join(text, GENOME_WINDOW, pairs)


# -- series: DTW cross join over concatenated random walks ---------------------------------

SERIES_WINDOW = 64
SERIES_BAND = 4
SERIES_EPSILON = 0.75
SERIES_NOISE = 0.002


def _series_inputs(seed: int):
    rng = np.random.default_rng(seed)
    a = concatenated_walks(4, 600, seed=0, level_spread=10)
    b = concatenated_walks(4, 600, seed=1, level_spread=10)
    return (
        a + rng.normal(scale=SERIES_NOISE, size=a.shape),
        b + rng.normal(scale=SERIES_NOISE, size=b.shape),
    )


def _series_build(raw):
    a, b = raw
    return tuple(
        IndexedDataset.from_time_series(
            values, window_length=SERIES_WINDOW, windows_per_page=32, dtw_band=SERIES_BAND
        )
        for values in (a, b)
    )


def _series_check(raw, r, s, pairs, seed):
    a, b = raw
    rows = np.random.default_rng(seed).choice(r.num_objects, DTW_SAMPLE_ROWS, replace=False)
    return oracles.check_dtw_pairs(
        a, b, SERIES_WINDOW, SERIES_BAND, pairs, SERIES_EPSILON, rows.tolist()
    )


BATCH_WORKLOADS: Dict[str, BatchWorkload] = {
    wl.name: wl
    for wl in (
        BatchWorkload(
            "spatial", _spatial_inputs, _points_build(64),
            {"epsilon": 0.02, "buffer_pages": 13, "method": "sc"},
            "sharded", _l2_check(0.02),
        ),
        BatchWorkload(
            "landsat", _landsat_inputs, _points_build(16),
            {"epsilon": 0.03, "buffer_pages": 100, "method": "sc",
             "cost_model": LANDSAT_COST_MODEL},
            "prefilter", _l2_check(0.03),
        ),
        BatchWorkload(
            "genome", _genome_inputs, _genome_build,
            {"epsilon": 1, "buffer_pages": 16, "method": "sc",
             "cost_model": GENOME_COST_MODEL},
            "prefilter", _genome_check,
        ),
        BatchWorkload(
            "series", _series_inputs, _series_build,
            {"epsilon": SERIES_EPSILON, "buffer_pages": 16, "method": "sc"},
            "sharded", _series_check,
        ),
    )
}


# -- running ---------------------------------------------------------------------------


def _signature(result) -> tuple:
    """What must repeat exactly across runs of one plan: pairs and counters."""
    rep = result.report
    return (
        hash(tuple(result.pairs)), rep.result_pairs, rep.page_reads, rep.seeks,
        rep.buffer_hits, rep.comparisons, rep.io_seconds, rep.cpu_seconds,
        rep.preprocess_seconds,
    )


def _pages_of(paged, ids: np.ndarray) -> np.ndarray:
    if hasattr(paged, "page_offsets"):
        return np.searchsorted(paged.page_offsets, ids, side="right") - 1
    return ids // paged.symbols_per_page


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_batch(
    wl: BatchWorkload, seed: int, seconds: float, trace: bool,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(CORE_TARGETS)
    try:
        return _run(wl, seed, seconds, tracer, trace_out)
    finally:
        if tracer is not None:
            tracer.uninstall()


class _Timings:
    """Raw and host-speed-scaled durations of one kind of timed step."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def add(self, raw_s: float, before: float, after: float) -> None:
        self.raw.append(raw_s)
        self.scaled.append(scaled(raw_s, (before + after) / 2.0))


def _run(wl, seed, seconds, tracer: Optional[Tracer], trace_out) -> Dict[str, Any]:
    raw = wl.inputs(seed)
    setup = _Timings()
    setup_start = time.perf_counter()
    while len(setup.raw) < SETUP_MIN_BUILDS or (
        tracer is None
        and time.perf_counter() - setup_start < SETUP_MIN_SECONDS
        and len(setup.raw) < SETUP_MAX_BUILDS
    ):
        gc.collect()
        with pinned():
            before = calibrate()
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            r, s = tracer.call("setup", wl.build, raw) if tracer else wl.build(raw)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            after = calibrate()
        setup.add(elapsed, before, after)

    plans = {
        "default": dict(wl.join_kwargs),
        "variant": {**wl.join_kwargs, **VARIANTS[wl.variant]},
    }
    # Serial plans stay on one CPU with their samples; the sharded plan
    # runs on both CPUs, so its host speed is theirs.
    placement = {
        "default": (pinned, calibrate),
        "variant": (nullcontext, calibrate_all) if wl.variant == "sharded"
        else (pinned, calibrate),
    }
    errors: List[str] = []

    # One untimed warm-up per plan; the first sharded call also starts
    # worker processes and costs ~1.7x a steady one.
    ref = join(r, s, **plans["default"])
    expected = {"default": _signature(ref)}
    ref_pairs = oracles.as_pair_array(ref.pairs)
    sim = {"sim_io_s": ref.report.io_seconds, "sim_total_s": ref.report.total_seconds}
    del ref
    gc.collect()
    var = join(r, s, **plans["variant"])
    expected["variant"] = _signature(var)
    var_pairs = oracles.as_pair_array(var.pairs)
    del var
    gc.collect()
    ops = {"default": 1, "variant": 1}
    failed_ops = {"default": 0, "variant": 0}

    if tracer is None:
        sequence = [("default", False), ("variant", False)]
    else:
        sequence = [("default", False), ("default", True), ("variant", True)]
    times: Dict[Tuple[str, bool], _Timings] = {step: _Timings() for step in sequence}
    calls: Dict[str, List[Dict[str, Any]]] = {"default": [], "variant": []}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or (
        len(times[sequence[0]].raw) < MIN_TIMED and time.perf_counter() < deadline + seconds
    ):
        for plan, traced in sequence:
            recorder = InMemoryRecorder() if traced else None
            kwargs = plans[plan] if recorder is None else {**plans[plan], "recorder": recorder}
            gc.collect()
            ops[plan] += 1
            pin, calibrate_step = placement[plan]
            with pin():
                before = calibrate_step()
                if traced:
                    tracer.enabled = True
                t0 = time.perf_counter()
                try:
                    if traced:
                        result = tracer.call(f"plan.{plan}", join, r, s, **kwargs)
                    else:
                        result = join(r, s, **kwargs)
                except Exception as exc:  # a failed operation is counted, not fatal
                    failed_ops[plan] += 1
                    errors.append(f"{plan}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    if traced:
                        tracer.enabled = False
                elapsed = time.perf_counter() - t0
                after = calibrate_step()
            # The result is dropped and collected outside the timer:
            # freeing ~1M pair tuples inside it added spread.
            times[(plan, traced)].add(elapsed, before, after)
            if _signature(result) != expected[plan]:
                failed_ops[plan] += 1
                errors.append(f"{plan}: pairs or counters differ from the warm-up run")
            if traced:
                calls[plan].append({
                    "trace": tracer.spans[-1].trace,
                    "report": report_fields(result.report),
                    "counters": dict(recorder.counters),
                })
            del result
            gc.collect()
    peak = peak_rss_mb()

    checks = [wl.check(raw, r, s, ref_pairs, seed)]
    if not checks[0].ok:
        failed_ops["default"] = ops["default"]
    recall = None
    if wl.variant == "sharded":
        same = expected["variant"] == expected["default"]
        checks.append(oracles.Check(
            "sharded_equals_serial", same, "" if same else "sharded pairs or counters differ",
        ))
    else:
        pf_check, recall = oracles.check_prefilter(
            ref_pairs, var_pairs, s.num_objects, RECALL_TARGET
        )
        checks.append(pf_check)
    if not all(check.ok for check in checks[1:]):
        failed_ops["variant"] = ops["variant"]

    out: Dict[str, Any] = {
        "attempted": sum(ops.values()),
        "failed": sum(failed_ops.values()),
        "checks": checks,
        "errors": errors,
    }
    if tracer is None:
        d_times = times[("default", False)]
        v_times = times[("variant", False)]
        out["metrics"] = {
            "setup_s": median(setup.scaled),
            "p50_ms": 1e3 * median(d_times.scaled),
            "alt_p50_ms": 1e3 * median(v_times.scaled),
            "ops_per_s": len(d_times.scaled) / sum(d_times.scaled),
            "peak_rss_mb": peak,
            **sim,
        }
        out["details"] = {
            "setup_builds": len(setup.raw),
            "variant": wl.variant,
            **_timing_details("join", d_times.scaled),
            **_timing_details("alt", v_times.scaled),
            "raw_setup_s": median(setup.raw),
            "raw_join_ms.p50": 1e3 * median(d_times.raw),
            "raw_alt_ms.p50": 1e3 * median(v_times.raw),
        }
        return out

    rows = {row["trace"]: row for row in rollup(tracer.spans)}
    for plan_calls in calls.values():
        for call in plan_calls:
            call["layers"] = rows[call["trace"]]["layers"]
            call["attrs"] = rows[call["trace"]]["attrs"]
    builds = [row["layers"] for row in rows.values() if row["root"] == "setup"]
    pages = _pages_of(r.paged, ref_pairs[:, 0]) * s.num_pages + _pages_of(s.paged, ref_pairs[:, 1])
    untraced = median(times[("default", False)].scaled)
    traced = median(times[("default", True)].scaled)
    out["metrics"] = batch_layers(
        calls["default"], calls["variant"], wl.variant, builds,
        int(np.unique(pages).size), recall, 100.0 * (traced / untraced - 1.0),
    )
    out["details"] = {"traced_joins": len(calls["default"]) + len(calls["variant"])}
    if tracer.missing:
        out["details"]["missing_targets"] = tracer.missing
    if trace_out:
        write_chrome(trace_out, tracer.spans)
    return out


def _timing_details(prefix: str, values: List[float]) -> Dict[str, float]:
    """Median, the highest percentile with ten samples beyond it, and n."""
    tail = tail_percentile(len(values))
    return {
        f"{prefix}_n": len(values),
        f"{prefix}_ms.p50": 1e3 * median(values),
        f"{prefix}_ms.p{tail}": 1e3 * percentile(values, tail),
        f"{prefix}_ms.p75": 1e3 * percentile(values, 75),
        f"{prefix}_ms.p90": 1e3 * percentile(values, 90),
    }
