"""Compare a freshly generated ``BENCH_micro.json`` against a baseline.

Usage::

    python benchmarks/check_bench_regression.py BASELINE.json FRESH.json

Only dimensionless ``speedup`` ratios are compared — they measure the
vectorized/batched implementation against its scalar reference *on the
same machine in the same run*, so they are stable across hardware in a
way absolute seconds are not.  A kernel counts as regressed when its
fresh speedup falls below half the committed baseline, or when a
baseline row disappeared from the fresh file entirely.

``parallel_cluster_execution`` and ``sharding`` are deliberately
excluded: their speedups are serial-vs-workers wall clock and depend on
the host's core count (a single-core CI runner caps both at ~1x, which
says nothing about the code).  Their correctness — bit-identical pairs
and counters at every worker count — is asserted inside the bench and
the tier-1 suite instead.
"""

from __future__ import annotations

import json
import sys

# Sections whose ``speedup`` ratios are machine-independent contracts.
# ``observability``'s ratio is join-seconds over summed no-op telemetry
# call cost — both scale with the host, so the ratio gates the
# NullRecorder's relative overhead.
CHECKED_SECTIONS = (
    "refinement_kernels",
    "minkowski_gram_filter",
    "matrix_build",
    "clustering",
    "observability",
    "wavefront_kernels",
)
MAX_SLOWDOWN = 2.0

# The ``wavefront_kernels`` section also carries an absolute gate: the
# wavefront kernels' combined DTW+edit speedup over the frozen row-kernel
# oracle on the survivor-heavy workload (the realistic post-filter
# refinement mix) must hold its floor on any machine.
WAVEFRONT_GATED_PATH = ("survivor_heavy", "wavefront", "combined", "speedup")
WAVEFRONT_MIN_SPEEDUP = 3.0

# The ``prefilter`` section is gated absolutely instead of against the
# baseline ratio.  Its contract: the approximate prefilter reaches the
# minimum end-to-end speedup on the high-dimensional genome config
# (d = 192 PAA-domain windows), at measured recall >= the floor on every
# row.  The small spatial/landsat speedups are recorded for honesty —
# sketch scoring dominates sub-100ms joins, so their wall-clock ratios
# say nothing portable — and are deliberately not gated.
PREFILTER_GATED_ROW = "genome"
PREFILTER_MIN_SPEEDUP = 1.5
PREFILTER_MIN_RECALL = 0.99

# The ``serving`` section is gated absolutely (ISSUE 10) and kept out
# of the baseline-ratio scan on purpose: the warm side of its headline
# ratio is a memoised-result hit measured in microseconds, where timer
# resolution alone moves the ratio by more than the 2x regression
# threshold run to run.  The contracts themselves are hard floors on
# any machine: a warm repeat join beats the full cold request (dataset
# build + register + cold join) by >= 5x, and an incremental append
# beats cold-rebuilding the appended state by >= 3x, both on the
# genome config.
SERVING_MIN_WARM_SPEEDUP = 5.0
SERVING_MIN_APPEND_SPEEDUP = 3.0

# The ``observability.explain`` row is gated absolutely: with
# ``explain`` off (the default) the dormant collector plumbing must stay
# inside the same 2% budget the NullRecorder is held to (ISSUE 9).  The
# explain-on overhead is recorded for honesty but not gated — it buys
# the plan/reconciliation artifact and is allowed to cost real time.
EXPLAIN_MAX_OFF_OVERHEAD_PCT = 2.0


def collect_speedups(section, prefix):
    """Flatten every key named ``speedup`` under ``section`` to ``{path: value}``."""
    found = {}
    if isinstance(section, dict):
        for key, value in section.items():
            if key == "speedup" and isinstance(value, (int, float)):
                found[prefix] = float(value)
            else:
                found.update(collect_speedups(value, f"{prefix}.{key}"))
    return found


def load_speedups(path):
    with open(path) as fh:
        data = json.load(fh)
    found = {}
    for name in CHECKED_SECTIONS:
        if name in data:
            found.update(collect_speedups(data[name], name))
    return found


def check_prefilter(path):
    """Absolute gates for the sketch-prefilter cascade (ISSUE 7)."""
    with open(path) as fh:
        section = json.load(fh).get("prefilter")
    if section is None:
        return [], ["prefilter: section missing from fresh results"]

    failures = []
    lines = []
    row = section.get(PREFILTER_GATED_ROW)
    if row is None:
        return [], [f"prefilter.{PREFILTER_GATED_ROW}: gated row missing"]
    speedup = float(row.get("speedup", 0.0))
    status = "FAIL" if speedup < PREFILTER_MIN_SPEEDUP else "ok"
    lines.append(
        f"{status:4} prefilter.{PREFILTER_GATED_ROW}: approximate "
        f"{speedup:.2f}x (floor {PREFILTER_MIN_SPEEDUP}x)"
    )
    if speedup < PREFILTER_MIN_SPEEDUP:
        failures.append(
            f"prefilter.{PREFILTER_GATED_ROW}: approximate speedup "
            f"{speedup:.2f}x below the {PREFILTER_MIN_SPEEDUP}x floor"
        )
    for name, data in sorted(section.items()):
        recall = data.get("recall_measured") if isinstance(data, dict) else None
        if recall is not None and float(recall) < PREFILTER_MIN_RECALL:
            failures.append(
                f"prefilter.{name}: measured recall {float(recall):.4f} "
                f"below {PREFILTER_MIN_RECALL}"
            )
    return lines, failures


def check_wavefront_kernels(path):
    """Absolute wavefront-vs-row-oracle gate."""
    with open(path) as fh:
        section = json.load(fh).get("wavefront_kernels")
    if section is None:
        return [], ["wavefront_kernels: section missing from fresh results"]
    node = section
    for key in WAVEFRONT_GATED_PATH:
        node = node.get(key) if isinstance(node, dict) else None
        if node is None:
            return [], [
                "wavefront_kernels: gated row "
                + ".".join(WAVEFRONT_GATED_PATH) + " missing"
            ]
    speedup = float(node)
    status = "FAIL" if speedup < WAVEFRONT_MIN_SPEEDUP else "ok"
    lines = [
        f"{status:4} wavefront_kernels.survivor_heavy.wavefront: combined "
        f"{speedup:.2f}x (floor {WAVEFRONT_MIN_SPEEDUP}x)"
    ]
    failures = []
    if speedup < WAVEFRONT_MIN_SPEEDUP:
        failures.append(
            f"wavefront_kernels: wavefront combined speedup {speedup:.2f}x "
            f"below the {WAVEFRONT_MIN_SPEEDUP}x floor"
        )
    return lines, failures


def check_explain(path):
    """Absolute explain-off overhead gate (ISSUE 9)."""
    with open(path) as fh:
        section = json.load(fh).get("observability", {})
    row = section.get("explain")
    if row is None:
        return [], ["observability.explain: row missing from fresh results"]
    off_pct = float(row.get("off_overhead_pct", 100.0))
    on_pct = float(row.get("on_overhead_pct", 0.0))
    status = "FAIL" if off_pct >= EXPLAIN_MAX_OFF_OVERHEAD_PCT else "ok"
    lines = [
        f"{status:4} observability.explain: off overhead {off_pct:+.2f}% "
        f"(cap {EXPLAIN_MAX_OFF_OVERHEAD_PCT}%), on overhead {on_pct:+.2f}% "
        f"(recorded, not gated)"
    ]
    failures = []
    if off_pct >= EXPLAIN_MAX_OFF_OVERHEAD_PCT:
        failures.append(
            f"observability.explain: explain-off overhead {off_pct:.2f}% "
            f"at or above the {EXPLAIN_MAX_OFF_OVERHEAD_PCT}% cap"
        )
    return lines, failures


def check_serving(path):
    """Absolute resident-serving gates (ISSUE 10)."""
    with open(path) as fh:
        section = json.load(fh).get("serving")
    if section is None:
        return [], ["serving: section missing from fresh results"]
    warm = float(section.get("speedup", 0.0))
    append = float(section.get("append", {}).get("speedup", 0.0))
    lines = []
    failures = []
    status = "FAIL" if warm < SERVING_MIN_WARM_SPEEDUP else "ok"
    lines.append(
        f"{status:4} serving: warm repeat {warm:.1f}x over cold request "
        f"(floor {SERVING_MIN_WARM_SPEEDUP}x)"
    )
    if warm < SERVING_MIN_WARM_SPEEDUP:
        failures.append(
            f"serving: warm/cold {warm:.2f}x below the "
            f"{SERVING_MIN_WARM_SPEEDUP}x floor"
        )
    status = "FAIL" if append < SERVING_MIN_APPEND_SPEEDUP else "ok"
    lines.append(
        f"{status:4} serving.append: incremental {append:.1f}x over rebuild "
        f"(floor {SERVING_MIN_APPEND_SPEEDUP}x)"
    )
    if append < SERVING_MIN_APPEND_SPEEDUP:
        failures.append(
            f"serving.append: append/rebuild {append:.2f}x below the "
            f"{SERVING_MIN_APPEND_SPEEDUP}x floor"
        )
    return lines, failures


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    baseline = load_speedups(argv[1])
    fresh = load_speedups(argv[2])

    failures = []
    for path, base in sorted(baseline.items()):
        got = fresh.get(path)
        if got is None:
            failures.append(f"{path}: present in baseline ({base:.2f}x) but missing")
            continue
        status = "FAIL" if got < base / MAX_SLOWDOWN else "ok"
        print(f"{status:4} {path}: baseline {base:.2f}x -> fresh {got:.2f}x")
        if got < base / MAX_SLOWDOWN:
            failures.append(
                f"{path}: speedup fell {base:.2f}x -> {got:.2f}x "
                f"(more than {MAX_SLOWDOWN}x regression)"
            )
    for path in sorted(set(fresh) - set(baseline)):
        print(f"new  {path}: {fresh[path]:.2f}x (no baseline)")

    prefilter_lines, prefilter_failures = check_prefilter(argv[2])
    for line in prefilter_lines:
        print(line)
    failures.extend(prefilter_failures)

    wavefront_lines, wavefront_failures = check_wavefront_kernels(argv[2])
    for line in wavefront_lines:
        print(line)
    failures.extend(wavefront_failures)

    explain_lines, explain_failures = check_explain(argv[2])
    for line in explain_lines:
        print(line)
    failures.extend(explain_failures)

    serving_lines, serving_failures = check_serving(argv[2])
    for line in serving_lines:
        print(line)
    failures.extend(serving_failures)

    if failures:
        print("\nBench regression detected:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"\nAll {len(baseline)} benchmarked speedups within {MAX_SLOWDOWN}x of baseline.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
