"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl [--benchmark BENCHMARK.json]

``A`` holds the parent's runs and ``B`` the change's, both written by
``run.py --out`` (traced runs are skipped).  For every (workload,
end-to-end metric) the table gives each side's quartiles and a verdict,
using the metric's bound and direction from ``BENCHMARK.json``:

``unresolved``
    One side's interquartile spread is wider than the bound, so the
    medians cannot be told apart — unless every run of one side beats
    every run of the other, which gives ``better`` or ``worse``.
``worse``
    The change's median is worse than the parent's by more than the bound.
``better``
    The change wins at least nine tenths of the run pairs (ties count for
    neither side) and the medians differ by more than the parent's own
    interquartile distance.
``unchanged``
    Anything else.

The simulated-cost metrics (``EXACT``) repeat exactly for a seed, so when
both sides ran the same seeds they are compared seed by seed instead:
any seed that reads worse makes the verdict ``worse``, whatever the
bound.  Each workload also gets a ``failed_frac`` row (failed / attempted
operations, bound +0) and one ungated row per raw (unscaled) timing the
runs recorded.  The exit status is 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from stats import quartiles, relative_iqr

__all__ = ["compare", "exact_verdict", "load_runs", "verdict"]

# Computed by the program's disk model, not timed: equal seeds give equal
# values.  Their bound in BENCHMARK.json only has to absorb the spread
# between different seeds.
EXACT = ("sim_io_s", "sim_total_s")


def load_runs(path) -> List[dict]:
    with open(path) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return [run for run in runs if not run.get("trace")]


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> str:
    """The verdict for one metric; ``a`` is the parent, ``b`` the change.

    Runs pair up in order for the win count, so list them seed by seed.
    """
    sign = 1.0 if better == "lower" else -1.0

    def gain(x: float, y: float) -> float:
        """How much better ``y`` is than ``x`` (positive: better)."""
        return sign * (x - y)

    qa, qb = quartiles(a), quartiles(b)
    ma, mb = qa[1], qb[1]
    if max(relative_iqr(a), relative_iqr(b)) > bound:
        if all(gain(x, y) > 0 for x in a for y in b):
            return "better"
        if all(gain(x, y) < 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if -gain(ma, mb) / abs(ma) > bound:
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if gain(x, y) > 0)
    if gain(ma, mb) > 0 and wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]:
        return "better"
    return "unchanged"


def exact_verdict(a: Sequence[float], b: Sequence[float], better: str) -> str:
    """Seed-by-seed verdict for a metric that repeats exactly per seed."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (x - y) for x, y in zip(a, b)]
    if any(g < 0 for g in gains):
        return "worse"
    if any(g > 0 for g in gains):
        return "better"
    return "unchanged"


def _by_workload(runs: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = defaultdict(list)
    for run in sorted(runs, key=lambda r: (r["workload"], r["seed"], r.get("started", 0))):
        grouped[run["workload"]].append(run)
    return grouped


def compare(runs_a: List[dict], runs_b: List[dict], spec: dict) -> List[Tuple]:
    """Rows ``(workload, metric, parent quartiles, change quartiles, verdict, note)``."""
    rows: List[Tuple] = []
    side_a, side_b = _by_workload(runs_a), _by_workload(runs_b)
    for workload in sorted(set(side_a) & set(side_b)):
        ra, rb = side_a[workload], side_b[workload]
        same_seeds = [r["seed"] for r in ra] == [r["seed"] for r in rb]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in ra]
            b = [r["metrics"][name]["value"] for r in rb]
            if name in EXACT and same_seeds:
                result, note = exact_verdict(a, b, metric["better"]), "seed by seed"
            else:
                result, note = verdict(a, b, metric["bound"], metric["better"]), ""
            rows.append((workload, name, quartiles(a), quartiles(b), result, note))
        fa = sum(r["failed"] for r in ra) / sum(r["attempted"] for r in ra)
        fb = sum(r["failed"] for r in rb) / sum(r["attempted"] for r in rb)
        share = "worse" if fb > fa else "better" if fb < fa else "unchanged"
        rows.append((workload, "failed_frac", (fa,) * 3, (fb,) * 3, share, ""))
        raw = sorted(
            key for key in ra[0].get("details", {})
            if key.startswith("raw_") and all(key in r.get("details", {}) for r in ra + rb)
        )
        for key in raw:
            a = [r["details"][key] for r in ra]
            b = [r["details"][key] for r in rb]
            rows.append((workload, key, quartiles(a), quartiles(b), "not gated", ""))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--benchmark", type=Path,
        default=Path(__file__).resolve().parents[2] / "BENCHMARK.json",
    )
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    print(f"{'workload':9s} {'metric':16s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'change':>8s}  verdict")
    for workload, name, qa, qb, result, note in rows:
        delta = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
        print(
            f"{workload:9s} {name:16s} "
            f"{qa[0]:>9.4g} {qa[1]:>9.4g} {qa[2]:>9.4g}   "
            f"{qb[0]:>9.4g} {qb[1]:>9.4g} {qb[2]:>9.4g}   "
            f"{100 * delta:>+7.1f}%  {result}{'  (' + note + ')' if note else ''}"
        )
    return 1 if any(row[4] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
