"""End-to-end join and serving benchmark.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--trace-out FILE] [--out FILE]

One workload per process.  Without ``--workload`` every workload runs,
each in a fresh child process.  A run builds its inputs from ``--seed``,
measures for ``--seconds``, checks every result against an independent
oracle (``oracles.py``) and prints one line per metric,
``workload metric value unit``, then as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from spans recorded around each layer
(``layers.py``).  ``--out`` appends the full run record, host details
included, to a JSON-lines file that ``compare.py`` reads.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
Exit status 1 means an operation failed or an oracle check did not hold.
"""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads and inherited by every process
# the benchmark starts.  On a 2-vCPU host OpenBLAS's default thread pool
# flips between two speeds: six 256x256 products took 3 ms or 92 ms in the
# same process, and the spatial join 0.34 s or 0.51 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parents[1]
WORKLOADS = ("spatial", "landsat", "genome", "series", "serve")
DEFAULT_SECONDS = 15.0


def _fail(message: str, code: int = 2) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"the program's sources are missing: no {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}")


def _host() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if started, and wait for it.

    The sharded executor's shared memory starts the tracker, a process
    built to outlive its parent; left alone it keeps running (or stays a
    zombie) after the benchmark exits.  The executor's worker pool is
    joined by the program itself.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Closes the tracker's pipe, which makes it exit, then waits for it.
        tracker._resource_tracker._stop()


def _run_one(args) -> int:
    # SIGTERM unwinds like an exception, so the serve daemon and the
    # resource tracker are still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _measure(args)
    finally:
        _stop_resource_tracker()


def _measure(args) -> int:
    _import_program()
    # The metric names and units are BENCHMARK.json's, next to src/.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    host_before = _host()
    started = time.time()
    if args.workload == "serve":
        from serve_load import run_serve

        result = run_serve(ROOT, args.seed, args.seconds, bool(args.trace), args.trace_out)
    else:
        from workloads import BATCH_WORKLOADS, run_batch

        result = run_batch(
            BATCH_WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            args.trace_out,
        )
    metrics = {
        name: {"value": float(result["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    correct = result["failed"] == 0 and all(check.ok for check in result["checks"])
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    for key, value in result.get("details", {}).items():
        print(f"{args.workload} # {key} {value}")
    for check in result["checks"]:
        verdict = "ok" if check.ok else "FAILED"
        print(f"{args.workload} # check {check.name} {verdict} {check.detail}")
    for error in result["errors"][:10]:
        print(f"{args.workload} # error {error}")
    summary = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    if args.out:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            **summary,
            "details": result.get("details", {}),
            "checks": [[c.name, c.ok, c.detail] for c in result["checks"]],
            "errors": result["errors"][:10],
            "started": started,
            "wall_s": time.time() - started,
            "host": host_before,
            "loadavg_after": list(os.getloadavg()),
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary), flush=True)
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        if args.trace_out:
            cmd += ["--trace-out", f"{args.trace_out}.{workload}.json"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["workloads"][workload] = summary["metrics"]
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None,
                        help="write the recorded spans as a Chrome trace")
    parser.add_argument("--out", default=None,
                        help="append the run record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
