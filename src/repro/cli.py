"""Command-line interface: generate datasets and run joins on files.

Two subcommands::

    # synthesise a dataset
    python -m repro.cli generate roads --n 50000 --out roads.npy
    python -m repro.cli generate dna --n 200000 --out genome.txt

    # join two files
    python -m repro.cli join points left.npy right.npy --epsilon 0.01 \\
        --method sc --buffer 25 --pairs-out pairs.csv
    python -m repro.cli join sequence a.txt b.txt --window 192 --epsilon 1

    # run the long-lived join service (see docs/serving.md)
    python -m repro.cli serve --host 127.0.0.1 --port 8765

Point files: ``.npy``/``.npz`` (array under the ``vectors`` key) or
``.csv`` (one vector per line).  Sequence files: ``.txt`` holding either a
DNA string or whitespace/newline-separated numbers.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

__all__ = ["main"]


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Prediction-matrix similarity joins (ICDE 2003 reproduction).",
    )
    import repro

    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    subcommands = parser.add_subparsers(dest="command", required=True)
    _add_generate(subcommands)
    _add_join(subcommands)
    _add_serve(subcommands)
    args = parser.parse_args(argv)
    return args.handler(args)


# -- generate ---------------------------------------------------------------------


def _add_generate(subcommands) -> None:
    cmd = subcommands.add_parser("generate", help="synthesise a dataset file")
    cmd.add_argument("kind", choices=["roads", "landsat", "dna", "walks"])
    cmd.add_argument("--n", type=int, required=True, help="cardinality / length")
    cmd.add_argument("--out", type=Path, required=True)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.set_defaults(handler=_run_generate)


def _run_generate(args) -> int:
    from repro.datasets import landsat_like, markov_dna, road_intersections
    from repro.datasets.timeseries import concatenated_walks

    if args.kind == "dna":
        text = markov_dna(args.n, seed=args.seed)
        args.out.write_text(text)
        print(f"wrote {len(text)} nucleotides to {args.out}")
        return 0
    if args.kind == "walks":
        series_length = max(64, args.n // 10)
        data = concatenated_walks(10, series_length, seed=args.seed)[: args.n]
        np.savetxt(args.out, data)
        print(f"wrote {data.shape[0]} values to {args.out}")
        return 0
    if args.kind == "roads":
        points = road_intersections(args.n, seed=args.seed)
    else:
        points = landsat_like(args.n, seed=args.seed)
    if args.out.suffix == ".csv":
        np.savetxt(args.out, points, delimiter=",")
    else:
        np.save(args.out, points)
    print(f"wrote {points.shape[0]} x {points.shape[1]} vectors to {args.out}")
    return 0


# -- serve -------------------------------------------------------------------------


def _add_serve(subcommands) -> None:
    cmd = subcommands.add_parser(
        "serve",
        help="run the long-lived join service (HTTP, resident caches)",
    )
    cmd.add_argument("--host", default="127.0.0.1")
    cmd.add_argument("--port", type=int, default=8765)
    cmd.add_argument("--shared-buffer-frames", type=int, default=256,
                     help="total buffer frames concurrent requests may "
                          "hold (the admission pin budget)")
    cmd.add_argument("--request-buffer-pages", type=int, default=64,
                     help="default frames one join leases (its simulated "
                          "buffer size B)")
    cmd.add_argument("--max-queue", type=int, default=8,
                     help="requests allowed to wait for frames; beyond "
                          "this the service answers 429")
    cmd.add_argument("--admit-timeout", type=float, default=10.0,
                     help="seconds a queued request waits before 429")
    cmd.set_defaults(handler=_run_serve)


def _run_serve(args) -> int:
    import repro
    from repro.serve.service import serve

    print(
        f"repro {repro.__version__} join service on "
        f"http://{args.host}:{args.port} "
        f"(pin budget {args.shared_buffer_frames} frames, "
        f"{args.request_buffer_pages} frames/request, "
        f"queue {args.max_queue}, Ctrl-C to stop)"
    )
    serve(
        host=args.host,
        port=args.port,
        shared_buffer_frames=args.shared_buffer_frames,
        request_buffer_pages=args.request_buffer_pages,
        max_queue=args.max_queue,
        admit_timeout_s=args.admit_timeout,
    )
    return 0


# -- join --------------------------------------------------------------------------


def _add_join(subcommands) -> None:
    cmd = subcommands.add_parser("join", help="similarity-join two dataset files")
    cmd.add_argument("kind", choices=["points", "sequence"])
    cmd.add_argument("left", type=Path)
    cmd.add_argument(
        "right", type=Path, nargs="?", default=None,
        help="second dataset (omit for a self join)",
    )
    cmd.add_argument("--epsilon", type=float, required=True)
    cmd.add_argument("--method", default="sc")
    cmd.add_argument("--buffer", type=int, default=100, dest="buffer_pages")
    cmd.add_argument("--window", type=int, default=64,
                     help="window length (sequence joins)")
    cmd.add_argument("--page-capacity", type=int, default=64,
                     help="objects per page (point joins)")
    cmd.add_argument("--windows-per-page", type=int, default=128,
                     help="windows per page (sequence joins)")
    cmd.add_argument("--pairs-out", type=Path, default=None,
                     help="write result id pairs as CSV")
    cmd.add_argument("--trace-out", type=Path, default=None,
                     help="record a telemetry trace of the join to this file")
    cmd.add_argument("--trace-format", choices=["jsonl", "chrome"], default="jsonl",
                     help="trace file format: JSONL events or Chrome "
                          "trace-event JSON (open in Perfetto)")
    cmd.add_argument("--workers", type=int, default=1,
                     help="parallel workers for cluster execution; threads "
                          "unless --shard-strategy is given")
    cmd.add_argument("--shard-strategy", default=None,
                     choices=["affinity", "chunk", "roundrobin"],
                     help="partition clusters across worker *processes* over "
                          "shared-memory page blocks (sc/rand-sc/cc methods); "
                          "results and simulated I/O are identical to serial")
    cmd.add_argument("--prefilter", default=None,
                     choices=["approximate"],
                     help="sketch prefilter cascade: unmark cells whose "
                          "estimated collision mass is negligible, "
                          "calibrated to --recall-target")
    cmd.add_argument("--recall-target", type=float, default=0.99,
                     help="approximate prefilter's calibration target: "
                          "estimated fraction of result pairs that must "
                          "survive pruning (default 0.99)")
    cmd.add_argument("--explain", type=Path, default=None, dest="explain_out",
                     help="write the join's EXPLAIN artifact (plan "
                          "snapshots + predicted-vs-observed cost "
                          "reconciliation) to this file")
    cmd.add_argument("--explain-format", choices=["json", "text"],
                     default="json",
                     help="EXPLAIN artifact format: versioned JSON "
                          "(machine-readable, validated schema) or the "
                          "human text report")
    cmd.add_argument("--seed", type=int, default=0)
    cmd.set_defaults(handler=_run_join)


def _run_join(args) -> int:
    from repro.core.join import IndexedDataset, join

    if args.kind == "points":
        left = IndexedDataset.from_points(
            _load_points(args.left), page_capacity=args.page_capacity
        )
        right = (
            left
            if args.right is None
            else IndexedDataset.from_points(
                _load_points(args.right), page_capacity=args.page_capacity
            )
        )
    else:
        left = _sequence_dataset(args.left, args)
        right = left if args.right is None else _sequence_dataset(args.right, args)

    recorder = None
    if args.trace_out is not None:
        from repro.obs import InMemoryRecorder, JsonlRecorder

        # Chrome traces are exported from memory after the run; JSONL
        # streams to disk as spans complete.
        if args.trace_format == "chrome":
            recorder = InMemoryRecorder()
        else:
            recorder = JsonlRecorder(args.trace_out)

    prefilter = None
    if args.prefilter is not None:
        from repro import PrefilterConfig

        prefilter = PrefilterConfig(recall_target=args.recall_target)

    result = join(
        left, right, args.epsilon,
        method=args.method,
        buffer_pages=args.buffer_pages,
        seed=args.seed,
        count_only=args.pairs_out is None,
        recorder=recorder,
        workers=args.workers,
        shard_strategy=args.shard_strategy,
        prefilter=prefilter,
        explain=args.explain_out is not None,
    )
    report = result.report
    print(f"{result.num_pairs} pairs within epsilon={args.epsilon}")
    info = report.extra.get("prefilter")
    if info is not None:
        print(
            f"prefilter[{info['mode']}]: scored {info['cells_scored']} cells, "
            f"unmarked {info['cells_unmarked']}, "
            f"estimated recall {info['est_recall']:.4f}"
        )
    print(report.describe())
    if args.explain_out is not None:
        explain = report.extra["explain"]
        explain.save(args.explain_out, format=args.explain_format)
        io_recon = explain.data["reconciliation"]["io"]
        print(
            f"explain ({args.explain_format}) written to {args.explain_out} "
            f"(I/O residual {io_recon['residual_seconds']:+.3e}s, "
            f"{explain.lemma_violations} lemma violations)"
        )
    if args.pairs_out is not None:
        with open(args.pairs_out, "w") as handle:
            handle.write("left_id,right_id\n")
            for a, b in result.pairs:
                handle.write(f"{a},{b}\n")
        print(f"pairs written to {args.pairs_out}")
    if recorder is not None:
        from repro.experiments.report import format_trace_summary
        from repro.obs import write_chrome_trace

        if args.trace_format == "chrome":
            write_chrome_trace(recorder, args.trace_out)
        recorder.close()
        print(format_trace_summary(recorder, title="trace summary"))
        print(f"trace ({args.trace_format}) written to {args.trace_out}")
    return 0


def _sequence_dataset(path: Path, args):
    from repro.core.join import IndexedDataset

    content = path.read_text().strip()
    if _looks_like_dna(content):
        return IndexedDataset.from_string(
            content.replace("\n", ""),
            window_length=args.window,
            windows_per_page=args.windows_per_page,
        )
    values = np.array(content.split(), dtype=float)
    return IndexedDataset.from_time_series(
        values, window_length=args.window, windows_per_page=args.windows_per_page
    )


def _looks_like_dna(content: str) -> bool:
    sample = content[:1000].replace("\n", "")
    return bool(sample) and set(sample) <= set("ACGTacgtNn")


def _load_points(path: Path) -> np.ndarray:
    if path.suffix == ".csv":
        return np.loadtxt(path, delimiter=",", ndmin=2)
    if path.suffix == ".npz":
        archive = np.load(path)
        key = "vectors" if "vectors" in archive else list(archive.keys())[0]
        return archive[key]
    return np.load(path)


if __name__ == "__main__":
    sys.exit(main())
