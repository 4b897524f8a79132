"""The join daemon with the benchmark's span wrappers installed.

Usage::

    python3 benchmarks/e2e/daemon.py --port 8765 \
        --shared-buffer-frames N --request-buffer-pages N [--trace-out FILE]

Starts ``repro.serve.service.serve`` in this process after wrapping the
layer entry points (``layers.CORE_TARGETS`` and ``layers.SERVE_TARGETS``)
and the HTTP handler's request method.  A request that carries the header
``X-Bench-Trace: 1`` is traced; any other request runs with the wrappers
switched off, so one run measures traced and untraced latency side by
side.  On SIGINT the server stops and one JSON line goes to stdout: the
per-request span rollup (:func:`trace.rollup`) and any wrapper target
that no longer exists.  ``--trace-out`` also writes every span as a
Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--shared-buffer-frames", type=int, required=True)
    parser.add_argument("--request-buffer-pages", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from layers import CORE_TARGETS, SERVE_TARGETS
    from repro.serve import service
    from trace import Tracer, rollup, write_chrome

    tracer = Tracer()
    tracer.install(CORE_TARGETS + SERVE_TARGETS)
    respond = service._Handler._respond

    def traced_respond(handler, method):
        tracer.thread_enabled(handler.headers.get("X-Bench-Trace") == "1")
        try:
            return tracer.call("serve.request", respond, handler, method)
        finally:
            tracer.thread_enabled(None)

    service._Handler._respond = traced_respond
    try:
        service.serve(
            host=args.host,
            port=args.port,
            shared_buffer_frames=args.shared_buffer_frames,
            request_buffer_pages=args.request_buffer_pages,
        )
    finally:
        service._Handler._respond = respond
        tracer.uninstall()
    print(json.dumps({"rows": rollup(tracer.spans), "missing": tracer.missing}), flush=True)
    if args.trace_out:
        write_chrome(args.trace_out, tracer.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
