"""CI smoke for the join-service daemon.

Starts a real ``repro serve`` process, then drives the documented
lifecycle over HTTP: register a genome-style dataset, cold join, append
pages, warm join.  Asserts the serving contracts end to end — the cold
join ran as shards on the daemon's worker pool (on a host with more than
one CPU), the warm join is a cache hit with zero matrix seconds and no
sweep counters, the session counts ``serving.warm_hits``, 20
back-to-back memo hits of the warm join on one keep-alive connection
take at most 20 ms at the median (a response that waits for the
client's delayed ACK takes ~40 ms), a requested EXPLAIN artifact
validates against the schema, and once the daemon has stopped no
``/dev/shm/psm_*`` segment is left — and writes the whole exchange to a
JSON trace for the CI artifact upload.

Usage::

    PYTHONPATH=src python benchmarks/serve_smoke.py [TRACE_OUT.json]
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

PORT = int(os.environ.get("SERVE_SMOKE_PORT", "8731"))
BASE = f"http://127.0.0.1:{PORT}"
STARTUP_TIMEOUT_S = 30.0
SHM = Path("/dev/shm")
KEEP_ALIVE_HITS = 20
KEEP_ALIVE_MEDIAN_LIMIT_MS = 20.0


def shm_segments():
    """This platform's shared-memory segment names (``psm_*``)."""
    return {p.name for p in SHM.glob("psm_*")} if SHM.is_dir() else set()


def call(method: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        BASE + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def keep_alive_hits(body, count):
    """Milliseconds of ``count`` back-to-back memo hits of the join
    ``body`` on one keep-alive connection: a response that waits for the
    client's delayed ACK shows only on a reused connection."""
    data = json.dumps(body).encode()
    conn = http.client.HTTPConnection("127.0.0.1", PORT, timeout=60)
    times = []
    try:
        for _ in range(count):
            started = time.perf_counter()
            conn.request(
                "POST", "/join", body=data, headers={"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            raw = response.read()
            times.append((time.perf_counter() - started) * 1000.0)
            payload = json.loads(raw)
            assert response.status == 200, payload
            assert payload["result_cache"] == "hit", payload["result_cache"]
    finally:
        conn.close()
    return times


def wait_for_healthz():
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            status, body = call("GET", "/healthz")
            if status == 200:
                return body
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.2)
    raise RuntimeError(f"service did not come up on {BASE}")


def main(argv) -> int:
    trace_out = argv[1] if len(argv) > 1 else "serve_smoke_trace.json"
    from repro.datasets import markov_dna
    from repro.obs import validate_explain

    segments_before = shm_segments()
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(PORT),
            "--shared-buffer-frames",
            "96",
            "--request-buffer-pages",
            "24",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        health = wait_for_healthz()
        assert health["status"] == "ok", health
        assert health["version"], "healthz must report the package version"

        _, created = call(
            "POST",
            "/datasets",
            {
                "id": "genome",
                "kind": "text",
                "text": markov_dna(3000, seed=1),
                "window_length": 48,
                "windows_per_page": 64,
            },
        )
        assert created["pages"] > 0, created

        _, cold = call("POST", "/join", {"r": "genome", "epsilon": 1.0})
        assert cold["matrix_cache"] == "miss", cold["matrix_cache"]
        if (os.cpu_count() or 1) > 1:
            shards = cold["counters"].get("executor.shards", 0)
            assert shards > 0, f"executed join did not shard: {cold['counters']}"

        _, appended = call(
            "POST",
            "/datasets/genome/pages",
            {"suffix": markov_dna(400, seed=2)},
        )
        assert appended["pages_after"] > appended["pages_before"], appended
        assert appended["matrices_patched"] == 1, appended

        _, warm = call("POST", "/join", {"r": "genome", "epsilon": 1.0})
        assert warm["matrix_cache"] == "hit", warm["matrix_cache"]
        assert warm["matrix_seconds"] == 0.0, warm["matrix_seconds"]
        assert warm["counters"]["serving.warm_hit"] == 1, warm["counters"]
        sweep_counters = [
            k for k in warm["counters"] if k.startswith("sweep.")
        ]
        assert not sweep_counters, f"warm join ran the sweep: {sweep_counters}"

        hit_ms = keep_alive_hits({"r": "genome", "epsilon": 1.0}, KEEP_ALIVE_HITS)
        hit_median_ms = statistics.median(hit_ms)
        assert hit_median_ms <= KEEP_ALIVE_MEDIAN_LIMIT_MS, (
            f"keep-alive memo hits took {hit_median_ms:.1f} ms at the median "
            f"(limit {KEEP_ALIVE_MEDIAN_LIMIT_MS:g} ms): {[round(t, 1) for t in hit_ms]}"
        )

        _, explained = call(
            "POST",
            "/join",
            {
                "r": "genome",
                "epsilon": 1.0,
                "explain": True,
                "include_pairs": False,
            },
        )
        validate_explain(explained["explain"])

        _, final_health = call("GET", "/healthz")
        counters = final_health["counters"]
        assert counters["serving.warm_hits"] >= 1, counters
        assert counters["serving.appends"] == 1, counters

        trace = {
            "healthz": final_health,
            "cold": {k: v for k, v in cold.items() if k != "pairs"},
            "append": appended,
            "warm": {k: v for k, v in warm.items() if k != "pairs"},
            "keep_alive_hit_ms": hit_ms,
            "explain": explained["explain"],
        }
        with open(trace_out, "w") as fh:
            json.dump(trace, fh, indent=2, sort_keys=True)
    finally:
        daemon.terminate()
        try:
            daemon.wait(timeout=15)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()
    assert daemon.returncode == 0, f"daemon exited with {daemon.returncode}"
    leaked = shm_segments() - segments_before
    assert not leaked, f"shared-memory segments left behind: {sorted(leaked)}"
    print(
        f"serve smoke ok: cold miss -> append ({appended['pages_before']}"
        f"->{appended['pages_after']} pages) -> warm hit "
        f"(matrix_seconds=0.0), {KEEP_ALIVE_HITS} keep-alive memo hits at "
        f"{hit_median_ms:.1f} ms median, explain artifact valid, no segment left; "
        f"trace written to {trace_out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
