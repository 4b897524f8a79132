"""The ``serve`` workload: a resident daemon under mixed read/append traffic.

The daemon is ``python -m repro.cli serve`` (or, for a traced run, the
same service started by ``daemon.py`` with the span wrappers installed),
spoken to over HTTP only.  Resident data: two road networks and one
chromosome.  Traffic, all from this process over at most two keep-alive
connections:

* an open loop — arrivals of a Poisson process at ``RATE`` req/s, each
  request timed from the moment it was due;
* then a closed loop — two connections sending back to back, in rounds.

Requests come in blocks of 20 in the mix's proportions and in one fixed
order (``BLOCK``): 11 road joins ``roads ⋈ roads2`` with their pairs
returned (9 at ε = 0.005, ~5,000 pairs; 2 at ε = 0.01, ~21,000 pairs),
6 chromosome self joins at ε = 1, and 3 one-page appends that grow the
roads and the chromosome in turn.  Every join may be answered from the
result memo.  An append invalidates the memoised results over its
dataset, so the next join of each (pair, ε) executes against the
patched resident matrix and fills the memo again.  Four blocks (15 s)
hold about 46 memo hits, 22 executions and 12 appends.  The closed loop
sends ``CLOSED_ROUNDS`` blocks per connection.

The latencies fall in separate classes: a chromosome memo hit takes
~1 ms, a road memo hit ~4 ms, an execution 30–170 ms (at the reference
speed).  One median over every join sits wherever the class counts put
it, and over ten seeds it moved 22%, so the gated latencies are per
class: memo hits and executions.  Each class splits again by kind, and
one median over a class jumped between kinds: executions — a fine-ε
road join ~35 ms, a wide-ε one ~70 ms, a chromosome join ~150 ms —
spread 14-18% over ten seeds, memo hits 11-21%.  So each gated latency
is the geometric mean of per-kind medians: of all three kinds for
executions, of the two small responses (``GATED_HITS``) for memo hits.
Every per-kind median is printed.  The append median is printed, not
gated: twelve appends a run, each 2-4 ms or, behind an execution, a
delayed ACK or a slow host phase, 15-90 ms; its spread over ten seeds
was 8-15% in most sets but reached 76%.  The fixed order keeps the class
counts equal between runs; shuffling each block by the seed let them
drift (18–23 executions) and moved the execution median 31%.  The order
also spaces requests for the same result, so that a second one rarely
arrives while the first after an append still executes (both would
execute).  At 10 req/s this mix queued: the all-join median jumped
between 6 and 37 ms.

Host speed is sampled only while nothing is in flight (``_IdleProbe``),
so the probe never competes with the traffic, and open-loop latencies
are scaled by the median sample.  Scaling each request by the samples
just before and after it spread the median more (17% against 11% over
ten seeds): part of a memo hit's time is network-stack waiting, which
does not follow the CPU's speed.

At the end a quiescent join per (pair, ε) must count exactly the pairs
the client's mirror of the appended data holds.
"""

from __future__ import annotations

import bisect
import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.datasets import markov_dna, road_intersections

import oracles
from hostspeed import calibrate_all, scaled
from layers import serve_layers
from stats import median, percentile, tail_percentile

__all__ = ["run_serve"]

RATE = 6.0
CLOSED_ROUNDS = 6
SETUP_REPEATS = 3
SERVE_OPTIONS = ["--shared-buffer-frames", "64", "--request-buffer-pages", "16"]
ROAD_EPSILONS = (0.005, 0.01)
# The memo hits whose latency is gated: the two small responses.  A hit
# at the wide ε sends ~21,000 pairs, and with 2-4 of them a run their
# median moved between 13 and 146 ms over ten seeds.
GATED_HITS = (f"roads-roads2-{ROAD_EPSILONS[0]:g}", "chr-chr-1")
CHR_LENGTH = 8192
CHR_WINDOW = 192
PAGE = 64
# One block of 20 requests in a fixed order: 55% road joins (F at the
# fine ε, W at the wide one), 30% chromosome joins (C), 15% appends (A).
BLOCK = "FCWAFCFFCFAFCFWCAFCF"
# Which dataset each append of the open loop grows, in turn.
APPEND_TARGETS = ("roads", "chr")
LATENCY_LIMIT_MS = 250.0
START_TIMEOUT_S = 60.0
# The idle probe starts a sample only when the next request is due at
# least this far ahead (one sample on both CPUs takes 40-60 ms).
PROBE_QUIET_S = 0.12


@dataclass
class Request:
    kind: str  # "join" or "append"
    path: str
    body: bytes
    target: str  # dataset the request reads or grows
    at: float = 0.0  # open loop: due offset in seconds
    after: Optional[int] = None  # index of the previous append to the same dataset


def _sample(points: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    return points[rng.choice(points.shape[0], size, replace=False)]


def _inputs(seed: int, appends_per_dataset: int) -> Dict[str, Any]:
    """Resident data plus the pages appends will add, in order.

    As for the batch workloads, the structure is drawn once and the seed
    draws the instance: a 95% sample of the roads and eight point
    mutations of the chromosome.  Appended pages are the same in every
    run: each road page is a new neighbourhood of 64 intersections in a
    small square, each chromosome page 64 more bases.
    """
    rng = np.random.default_rng(seed)
    roads = _sample(road_intersections(8422, seed=0), 8000, rng)
    roads2 = _sample(road_intersections(6316, seed=1), 6000, rng)
    codes = np.frombuffer(markov_dna(CHR_LENGTH, seed=0).encode("ascii"), dtype=np.uint8).copy()
    alphabet = np.frombuffer(b"ACGT", dtype=np.uint8)
    for pos in rng.choice(codes.size, 8, replace=False):
        others = alphabet[alphabet != codes[pos]]
        codes[pos] = others[rng.integers(others.size)]
    n = appends_per_dataset
    fixed = np.random.default_rng(3)
    centres = fixed.uniform(0.05, 0.95, size=(n, 1, 2))
    road_pages = centres + fixed.uniform(-0.02, 0.02, size=(n, PAGE, 2))
    suffixes = markov_dna(PAGE * n, seed=4, repeat_share=0.0)
    return {
        "roads": roads,
        "roads2": roads2,
        "chr": codes.tobytes().decode("ascii"),
        "road_pages": road_pages,
        "chr_pages": [suffixes[i * PAGE : (i + 1) * PAGE] for i in range(n)],
    }


def _encode(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _registrations(data) -> List[bytes]:
    return [
        _encode({"id": "roads", "kind": "vector", "vectors": data["roads"].tolist(),
                 "page_capacity": PAGE}),
        _encode({"id": "roads2", "kind": "vector", "vectors": data["roads2"].tolist(),
                 "page_capacity": PAGE}),
        _encode({"id": "chr", "kind": "text", "text": data["chr"],
                 "window_length": CHR_WINDOW, "windows_per_page": PAGE}),
    ]


def _road_join(epsilon: float) -> Request:
    body = {"r": "roads", "s": "roads2", "epsilon": epsilon}
    return Request("join", "/join", _encode(body), "roads")


def _chr_join() -> Request:
    return Request("join", "/join", _encode({"r": "chr", "epsilon": 1}), "chr")


class _Appends:
    """Hands out the append pages in order and mirrors what was sent."""

    def __init__(self, data) -> None:
        self.data = data
        self.sent = {"roads": 0, "chr": 0}

    def next(self, target: str) -> Request:
        k = self.sent[target]
        self.sent[target] += 1
        if target == "roads":
            body = {"vectors": self.data["road_pages"][k].tolist()}
        else:
            body = {"suffix": self.data["chr_pages"][k]}
        return Request("append", f"/datasets/{target}/pages", _encode(body), target)

    def final_roads(self) -> np.ndarray:
        pages = self.data["road_pages"][: self.sent["roads"]].reshape(-1, 2)
        return np.concatenate([self.data["roads"], pages])

    def final_chr(self) -> str:
        return self.data["chr"] + "".join(self.data["chr_pages"][: self.sent["chr"]])


def _blocks(count: int, targets: Iterator[str], appends: _Appends) -> List[Request]:
    """``count`` blocks; appends grow ``next(targets)`` in turn."""
    out: List[Request] = []
    for _ in range(count):
        for kind in BLOCK:
            if kind == "A":
                out.append(appends.next(next(targets)))
            elif kind == "C":
                out.append(_chr_join())
            else:
                out.append(_road_join(ROAD_EPSILONS[kind == "W"]))
    return out


def _cycle(*values: str) -> Iterator[str]:
    while True:
        yield from values


# -- daemon lifecycle --------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One daemon subprocess with its output drained in the background."""

    def __init__(self, root: Path, traced: bool, trace_out: Optional[str] = None) -> None:
        self.port = _free_port()
        if traced:
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "daemon.py")]
            if trace_out:
                cmd += ["--trace-out", trace_out]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        cmd += ["--host", "127.0.0.1", "--port", str(self.port)] + SERVE_OPTIONS
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self.output = bytearray()
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()

    def _read(self) -> None:
        for chunk in iter(lambda: self.proc.stdout.read1(65536), b""):
            self.output.extend(chunk)

    def wait_healthy(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline and self.proc.poll() is None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise RuntimeError(f"daemon did not become healthy: {self.tail()}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> str:
        """Interrupt the daemon, wait for it and return its output."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=15)
        self.proc.stdout.close()
        return self.output.decode("utf-8", "replace")

    def tail(self) -> str:
        return self.output.decode("utf-8", "replace")[-2000:]


class Client:
    """One keep-alive connection; reconnects after a transport error.

    ``received`` is when the last call's response (or error) arrived,
    before the client parses it: parsing is the benchmark's cost, not
    the server's.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None
        self.received = 0.0

    def call(self, method: str, path: str, body: Optional[bytes] = None,
             traced: bool = False) -> Tuple[int, Dict[str, Any]]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        headers = {"Content-Type": "application/json"}
        if traced:
            headers["X-Bench-Trace"] = "1"
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.received = time.perf_counter()
            self.close()
            return 0, {"error": f"{type(exc).__name__}: {exc}"}
        self.received = time.perf_counter()
        try:
            return resp.status, json.loads(raw) if raw else {}
        except ValueError:
            return 0, {"error": f"HTTP {resp.status} with a body that is not JSON"}

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


# -- host speed ---------------------------------------------------------------------------

class _IdleProbe(threading.Thread):
    """Samples host speed whenever no request is in flight or due soon.

    ``due`` holds the open loop's sorted due times and ``done`` an event
    per request; the loop runs while every request due so far has
    finished and the next one is at least ``PROBE_QUIET_S`` away, so it
    never delays a send nor shares a CPU with a request.
    """

    def __init__(self, due: List[float], done: List[threading.Event]) -> None:
        super().__init__(daemon=True)
        self.due, self.done = due, done
        self.samples: List[float] = []
        self.stop_event = threading.Event()

    def run(self) -> None:
        first_pending = 0
        while not self.stop_event.is_set():
            now = time.perf_counter()
            due_now = bisect.bisect_right(self.due, now)
            while first_pending < due_now and self.done[first_pending].is_set():
                first_pending += 1
            quiet = due_now == len(self.due) or self.due[due_now] - now > PROBE_QUIET_S
            if first_pending == due_now and quiet:
                self.samples.append(calibrate_all())
            else:
                time.sleep(0.005)




# -- phases ---------------------------------------------------------------------------


def _setup(root, regs, cold, traced, trace_out=None) -> Tuple[Daemon, float, List[int]]:
    """Spawn → /healthz 200 → registrations → one cold join per (pair, ε)."""
    t0 = time.perf_counter()
    daemon = Daemon(root, traced, trace_out)
    try:
        daemon.wait_healthy()
        client = Client(daemon.port)
        statuses = [client.call("POST", "/datasets", body, traced=traced)[0] for body in regs]
        statuses += [client.call("POST", req.path, req.body, traced=traced)[0] for req in cold]
        client.close()
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - t0, statuses


def _record(req: Request, status: int, payload: Dict[str, Any], due: float, sent: float,
            done: float) -> Dict[str, Any]:
    stages = payload.get("stage_seconds") or {}
    return {
        "kind": req.kind,
        "target": req.target,
        "body": req.body,
        "status": status,
        "due": due,
        "sent": sent,
        "done": done,
        "elapsed": float(payload.get("elapsed_seconds", 0.0)),
        "stage_sum": float(sum(stages.values())),
        "result_cache": payload.get("result_cache"),
        "error": payload.get("error"),
    }


def _kind_medians(records: List[Dict[str, Any]], value) -> Dict[str, float]:
    """The median of ``value`` per distinct request, e.g. per (pair, ε) join."""
    groups: Dict[bytes, List[float]] = {}
    for rec in records:
        groups.setdefault(rec["body"], []).append(value(rec))
    return {
        "{r}-{s}-{e:g}".format(r=body["r"], s=body.get("s", body["r"]), e=body["epsilon"]):
        median(values)
        for body, values in ((json.loads(key), values) for key, values in groups.items())
    }


def _geomean(values: List[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def _open_loop(port: int, reqs: List[Request], traced: bool
               ) -> Tuple[List[Dict], float, float]:
    """Two workers send each request at its due time, or as soon as one is free.

    Returns the records, the median host-speed sample of the idle probe
    and the generator's worst lateness: how long after its due time an
    idle worker actually woke to send.  A traced run traces every other
    block, so traced and untraced latency come from the same mix.
    """
    lock = threading.Lock()
    done_events = [threading.Event() for _ in reqs]
    records: List[Optional[Dict[str, Any]]] = [None] * len(reqs)
    lags: List[float] = []
    cursor = [0]
    # Leave the probe time for a first sample before the first arrival.
    t0 = time.perf_counter() + 3 * PROBE_QUIET_S
    probe = _IdleProbe([t0 + req.at for req in reqs], done_events)

    def worker() -> None:
        client = Client(port)
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(reqs):
                    return
                req = reqs[i]
                due = t0 + req.at
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                    lags.append(time.perf_counter() - due)
                if req.after is not None:
                    done_events[req.after].wait(timeout=120)
                sent = time.perf_counter()
                tag = traced and (i // len(BLOCK)) % 2 == 1
                try:
                    status, payload = client.call("POST", req.path, req.body, traced=tag)
                finally:
                    done_events[i].set()
                records[i] = dict(
                    _record(req, status, payload, due, sent, client.received), traced=tag
                )
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(2)]
    probe.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    probe.stop_event.set()
    probe.join()
    probe.samples.append(calibrate_all())
    done = [rec for rec in records if rec is not None]
    return done, median(probe.samples), max(lags, default=0.0)


def _closed_loop(port: int, rounds: List[List[List[Request]]], traced: bool
                 ) -> Tuple[List[Dict], float, float]:
    """Rounds in which each connection sends its list back to back.

    Host speed is sampled between rounds.  Returns the records, the
    throughput at the reference loop's speed and the raw throughput
    (successful requests per second of round time).
    """
    clients = [Client(port) for _ in rounds[0]]
    flat: List[Dict[str, Any]] = []
    raw_s = scaled_s = 0.0
    before = calibrate_all()
    try:
        for per_conn in rounds:
            records: List[List[Dict[str, Any]]] = [[] for _ in per_conn]

            def worker(k: int) -> None:
                for req in per_conn[k]:
                    sent = time.perf_counter()
                    status, payload = clients[k].call("POST", req.path, req.body, traced=traced)
                    records[k].append(
                        _record(req, status, payload, sent, sent, time.perf_counter())
                    )

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(per_conn))]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
            after = calibrate_all()
            raw_s += elapsed
            scaled_s += scaled(elapsed, (before + after) / 2.0)
            before = after
            flat += [rec for recs in records for rec in recs]
    finally:
        for client in clients:
            client.close()
    ok = sum(1 for rec in flat if 200 <= rec["status"] < 300)
    return flat, ok / scaled_s, ok / raw_s


def _quiescent(port: int, appends: _Appends) -> Tuple[List[oracles.Check], float, float, int]:
    """One executed join per (pair, ε) against the client's mirror of the data."""
    client = Client(port)
    checks: List[oracles.Check] = []
    io = total = 0.0
    targets = [("roads", "roads2", eps) for eps in ROAD_EPSILONS] + [("chr", "chr", 1)]
    for r_id, s_id, eps in targets:
        status, payload = client.call("POST", "/join", _encode({
            "r": r_id, "s": s_id, "epsilon": eps, "memoize": False, "include_pairs": False,
        }))
        name = f"quiescent_{r_id}_{s_id}_{eps:g}"
        if status != 200:
            checks.append(oracles.Check(name, False, f"HTTP {status}: {payload.get('error')}"))
            continue
        got = int(payload["num_pairs"])
        if r_id == "chr":
            lo = hi = oracles.hamming1_pairs(appends.final_chr(), CHR_WINDOW).shape[0]
        else:
            lo, hi = oracles.count_l2_pairs(appends.final_roads(), appends.data["roads2"], eps)
        checks.append(oracles.Check(name, lo <= got <= hi, f"{got} pairs, oracle [{lo}, {hi}]"))
        io += float(payload["io_seconds"])
        total += float(payload["io_seconds"]) + float(payload["cpu_seconds"])
    client.close()
    return checks, io, total, len(targets)


def run_serve(root: Path, seed: int, seconds: float, trace: bool,
              trace_out: Optional[str] = None) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    # A traced run traces every other block, so it needs at least two.
    open_blocks = max(2 if trace else 1, round(RATE * seconds / len(BLOCK)))
    n_open = open_blocks * len(BLOCK)
    # A Poisson process conditioned on its count: uniform arrival times.
    arrivals = np.sort(rng.uniform(0.0, n_open / RATE, n_open))
    data = _inputs(seed, appends_per_dataset=BLOCK.count("A") * (open_blocks + CLOSED_ROUNDS))
    appends = _Appends(data)
    open_reqs = _blocks(open_blocks, _cycle(*APPEND_TARGETS), appends)
    last: Dict[str, int] = {}
    for i, (req, at) in enumerate(zip(open_reqs, arrivals)):
        req.at = float(at)
        if req.kind == "append":
            req.after = last.get(req.target)
            last[req.target] = i
    # Each connection grows one dataset, so the order of appends to a
    # dataset is fixed.
    closed = [
        [_blocks(1, _cycle(target), appends) for target in ("roads", "chr")]
        for _ in range(CLOSED_ROUNDS)
    ]

    regs = _registrations(data)
    cold = [_road_join(eps) for eps in ROAD_EPSILONS] + [_chr_join()]
    setups: List[float] = []
    raw_setups: List[float] = []
    statuses: List[int] = []

    def set_up(traced: bool, out: Optional[str] = None) -> Daemon:
        before = calibrate_all()
        daemon, elapsed, codes = _setup(root, regs, cold, traced=traced, trace_out=out)
        raw_setups.append(elapsed)
        setups.append(scaled(elapsed, (before + calibrate_all()) / 2.0))
        statuses.extend(codes)
        return daemon

    for _ in range(0 if trace else SETUP_REPEATS - 1):
        set_up(False).stop()
    daemon = set_up(trace, trace_out)
    try:
        open_records, loop, lag_max = _open_loop(daemon.port, open_reqs, trace)
        closed_records, sat_rps, raw_rps = _closed_loop(daemon.port, closed, trace)
        probe = Client(daemon.port)
        status, health = probe.call("GET", "/healthz")
        probe.close()
        checks, sim_io, sim_total, n_quiescent = _quiescent(daemon.port, appends)
        peak = daemon.peak_rss_mb()
    finally:
        output = daemon.stop()

    records = open_records + closed_records
    bad = [rec for rec in records if not 200 <= rec["status"] < 300]
    failed = sum(1 for code in statuses if not 200 <= code < 300) + len(bad)
    failed += sum(1 for check in checks if not check.ok)
    out: Dict[str, Any] = {
        "attempted": len(statuses) + len(records) + n_quiescent,
        "failed": failed,
        "checks": checks,
        "errors": [f"{rec['kind']} {rec['target']}: HTTP {rec['status']} {rec['error']}"
                   for rec in bad][:10],
    }
    open_joins = [rec for rec in open_records if rec["kind"] == "join"]
    counters = health.get("counters", {}) if status == 200 else {}

    def latency_s(rec: Dict[str, Any]) -> float:
        """Due-to-done time at the reference loop's speed."""
        return scaled(rec["done"] - rec["due"], loop)

    if not trace:
        ok_joins = [rec for rec in open_joins if rec["status"] == 200]
        classes = {
            "hit": [rec for rec in ok_joins if rec["result_cache"] == "hit"],
            "exec": [rec for rec in ok_joins if rec["result_cache"] == "miss"],
            "append": [rec for rec in open_records
                       if rec["kind"] == "append" and rec["status"] == 200],
        }
        ms = {name: [1e3 * latency_s(rec) for rec in recs] for name, recs in classes.items()}
        kinds = {name: _kind_medians(classes[name], lambda rec: 1e3 * latency_s(rec))
                 for name in ("hit", "exec")}
        lat = [1e3 * latency_s(rec) for rec in ok_joins]
        raw_lat = [1e3 * (rec["done"] - rec["due"]) for rec in ok_joins]
        tail = tail_percentile(len(lat))
        out["metrics"] = {
            "setup_s": median(setups),
            "p50_ms": _geomean([kinds["hit"][kind] for kind in GATED_HITS]),
            "alt_p50_ms": _geomean(list(kinds["exec"].values())),
            "ops_per_s": sat_rps,
            "peak_rss_mb": peak,
            "sim_io_s": sim_io,
            "sim_total_s": sim_total,
        }
        out["details"] = {
            **{f"{name}_n": len(values) for name, values in ms.items()},
            # Not gated: its spread over ten seeds reached 76% (see README.md).
            "append_ms.p50": median(ms["append"]),
            "hit_ms.p50": median(ms["hit"]),
            "exec_ms.p50": median(ms["exec"]),
            **{f"{name}_ms.p50.{kind}": value
               for name, per_kind in kinds.items() for kind, value in per_kind.items()},
            "join_n": len(lat),
            "join_ms.p50": median(lat),
            f"join_ms.p{tail}": percentile(lat, tail),
            "join_ms.p90": percentile(lat, 90),
            "closed_n": len(closed_records),
            "raw_setup_s": median(raw_setups),
            **{f"raw_{name}_ms.p50": 1e3 * median([rec["done"] - rec["due"] for rec in recs])
               for name, recs in classes.items()},
            "raw_join_ms.p90": percentile(raw_lat, 90),
            "raw_closed_rps": raw_rps,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "latency_limit_met": percentile(raw_lat, 90) <= LATENCY_LIMIT_MS and not bad,
            "gen_lag_ms.max": 1e3 * lag_max,
            "memo_hits": counters.get("serving.result_hits", 0),
            "requests_served": counters.get("serving.requests", 0),
            "reference_loop_ms.p50": 1e3 * loop,
        }
        return out

    report = json.loads(output.strip().splitlines()[-1])
    hits = [rec for rec in open_joins if rec["status"] == 200 and rec["result_cache"] == "hit"]
    traced_lat = [latency_s(rec) for rec in hits if rec["traced"]]
    plain_lat = [latency_s(rec) for rec in hits if not rec["traced"]]
    overhead = 100.0 * (median(traced_lat) / median(plain_lat) - 1.0)
    out["metrics"] = serve_layers(report["rows"], open_joins, counters, lag_max, overhead)
    out["details"] = {"traced_requests": len(report["rows"])}
    if report["missing"]:
        out["details"]["missing_targets"] = report["missing"]
    return out
