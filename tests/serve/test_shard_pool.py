"""The daemon's executed joins on the warm shard pool.

A session with ``workers > 1`` runs each executed join's clusters on
the process's warm worker pool.  What a client sees does not change:
pairs, report fields and counters outside ``executor.shard*`` equal the
serial session's, a crashed worker is one failed request and leaks
nothing, and the daemon still exits cleanly on SIGINT.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core.sharding import resolve_start_method, shard_pool, shutdown_shard_pools
from repro.datasets import markov_dna, road_intersections
from repro.obs import SHARDING_VARIANT_COUNTER_PREFIXES
from repro.serve import JoinSession
from repro.serve.service import JoinService, make_server
from repro.storage.shm import shm_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="platform without usable shared memory"
)

_SHM = Path("/dev/shm")


def _shm_entries():
    return {p.name for p in _SHM.iterdir()} if _SHM.is_dir() else set()


_ROADS2 = road_intersections(1500, seed=1)
_CHR = markov_dna(4096, seed=0, repeat_share=0.5)


def _register(session):
    for name, points in (("roads", road_intersections(2000, seed=0)), ("roads2", _ROADS2)):
        session.register(
            name,
            repro.IndexedDataset.from_points(points, page_capacity=64),
            page_capacity=64,
        )
    session.register(
        "chr",
        repro.IndexedDataset.from_string(_CHR, window_length=192, windows_per_page=64),
    )


def _comparable(payload):
    """A served payload minus host timings, ids and shard counters."""
    out = {
        k: v
        for k, v in payload.items()
        if k not in ("request_id", "elapsed_seconds", "stage_seconds", "counters")
    }
    out["counters"] = {
        k: v
        for k, v in payload["counters"].items()
        if not k.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
    }
    return out


def _road_and_chromosome_joins(session):
    """The daemon's two join kinds, before and after one append each."""
    runs = []
    for _ in range(2):
        runs.append(session.join("roads", "roads2", 0.01))
        runs.append(session.join("chr", "chr", 1))
        session.append("roads", _ROADS2[:64] + 0.001)
        session.append("chr", _CHR[1000:1064])
    return runs


def test_served_joins_identical_serial_fresh_and_warm_pool():
    """``workers=1``, a sharded session whose first join starts a fresh
    pool, and a sharded session on the then-warm pool answer the road
    and chromosome joins identically, before and after appends."""
    workers = max(2, os.cpu_count() or 1)
    serial = JoinSession(request_buffer_pages=16, workers=1)
    _register(serial)
    expected = [_comparable(p) for p in _road_and_chromosome_joins(serial)]
    assert all(p["num_pairs"] > 0 for p in expected)
    assert expected[2]["num_pairs"] > expected[0]["num_pairs"]

    shutdown_shard_pools()
    for _ in ("fresh pool", "warm pool"):
        sharded = JoinSession(request_buffer_pages=16, workers=workers)
        _register(sharded)
        runs = _road_and_chromosome_joins(sharded)
        assert all(p["counters"]["executor.shards"] >= 1 for p in runs)
        assert [_comparable(p) for p in runs] == expected


def test_workers_must_be_positive():
    with pytest.raises(ValueError, match="workers"):
        JoinSession(workers=0)


def _call(port, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_shard_crash_inside_the_daemon(monkeypatch):
    """A worker crash fails its one request with a 500 that names the
    shard worker; the frames are released, no segment leaks, and the
    next request executes on a fresh pool with the serial pairs."""
    server = make_server(
        port=0,
        service=JoinService(
            shared_buffer_frames=96, request_buffer_pages=24, workers=2
        ),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        text = markov_dna(3000, seed=1)
        body = {"id": "g", "kind": "text", "text": text, "window_length": 48,
                "windows_per_page": 64}
        assert _call(port, "POST", "/datasets", body)[0] == 201
        request = {"r": "g", "epsilon": 1, "memoize": False}
        status, warm = _call(port, "POST", "/join", request)
        assert status == 200 and warm["counters"]["executor.shards"] >= 1
        crashed = shard_pool(resolve_start_method())
        before = _shm_entries()

        monkeypatch.setenv("_REPRO_SHARD_FAULT", "exit")
        status, error = _call(port, "POST", "/join", request)
        assert status == 500
        assert "shard worker" in error["error"]
        monkeypatch.delenv("_REPRO_SHARD_FAULT")

        status, health = _call(port, "GET", "/healthz")
        assert status == 200
        assert health["pool"]["leased_frames"] == 0
        assert _shm_entries() - before == set()

        status, again = _call(port, "POST", "/join", request)
        assert status == 200
        assert again["result_cache"] == "miss"
        assert shard_pool(resolve_start_method()) is not crashed
        serial = JoinSession(workers=1)
        serial.register(
            "g",
            repro.IndexedDataset.from_string(text, window_length=48, windows_per_page=64),
        )
        expected = serial.join("g", "g", 1, buffer_pages=24)["pairs"]
        assert again["pairs"] == [list(pair) for pair in expected]
        assert _shm_entries() - before == set()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("stop", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_daemon_exits_cleanly_after_an_executed_join(stop):
    """``repro serve`` stopped with SIGINT (or SIGTERM) after one executed
    join exits with status 0 within 15 s, prints nothing to stderr, and
    leaves no shared-memory segment behind."""
    port = _free_port()
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    before = _shm_entries()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(port)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                if _call(port, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, "daemon did not come up"
            assert daemon.poll() is None, daemon.stderr.read()
            time.sleep(0.05)
        body = {"id": "g", "kind": "text", "text": markov_dna(3000, seed=1),
                "window_length": 48, "windows_per_page": 64}
        assert _call(port, "POST", "/datasets", body)[0] == 201
        status, joined = _call(port, "POST", "/join", {"r": "g", "epsilon": 1})
        assert status == 200 and joined["result_cache"] == "miss"
        if (os.cpu_count() or 1) > 1:
            assert joined["counters"]["executor.shards"] >= 1
        daemon.send_signal(stop)
        _, stderr = daemon.communicate(timeout=15)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    assert daemon.returncode == 0
    assert stderr == b""
    assert {n for n in _shm_entries() - before if n.startswith("psm_")} == set()
