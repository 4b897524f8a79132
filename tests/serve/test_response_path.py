"""The daemon's response path: Nagle off, pairs encoded once, client drops.

An executed join's pairs are one immutable :class:`Pairs` that its
response and its memo entry share; the handler splices their JSON text,
encoded at the first send, into the rest of each response.  A client
that goes away before its response is written costs a counter, not a
traceback.
"""

import http.client
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.datasets import markov_dna, road_intersections
from repro.serve import JoinSession
from repro.serve.service import _encode, make_server
from repro.serve.session import Pairs

_ROADS = road_intersections(4000, seed=0)
_ROADS2 = road_intersections(3000, seed=1)
_ROAD_JOIN = {"r": "roads", "s": "roads2", "epsilon": 0.01}
_SHM = Path("/dev/shm")


def _roads_dataset(points):
    return repro.IndexedDataset.from_points(points, page_capacity=64)


@pytest.fixture()
def server():
    srv = make_server(port=0, shared_buffer_frames=96, request_buffer_pages=24)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


def _connection(server):
    return http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=30)


def _call(conn, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    conn.request(method, path, body=data, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _register_roads(conn):
    for name, points in (("roads", _ROADS), ("roads2", _ROADS2)):
        body = {"id": name, "kind": "vector", "vectors": points.tolist(), "page_capacity": 64}
        assert _call(conn, "POST", "/datasets", body)[0] == 201


def test_keep_alive_responses_do_not_wait_for_delayed_acks(server):
    """60 back-to-back ``GET /healthz`` on one connection take well under
    a second; with Nagle on, each waited ~40 ms for the client's ACK."""
    conn = _connection(server)
    try:
        _call(conn, "GET", "/healthz")
        started = time.perf_counter()
        for _ in range(60):
            assert _call(conn, "GET", "/healthz")[0] == 200
        assert time.perf_counter() - started < 1.0
    finally:
        conn.close()


def test_memo_hit_sends_the_executed_document(server):
    """A ~5,000-pair road join: the matrix-warm execution and the memo
    hit after it parse to one document, apart from the request's id,
    timing and cache disposition, and list ``JoinResult.pairs`` row for
    row."""
    conn = _connection(server)
    try:
        _register_roads(conn)
        assert _call(conn, "POST", "/join", _ROAD_JOIN)[1]["matrix_cache"] == "miss"
        status, executed = _call(conn, "POST", "/join", _ROAD_JOIN)
        assert status == 200 and executed["result_cache"] == "miss"
        status, hit = _call(conn, "POST", "/join", _ROAD_JOIN)
        assert status == 200 and hit["result_cache"] == "hit"
    finally:
        conn.close()
    assert hit["counters"].pop("serving.result_hit") == 1
    for payload in (executed, hit):
        for key in ("request_id", "elapsed_seconds", "result_cache"):
            del payload[key]
    assert hit == executed
    expected = repro.join(
        _roads_dataset(_ROADS), _roads_dataset(_ROADS2), 0.01, buffer_pages=24
    )
    assert 4000 < len(expected.pairs) < 6000
    assert hit["pairs"] == [list(pair) for pair in expected.pairs]


def test_pairs_are_encoded_once_for_an_execution_and_its_hits(server, monkeypatch):
    """One execution and three memo hits JSON-encode the pairs once."""
    conn = _connection(server)
    try:
        _register_roads(conn)
        _call(conn, "POST", "/join", _ROAD_JOIN)  # cold: fills the matrix cache
        encodes = []
        encode = json.JSONEncoder.encode

        def counting_encode(self, obj):
            pairs = obj.get("pairs") if isinstance(obj, dict) else obj
            if isinstance(pairs, (list, tuple)) and len(pairs) > 1000:
                encodes.append(type(obj).__name__)
            return encode(self, obj)

        monkeypatch.setattr(json.JSONEncoder, "encode", counting_encode)
        responses = [_call(conn, "POST", "/join", _ROAD_JOIN)[1] for _ in range(4)]
    finally:
        conn.close()
    assert [r["result_cache"] for r in responses] == ["miss", "hit", "hit", "hit"]
    assert len({len(r["pairs"]) for r in responses}) == 1
    assert encodes == ["Pairs"]


def test_memo_hits_share_the_executed_pairs():
    session = JoinSession(request_buffer_pages=24)
    session.register("roads", _roads_dataset(_ROADS))
    session.register("roads2", _roads_dataset(_ROADS2))
    session.join("roads", "roads2", 0.01)
    executed = session.join("roads", "roads2", 0.01)
    hits = [session.join("roads", "roads2", 0.01) for _ in range(2)]
    assert isinstance(executed["pairs"], Pairs)
    assert all(hit["pairs"] is executed["pairs"] for hit in hits)


@pytest.mark.parametrize("explain", [False, True], ids=["plain", "explain"])
def test_encoded_response_is_json_dumps_byte_for_byte(explain):
    """Spliced pair text gives exactly ``json.dumps``' bytes, wherever the
    pairs sit among the payload's keys."""
    session = JoinSession(request_buffer_pages=24)
    session.register("roads", _roads_dataset(_ROADS))
    session.register("roads2", _roads_dataset(_ROADS2))
    payloads = [session.join("roads", "roads2", 0.01, explain=explain) for _ in range(3)]
    if explain:
        assert list(payloads[0])[-1] == "explain"
    else:
        assert payloads[-1]["result_cache"] == "hit"
    for payload in payloads:
        assert isinstance(payload["pairs"], Pairs) and len(payload["pairs"]) > 0
        assert _encode(payload) == json.dumps(payload).encode("utf-8")
    assert _encode({"error": "x"}) == b'{"error": "x"}'
    only_pairs = {"pairs": Pairs([(1, 2), (3, 4)])}
    assert _encode(only_pairs) == json.dumps(only_pairs).encode("utf-8")


# -- clients that disconnect ---------------------------------------------------------


def _shm_segments():
    return {p.name for p in _SHM.glob("psm_*")} if _SHM.is_dir() else set()


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _http(port, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def test_client_reset_between_requests_is_quiet(server, monkeypatch):
    """A client that resets its keep-alive connection while the handler
    waits for the next request ends that connection without an error."""
    errors, closed = [], threading.Event()
    monkeypatch.setattr(server, "handle_error", lambda request, address: errors.append(sys.exc_info()))
    shutdown_request = server.shutdown_request

    def record_shutdown(request):
        shutdown_request(request)
        closed.set()

    monkeypatch.setattr(server, "shutdown_request", record_shutdown)
    sock = socket.create_connection(server.server_address, timeout=10)
    sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")
    response = b""
    while b"\r\n\r\n" not in response:
        response += sock.recv(65536)
    head, body = response.split(b"\r\n\r\n", 1)
    length = int(next(
        line.split(b":")[1] for line in head.split(b"\r\n") if line.lower().startswith(b"content-length")
    ))
    while len(body) < length:
        body += sock.recv(65536)
    time.sleep(0.1)  # the handler is back waiting for the next request line
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    assert closed.wait(10)
    assert errors == []


def _send_and_reset(port, path, body):
    """Send one request on a raw socket, then close it with a RST."""
    data = json.dumps(body).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    ).encode()
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(head + data)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def test_client_reset_mid_join_leaves_no_trace():
    """``repro serve``: a client that sends ``POST /join`` and resets the
    connection costs one ``serving.client_disconnects``; the daemon
    prints nothing, releases the frames, leaks no segment and answers
    the next join."""
    port = _free_port()
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    before = _shm_segments()
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(port)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while True:
            try:
                if _http(port, "GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            assert time.monotonic() < deadline, "daemon did not come up"
            assert daemon.poll() is None, daemon.stderr.read()
            time.sleep(0.05)
        body = {"id": "chr", "kind": "text", "text": markov_dna(8192, seed=0),
                "window_length": 192, "windows_per_page": 64}
        assert _http(port, "POST", "/datasets", body)[0] == 201
        join = {"r": "chr", "epsilon": 1, "memoize": False}
        _send_and_reset(port, "/join", join)
        deadline = time.monotonic() + 30
        while True:
            status, health = _http(port, "GET", "/healthz")
            if health["counters"].get("serving.client_disconnects"):
                break
            assert time.monotonic() < deadline, health["counters"]
            time.sleep(0.05)
        assert status == 200
        assert health["counters"]["serving.client_disconnects"] == 1
        assert health["pool"]["leased_frames"] == 0
        status, joined = _http(port, "POST", "/join", join)
        assert status == 200 and joined["num_pairs"] > 0
        daemon.send_signal(signal.SIGINT)
        _, stderr = daemon.communicate(timeout=15)
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate()
    assert daemon.returncode == 0
    assert stderr == b""
    assert _shm_segments() - before == set()
