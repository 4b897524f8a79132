"""HTTP round trips against a live ThreadingHTTPServer."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.datasets import markov_dna
from repro.obs import validate_explain
from repro.serve.service import JoinService, make_server


@pytest.fixture()
def server():
    srv = make_server(
        port=0, shared_buffer_frames=96, request_buffer_pages=24, max_queue=2,
        admit_timeout_s=0.2,
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _call(server, method, path, body=None):
    port = server.server_address[1]
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


class TestHealthz:
    def test_reports_version_and_occupancy(self, server):
        status, body = _call(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"] == repro.__version__
        assert body["uptime_seconds"] >= 0
        assert body["datasets"] == []
        assert body["pool"]["leased_frames"] == 0
        assert "capacity_frames" in body["pool"]


class TestLifecycleOverHttp:
    def test_cold_append_warm_round_trip(self, server):
        text = markov_dna(2500, seed=3)
        status, created = _call(
            server,
            "POST",
            "/datasets",
            {
                "id": "g",
                "kind": "text",
                "text": text,
                "window_length": 48,
                "windows_per_page": 64,
            },
        )
        assert status == 201
        assert created["pages"] > 0

        status, cold = _call(
            server, "POST", "/join", {"r": "g", "epsilon": 1.0}
        )
        assert status == 200
        assert cold["matrix_cache"] == "miss"

        status, appended = _call(
            server,
            "POST",
            "/datasets/g/pages",
            {"suffix": markov_dna(300, seed=4)},
        )
        assert status == 200
        assert appended["pages_after"] > appended["pages_before"]
        assert appended["matrices_patched"] == 1

        status, warm = _call(
            server, "POST", "/join", {"r": "g", "epsilon": 1.0}
        )
        assert status == 200
        assert warm["matrix_cache"] == "hit"
        assert warm["matrix_seconds"] == 0.0
        assert warm["counters"]["serving.warm_hit"] == 1

        status, health = _call(server, "GET", "/healthz")
        assert health["counters"]["serving.warm_hits"] == 1
        assert health["counters"]["serving.appends"] == 1

        status, gone = _call(server, "DELETE", "/datasets/g")
        assert status == 200
        assert gone["dropped_matrices"] >= 1

    def test_vector_register_and_subsequence_rejection(self, server):
        rng = np.random.default_rng(0)
        status, _ = _call(
            server,
            "POST",
            "/datasets",
            {
                "id": "v",
                "kind": "vector",
                "vectors": rng.random((200, 3)).tolist(),
                "page_capacity": 32,
            },
        )
        assert status == 201
        status, joined = _call(
            server, "POST", "/join", {"r": "v", "epsilon": 0.25}
        )
        assert status == 200
        assert joined["num_pairs"] >= 0
        status, body = _call(
            server, "POST", "/subsequence_join", {"r": "v", "epsilon": 0.25}
        )
        assert status == 400
        assert "subsequence_join" in body["error"]

    def test_explain_artifact_is_valid(self, server):
        _call(
            server,
            "POST",
            "/datasets",
            {
                "id": "g",
                "kind": "text",
                "text": markov_dna(1500, seed=5),
                "window_length": 48,
                "windows_per_page": 64,
            },
        )
        status, body = _call(
            server,
            "POST",
            "/join",
            {"r": "g", "epsilon": 1.0, "explain": True, "include_pairs": False},
        )
        assert status == 200
        validate_explain(body["explain"])
        assert body["explain"]["meta"]["request_id"] == body["request_id"]


class TestErrorMapping:
    def test_unknown_dataset_is_404(self, server):
        assert _call(server, "GET", "/datasets/nope")[0] == 404
        assert (
            _call(server, "POST", "/join", {"r": "nope", "epsilon": 1.0})[0]
            == 404
        )

    def test_bad_payloads_are_400(self, server):
        assert _call(server, "POST", "/datasets", {"id": "x"})[0] == 400
        assert (
            _call(
                server,
                "POST",
                "/datasets",
                {"id": "x", "kind": "hypercube"},
            )[0]
            == 400
        )
        _call(
            server,
            "POST",
            "/datasets",
            {
                "id": "g",
                "kind": "text",
                "text": markov_dna(1200, seed=6),
                "window_length": 48,
            },
        )
        assert (
            _call(server, "POST", "/join", {"r": "g", "epsilon": -1.0})[0]
            == 400
        )

    def test_unknown_route_is_404(self, server):
        assert _call(server, "GET", "/teapot")[0] == 404

    def test_admission_exhaustion_is_429(self, server):
        service = server.service
        _call(
            server,
            "POST",
            "/datasets",
            {
                "id": "g",
                "kind": "text",
                "text": markov_dna(1200, seed=7),
                "window_length": 48,
            },
        )
        # Hold the whole frame budget so the request must queue; the
        # fixture's 0.2s admission timeout then maps to 429.
        lease = service.session.pool.try_lease(96)
        assert lease is not None
        try:
            status, body = _call(
                server, "POST", "/join", {"r": "g", "epsilon": 1.0}
            )
        finally:
            lease.release()
        assert status == 429
        assert "error" in body


class TestNonFiniteInput:
    """NaN in a register or append body is a 400 that changes nothing.

    ``json.loads`` accepts the ``NaN`` literal, so the check has to sit
    on the dataset paths, not in the JSON parser.
    """

    def test_register_and_append_with_nan_are_400(self):
        service = JoinService()
        points = np.random.default_rng(0).random((400, 2)).tolist()
        body = json.loads(json.dumps({"id": "p", "kind": "vector", "vectors": points}))
        body["vectors"][5][1] = float("nan")
        status, error = service.dispatch("POST", "/datasets", body)
        assert status == 400 and "finite" in error["error"]

        body["vectors"][5][1] = 0.5
        assert service.dispatch("POST", "/datasets", body)[0] == 201
        pages = service.dispatch("GET", "/datasets/p", None)[1]["pages"]
        append = json.loads('{"vectors": [[NaN, 0.5]]}')
        status, error = service.dispatch("POST", "/datasets/p/pages", append)
        assert status == 400 and "finite" in error["error"]
        assert service.dispatch("GET", "/datasets/p", None)[1]["pages"] == pages
        assert service.dispatch("GET", "/healthz", None)[0] == 200

    def test_series_append_with_infinity_is_400(self):
        service = JoinService()
        values = np.random.default_rng(1).normal(size=300).cumsum().tolist()
        body = {"id": "w", "kind": "series", "values": values, "window_length": 8,
                "windows_per_page": 16}
        assert service.dispatch("POST", "/datasets", body)[0] == 201
        pages = service.dispatch("GET", "/datasets/w", None)[1]["pages"]
        append = {"values": [1.0, float("inf"), 2.0]}
        assert service.dispatch("POST", "/datasets/w/pages", append)[0] == 400
        assert service.dispatch("GET", "/datasets/w", None)[1]["pages"] == pages
