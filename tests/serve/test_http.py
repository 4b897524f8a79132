"""HTTP round trips against a live ThreadingHTTPServer."""

import json
import socket
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

    def test_negative_content_length_is_400(self, server):
        """A negative length must not make the handler read until close."""
        request = (
            b"POST /join HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
        )
        port = server.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=3.0) as sock:
            sock.sendall(request)
            reply = b""
            while b"\r\n\r\n" not in reply:
                chunk = sock.recv(4096)  # socket.timeout if the handler hangs
                if not chunk:
                    break
                reply += chunk
        assert reply.split(b"\r\n", 1)[0].split()[1] == b"400"
        assert _call(server, "GET", "/healthz")[0] == 200

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


class TestUnknownJoinFields:
    """A join body may carry only the session's named join parameters.

    Anything else used to reach ``join()``: ``workers`` forked worker
    processes inside the daemon, ``matrix_cache`` collided with the
    session's own store, and typos surfaced as Python ``TypeError`` text.
    """

    @pytest.mark.parametrize(
        "extra",
        [
            {"workers": 8, "shard_strategy": "affinity"},
            {"matrix_cache": "/tmp/x"},
            {"typo_field": 1},
            {"buffer_policy": "mru", "keep_details": True, "seed": 3},
        ],
        ids=["workers", "matrix_cache", "typo", "engine_knobs"],
    )
    def test_is_400_naming_the_fields_before_admission(self, server, extra):
        body = {
            "id": "g", "kind": "text", "text": markov_dna(1200, seed=8),
            "window_length": 48,
        }
        assert _call(server, "POST", "/datasets", body)[0] == 201
        for path in ("/join", "/subsequence_join"):
            status, error = _call(server, "POST", path, {"r": "g", "epsilon": 1, **extra})
            assert status == 400
            assert "unknown join field" in error["error"]
            for field in extra:
                assert repr(field) in error["error"]
        status, health = _call(server, "GET", "/healthz")
        assert status == 200
        assert health["pool"]["admitted_total"] == 0
        assert health["pool"]["leased_frames"] == 0

    def test_named_parameters_are_accepted(self, server):
        body = {
            "id": "g", "kind": "text", "text": markov_dna(1200, seed=8),
            "window_length": 48,
        }
        assert _call(server, "POST", "/datasets", body)[0] == 201
        status, joined = _call(server, "POST", "/join", {
            "r": "g", "s": "g", "epsilon": 1, "method": "cc", "buffer_pages": 12,
            "max_filter_rounds": 3, "count_only": True, "include_pairs": False,
            "explain": False, "request_id": "abc", "memoize": False,
        })
        assert status == 200
        assert joined["request_id"] == "abc" and joined["method"] == "cc"


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


class TestUnjoinableInput:
    """Input ``join()`` cannot answer is a 400 that names it and changes nothing.

    Symbols outside the alphabet used to surface as ``KeyError`` (404),
    and mismatched window lengths or a NaN ε as numpy's broadcast error
    or a silently empty result.
    """

    def test_symbol_outside_alphabet_is_400(self):
        service = JoinService()
        body = {"id": "g", "kind": "text", "text": "ACGTN" * 40, "window_length": 8}
        status, error = service.dispatch("POST", "/datasets", body)
        assert status == 400 and "'N' is not in alphabet" in error["error"]

        body["text"] = markov_dna(400, seed=1)
        assert service.dispatch("POST", "/datasets", body)[0] == 201
        pages = service.dispatch("GET", "/datasets/g", None)[1]["pages"]
        status, error = service.dispatch("POST", "/datasets/g/pages", {"suffix": "ACGN"})
        assert status == 400 and "'N' is not in alphabet" in error["error"]
        assert service.dispatch("GET", "/datasets/g", None)[1]["pages"] == pages
        assert service.dispatch("GET", "/healthz", None)[0] == 200

    def test_unequal_window_lengths_are_400(self):
        service = JoinService()
        text = markov_dna(600, seed=2)
        for name, window in (("w8", 8), ("w6", 6)):
            body = {"id": name, "kind": "text", "text": text, "window_length": window,
                    "windows_per_page": 32}
            assert service.dispatch("POST", "/datasets", body)[0] == 201
        status, error = service.dispatch(
            "POST", "/join", {"r": "w8", "s": "w6", "epsilon": 1}
        )
        assert status == 400 and "length 8 and 6" in error["error"]
        assert service.dispatch("GET", "/healthz", None)[0] == 200

    def test_unequal_distances_are_400(self):
        service = JoinService()
        points = np.random.default_rng(3).random((100, 2)).tolist()
        for name, p in (("l1", 1.0), ("l2", 2.0)):
            body = {"id": name, "kind": "vector", "vectors": points, "page_capacity": 16,
                    "p": p}
            assert service.dispatch("POST", "/datasets", body)[0] == 201
        status, error = service.dispatch(
            "POST", "/join", {"r": "l1", "s": "l2", "epsilon": 0.1}
        )
        assert status == 400 and "under L1 with data under L2" in error["error"]
        assert service.dispatch("GET", "/healthz", None)[0] == 200

    def test_zero_dimensional_vectors_are_400(self):
        """``[[], [], []]`` used to register (201), then fail the join with a 500."""
        service = JoinService()
        body = {"id": "z", "kind": "vector", "vectors": [[], [], []]}
        status, error = service.dispatch("POST", "/datasets", body)
        assert status == 400 and "d >= 1" in error["error"]
        assert service.dispatch("GET", "/datasets/z", None)[0] == 404
        assert service.dispatch("GET", "/healthz", None)[0] == 200

    def test_nan_epsilon_is_400(self):
        service = JoinService()
        points = np.random.default_rng(3).random((100, 2)).tolist()
        body = {"id": "p", "kind": "vector", "vectors": points, "page_capacity": 16}
        assert service.dispatch("POST", "/datasets", body)[0] == 201
        request = json.loads('{"r": "p", "epsilon": NaN}')
        status, error = service.dispatch("POST", "/join", request)
        assert status == 400 and "nan" in error["error"]
        assert service.dispatch("GET", "/healthz", None)[0] == 200

    def test_bad_max_filter_rounds_is_400_and_caches_nothing(self):
        """Negative counts used to run as 0, each under its own matrix-cache key."""
        service = JoinService()
        points = np.random.default_rng(3).random((100, 2)).tolist()
        body = {"id": "p", "kind": "vector", "vectors": points, "page_capacity": 16}
        assert service.dispatch("POST", "/datasets", body)[0] == 201
        for rounds in (-1, -7, 2.5, True):
            status, error = service.dispatch(
                "POST", "/join", {"r": "p", "epsilon": 0.1, "max_filter_rounds": rounds}
            )
            assert status == 400 and "max_filter_rounds" in error["error"]
        health = service.dispatch("GET", "/healthz", None)[1]
        assert health["store"]["matrices"] == 0

    def test_string_max_filter_rounds_is_400_on_a_warm_memo(self):
        """A string count answered 400 cold but 200 once the memo held the request."""
        service = JoinService()
        points = np.random.default_rng(3).random((100, 2)).tolist()
        body = {"id": "p", "kind": "vector", "vectors": points, "page_capacity": 16}
        assert service.dispatch("POST", "/datasets", body)[0] == 201
        request = {"r": "p", "epsilon": 0.1, "max_filter_rounds": 5}
        for cache in ("miss", "hit"):
            status, payload = service.dispatch("POST", "/join", request)
            assert status == 200 and payload["matrix_cache"] == cache
        assert service.dispatch("POST", "/join", request)[1]["result_cache"] == "hit"
        status, error = service.dispatch("POST", "/join", dict(request, max_filter_rounds="5"))
        assert status == 400 and "max_filter_rounds" in error["error"]
        assert service.dispatch("GET", "/healthz", None)[0] == 200

    def test_infinite_epsilon_on_text_is_400(self):
        service = JoinService()
        body = {"id": "g", "kind": "text", "text": markov_dna(400, seed=1),
                "window_length": 8}
        assert service.dispatch("POST", "/datasets", body)[0] == 201
        request = json.loads('{"r": "g", "epsilon": Infinity}')
        status, error = service.dispatch("POST", "/join", request)
        assert status == 400 and "finite epsilon" in error["error"]
        assert service.dispatch("GET", "/healthz", None)[0] == 200


def _points_service():
    """A service holding 600 random points at 8 per page."""
    service = JoinService()
    points = np.random.default_rng(4).random((600, 2)).tolist()
    body = {"id": "p", "kind": "vector", "vectors": points, "page_capacity": 8}
    assert service.dispatch("POST", "/datasets", body)[0] == 201
    return service


class TestFieldTypes:
    """Join and register fields are checked, never coerced.

    ``"count_only": "false"`` used to run count-only (a non-empty string
    is truthy), ``"buffer_pages": 0`` meant the default, and the result
    memo keyed the buffer as ``int(buffer_pages)``, so a fractional or
    string buffer shared a memo entry with a valid one.
    """

    @pytest.mark.parametrize(
        "field,value",
        [
            ("count_only", "false"),
            ("explain", "no"),
            ("include_pairs", 1),
            ("memoize", "true"),
            ("buffer_pages", 10.5),
            ("buffer_pages", "10"),
            ("buffer_pages", 0),
            ("buffer_pages", True),
            ("s", 5),
            ("epsilon", True),
        ],
    )
    def test_join_field_of_wrong_type_is_400_before_admission(self, field, value):
        service = _points_service()
        status, error = service.dispatch(
            "POST", "/join", {"r": "p", "epsilon": 0.05, field: value}
        )
        assert status == 400 and field in error["error"]
        health = service.dispatch("GET", "/healthz", None)[1]
        assert health["pool"]["admitted_total"] == 0
        assert health["store"]["matrices"] == 0

    def test_bad_buffer_never_shares_a_memo_entry(self):
        service = _points_service()
        valid = {"r": "p", "epsilon": 0.05, "buffer_pages": 10}
        for bad in (10.5, 10.5, "10"):
            status, _ = service.dispatch("POST", "/join", dict(valid, buffer_pages=bad))
            assert status == 400
        status, payload = service.dispatch("POST", "/join", valid)
        assert status == 200 and payload["result_cache"] == "miss"
        want = _points_service().dispatch("POST", "/join", valid)[1]
        assert payload["counters"]["disk.reads"] == want["counters"]["disk.reads"]
        for _ in range(2):  # the matrix-warm run fills the memo
            service.dispatch("POST", "/join", valid)
        status, _ = service.dispatch("POST", "/join", dict(valid, buffer_pages="10"))
        assert status == 400

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "vector", "vectors": [[0.1, 0.2]] * 40, "page_capacity": 8.5},
            {"kind": "text", "text": "ACGT" * 40, "window_length": 8,
             "windows_per_page": 16.0},
            {"kind": "text", "text": "ACGT" * 40, "window_length": True},
            {"kind": "series", "values": list(range(100)), "window_length": 8,
             "dtw_band": 2.5},
            {"kind": "vector", "vectors": [[0.1, 0.2]] * 40, "p": "2"},
        ],
        ids=["page_capacity", "windows_per_page", "window_length", "dtw_band", "p"],
    )
    def test_register_field_of_wrong_type_is_400(self, body):
        service = JoinService()
        status, error = service.dispatch("POST", "/datasets", {"id": "d", **body})
        assert status == 400 and "must be" in error["error"]
        assert service.dispatch("GET", "/datasets/d", None)[0] == 404
