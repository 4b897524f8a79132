"""The stdlib HTTP face of the join service (``repro serve``).

A :class:`~http.server.ThreadingHTTPServer` dispatching JSON requests
onto one shared :class:`~repro.serve.session.JoinSession`:

====== ============================ ==========================================
Method Path                         Action
====== ============================ ==========================================
GET    ``/healthz``                 Version, uptime, resident datasets,
                                    pool occupancy, serving counters.
GET    ``/datasets``                List resident datasets.
POST   ``/datasets``                Register a dataset (build + make resident).
GET    ``/datasets/{id}``           Describe one resident dataset.
POST   ``/datasets/{id}/pages``     Incremental append (patch warm state).
DELETE ``/datasets/{id}``           Evict a dataset and its cache entries.
POST   ``/join``                    Run a join against resident snapshots.
POST   ``/subsequence_join``        Same, restricted to sliding-window data.
====== ============================ ==========================================

Error mapping: unknown dataset → **404**; malformed payloads and config
errors → **400**; admission queue full or wait timed out → **429**;
anything else → **500** with the exception text.

No new dependencies: ``http.server`` + ``json`` only, threads per
request (the session is built for exactly that concurrency).  Responses
go out with Nagle's algorithm off, and an executed result's pairs are
JSON-encoded once (:class:`~repro.serve.session.Pairs`), however many
memo hits send them.
:func:`serve` runs executed joins on ``os.cpu_count()`` shard workers
and starts their warm pool before the first HTTP thread exists.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

import numpy as np

import repro
from repro.core.join import IndexedDataset
from repro.core.sharding import start_shard_pool
from repro.errors import ConfigError
from repro.serve.admission import AdmissionRejected
from repro.serve.session import JoinSession, Pairs

__all__ = ["JoinService", "make_server", "serve"]

_DATASET_PATH = re.compile(r"^/datasets/([^/]+)$")
_PAGES_PATH = re.compile(r"^/datasets/([^/]+)/pages$")


# A join request names its datasets and ε plus any of the session's named
# join parameters — nothing else reaches join().
_JOIN_FIELDS = frozenset(
    {"r", "s"}
    | set(inspect.signature(JoinSession.join).parameters) - {"self", "r_id", "s_id"}
)


_ABSENT = object()


def _field(body: Dict[str, Any], key: str, types, default: Any = _ABSENT) -> Any:
    """``body[key]`` if it is one of ``types``, else ``ValueError``.

    Nothing is coerced.  JSON ``true``/``false`` parse to ``bool``, which
    Python counts as an ``int``, so a ``bool`` passes only where
    ``types`` names ``bool``.  An absent key gives ``default``, or is an
    error when there is none.
    """
    if key not in body:
        if default is _ABSENT:
            raise ValueError(f"request body is missing required field {key!r}")
        return default
    value = body[key]
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        expected = "/".join(
            "null" if t is type(None) else t.__name__ for t in types
        )
        raise ValueError(
            f"field {key!r} must be {expected}, got {type(value).__name__}"
        )
    return value


_NUMBER = (int, float)
_COUNT = (int,)
_FLAG = (bool,)
# The type of each optional join field.  ``join()`` and the session
# check values (a positive buffer, a known method, ...); this checks
# types, so a JSON string or float is never coerced into a count or flag.
_JOIN_FIELD_TYPES = {
    "s": (str,),
    "method": (str,),
    "buffer_pages": (int, type(None)),
    "max_filter_rounds": _COUNT,
    "count_only": _FLAG,
    "include_pairs": _FLAG,
    "explain": _FLAG,
    "memoize": _FLAG,
    "request_id": (str, type(None)),
}


class JoinService:
    """One session plus the request-level glue the HTTP handler calls."""

    def __init__(self, session: Optional[JoinSession] = None, **session_kwargs) -> None:
        self.session = session or JoinSession(**session_kwargs)

    # -- handlers (return (status, payload)) -----------------------------------

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        stats = self.session.stats()
        return 200, {
            "status": "ok",
            "version": repro.__version__,
            "uptime_seconds": stats["uptime_seconds"],
            "datasets": stats["datasets"],
            "pool": stats["admission"],
            "store": stats["store"],
            "counters": stats["counters"],
        }

    def register_dataset(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        dataset_id = _field(body, "id", (str,))
        kind = _field(body, "kind", (str,))
        page_capacity = None
        if kind == "vector":
            vectors = np.asarray(_field(body, "vectors", (list,)), dtype=np.float64)
            page_capacity = _field(body, "page_capacity", _COUNT, 64)
            dataset = IndexedDataset.from_points(
                vectors,
                page_capacity=page_capacity,
                p=float(_field(body, "p", _NUMBER, 2.0)),
                dataset_id=dataset_id,
            )
        elif kind == "text":
            kwargs: Dict[str, Any] = {}
            if "alphabet" in body:
                kwargs["alphabet"] = body["alphabet"]
            dataset = IndexedDataset.from_string(
                _field(body, "text", (str,)),
                window_length=_field(body, "window_length", _COUNT),
                windows_per_page=_field(body, "windows_per_page", _COUNT, 256),
                dataset_id=dataset_id,
                **kwargs,
            )
        elif kind == "series":
            values = np.asarray(_field(body, "values", (list,)), dtype=np.float64)
            dataset = IndexedDataset.from_time_series(
                values,
                window_length=_field(body, "window_length", _COUNT),
                windows_per_page=_field(body, "windows_per_page", _COUNT, 256),
                dtw_band=_field(body, "dtw_band", (int, type(None)), None),
                dataset_id=dataset_id,
            )
        else:
            raise ValueError(
                f"unknown dataset kind {kind!r}; expected vector, text or series"
            )
        described = self.session.register(
            dataset_id, dataset, page_capacity=page_capacity
        )
        return 201, described

    def append(self, dataset_id: str, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        if "vectors" in body:
            payload: Any = np.asarray(body["vectors"], dtype=np.float64)
        elif "suffix" in body:
            payload = body["suffix"]
        elif "values" in body:
            payload = np.asarray(body["values"], dtype=np.float64)
        else:
            raise ValueError(
                "append body must carry 'vectors' (vector datasets), "
                "'suffix' (text) or 'values' (series)"
            )
        return 200, self.session.append(dataset_id, payload)

    def join(
        self, body: Dict[str, Any], subsequence: bool = False
    ) -> Tuple[int, Dict[str, Any]]:
        unknown = sorted(set(body) - _JOIN_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown join field(s) {', '.join(map(repr, unknown))}; "
                f"accepted: {', '.join(sorted(_JOIN_FIELDS))}"
            )
        for key, types in _JOIN_FIELD_TYPES.items():
            _field(body, key, types, None)
        kwargs = dict(body)
        r_id = _field(kwargs, "r", (str,))
        s_id = kwargs.pop("s", r_id)
        epsilon = float(_field(kwargs, "epsilon", _NUMBER))
        kwargs.pop("r", None)
        kwargs.pop("epsilon", None)
        runner = self.session.subsequence_join if subsequence else self.session.join
        return 200, runner(r_id, s_id, epsilon, **kwargs)

    # -- routing ---------------------------------------------------------------

    def dispatch(
        self, method: str, path: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            return self._route(method, path, body or {})
        except KeyError as exc:
            return 404, {"error": str(exc.args[0]) if exc.args else str(exc)}
        except AdmissionRejected as exc:
            return 429, {"error": str(exc)}
        except (ValueError, TypeError, ConfigError) as exc:
            return 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive surface
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _route(
        self, method: str, path: str, body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        if method == "GET" and path == "/healthz":
            return self.healthz()
        if method == "GET" and path == "/datasets":
            return 200, {"datasets": self.session.datasets()}
        if method == "POST" and path == "/datasets":
            return self.register_dataset(body)
        if method == "POST" and path == "/join":
            return self.join(body)
        if method == "POST" and path == "/subsequence_join":
            return self.join(body, subsequence=True)
        match = _PAGES_PATH.match(path)
        if match and method == "POST":
            return self.append(match.group(1), body)
        match = _DATASET_PATH.match(path)
        if match:
            if method == "GET":
                return 200, self.session.describe(match.group(1))
            if method == "DELETE":
                return 200, self.session.evict(match.group(1))
        return 404, {"error": f"no route for {method} {path}"}


def _encode(payload: Dict[str, Any]) -> bytes:
    """``json.dumps(payload)`` as UTF-8, with cached :class:`Pairs` text.

    The members around ``"pairs"`` are encoded per call (they carry the
    request id and timings); an executed result's pairs only once.
    """
    pairs = payload.get("pairs")
    if not isinstance(pairs, Pairs):
        return json.dumps(payload).encode("utf-8")
    keys = list(payload)
    cut = keys.index("pairs")
    members = (
        json.dumps({k: payload[k] for k in keys[:cut]})[1:-1].encode("utf-8"),
        b'"pairs": ' + pairs.json_bytes(),
        json.dumps({k: payload[k] for k in keys[cut + 1 :]})[1:-1].encode("utf-8"),
    )
    return b"{" + b", ".join(m for m in members if m) + b"}"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # With Nagle's algorithm on, a keep-alive response written as headers
    # plus body waits for the client's delayed ACK (~40 ms on Linux).
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; the service logs
    # through its own counters instead.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def _service(self) -> JoinService:
        return self.server.service  # type: ignore[attr-defined]

    def handle_one_request(self) -> None:
        """One request; a reset while waiting for it (say, a client that
        closed its keep-alive connection with a response unread) just
        ends the connection."""
        try:
            super().handle_one_request()
        except ConnectionResetError:
            self.close_connection = True

    def _read_body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # rfile.read(-1) would wait for the client to close the socket.
            raise ValueError(f"Content-Length must be non-negative, got {length}")
        if length == 0:
            return None
        raw = self.rfile.read(length)
        parsed = json.loads(raw.decode("utf-8"))
        if not isinstance(parsed, dict):
            raise ValueError("request body must be a JSON object")
        return parsed

    def _respond(self, method: str) -> None:
        try:
            body = self._read_body()
        except (ValueError, json.JSONDecodeError) as exc:
            self._send(400, {"error": f"invalid JSON body: {exc}"})
            return
        status, payload = self._service.dispatch(method, self.path, body)
        self._send(status, payload)

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        """Write the response; a client that has gone away only closes
        the connection and counts ``serving.client_disconnects``."""
        data = _encode(payload)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
            self._service.session.count("serving.client_disconnects")

    def do_GET(self) -> None:  # noqa: N802
        self._respond("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._respond("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._respond("DELETE")


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    service: Optional[JoinService] = None,
    **session_kwargs,
) -> ThreadingHTTPServer:
    """A ready-to-serve ThreadingHTTPServer (``port=0`` picks a free port)."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = service or JoinService(**session_kwargs)  # type: ignore[attr-defined]
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    service: Optional[JoinService] = None,
    ready_event: Optional[threading.Event] = None,
    **session_kwargs,
) -> None:
    """Run the join service until interrupted (the ``repro serve`` entry).

    Without a ``service``, the session runs each executed join on
    ``os.cpu_count()`` shard workers.  Their warm pool starts here, before
    the server's threads, so the workers fork from a single-threaded
    process; a fork from the threaded daemon happens only when a worker
    crash forces a fresh pool.

    On the main thread, SIGTERM stops the service like Ctrl-C: the
    interpreter then exits normally and shuts the worker pool down,
    where SIGTERM's default action would leave the workers orphaned.
    """
    if service is None:
        service = JoinService(workers=os.cpu_count() or 1, **session_kwargs)
    if service.session.workers > 1:
        start_shard_pool()
    server = make_server(host, port, service=service)
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous = signal.signal(signal.SIGTERM, _interrupt)
    if ready_event is not None:
        ready_event.set()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous)


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt
