"""The long-lived join service: resident state, incremental ingest, HTTP.

The CLI rebuilds the world on every invocation — indexes, page stores,
prediction matrices, sketches — even though the fingerprint-keyed caches
make most of that work redundant.  This package keeps it all **resident**
instead:

:class:`~repro.serve.session.JoinSession`
    The resident-state engine.  Datasets (with their MR-indexes and page
    stores), prediction matrices and per-page sketches stay in memory
    keyed by ``dataset_fingerprint``; repeat joins hit the resident
    matrix and charge zero sweep/matrix seconds, and appends patch the
    resident state incrementally instead of rebuilding it
    (:mod:`repro.serve.incremental`).
:class:`~repro.serve.store.ResidentStore`
    The in-memory prediction-matrix and sketch cache, the one cache
    ``join(..., matrix_cache=store)`` accepts.
:class:`~repro.serve.admission.AdmissionController`
    Frame-lease admission control over a shared
    :class:`~repro.storage.buffer.BufferPool`: bounded in-flight
    requests, bounded queue, 429 beyond capacity.
:mod:`repro.serve.service`
    The stdlib HTTP face (``repro serve``): ``/datasets``, ``/join``,
    ``/healthz`` over a ``ThreadingHTTPServer``.

See ``docs/serving.md`` for the endpoint reference and the warm-path
counter guarantees.
"""

from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.incremental import (
    AppendDelta,
    append_to_dataset,
    patch_matrix,
    rebuild_dataset,
)
from repro.serve.session import JoinSession, ResidentDataset
from repro.serve.store import ResidentStore

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AppendDelta",
    "JoinSession",
    "ResidentDataset",
    "ResidentStore",
    "append_to_dataset",
    "patch_matrix",
    "rebuild_dataset",
]
