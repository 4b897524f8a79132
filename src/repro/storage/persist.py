"""Saving and loading indexed datasets and prediction matrices.

An :class:`~repro.core.join.IndexedDataset` is expensive to build for
large inputs (index construction dominates).  This module serialises one
to a directory — data arrays/sequence in ``.npz``/``.txt``, page
boundaries, the leaf MBRs and the index fanout — and restores it exactly
(same page layout, same boxes; the upper levels are re-packed from the
leaves, which reproduces them bit for bit), so saved datasets join
identically to freshly built ones.  Leaf boxes and fanout are stored
rather than recomputed from the data because they cannot always be: an
append packs its levels at fanout 16 whatever the page capacity, and
``mrs_base_window`` text indexes derive their boxes from another
resolution.

It also hosts the **prediction-matrix cache**: a built matrix is fully
determined by the two MBR hierarchies, ε, and the filter depth, so
repeated experiment/figure runs over the same datasets can skip
reconstruction entirely.  A cached matrix is stored as a sparse COO
``.npz`` under a key derived from ``(fingerprint(R), fingerprint(S),
epsilon, max_filter_rounds)``, where :func:`dataset_fingerprint` hashes
the per-page leaf boxes (exact float64 coordinates), object counts and
page count — the complete determinant of the marked set.  Any change to
the data or paging yields a different fingerprint — a new key, never a
stale hit; dropping cache entries explicitly is
:func:`invalidate_matrix_cache`.  The fingerprint is a fold over pages
(:class:`FingerprintChain`), so the serving layer updates it in
O(appended pages) on ingest instead of re-hashing the dataset.

The cache functions double as a *storage protocol*: anywhere a cache
directory is accepted, an object exposing the matching methods
(``load_matrix``/``save_matrix``/``load_sketches``/``save_sketches``/
``invalidate_*``) may be passed instead — the resident-state join
service plugs its in-memory store through the same seam.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import zipfile
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.geometry import BoxArray
from repro.index.node import PageIndex

__all__ = [
    "save_dataset",
    "load_dataset",
    "FingerprintChain",
    "dataset_fingerprint",
    "matrix_cache_key",
    "save_matrix",
    "load_matrix",
    "invalidate_matrix_cache",
    "sketch_cache_key",
    "save_sketches",
    "load_sketches",
    "invalidate_sketch_cache",
]

_FORMAT_VERSION = 2
_META_FILE = "dataset.json"
_ARRAY_FILE = "arrays.npz"
_TEXT_FILE = "sequence.txt"
_MATRIX_FORMAT_VERSION = 1
_MATRIX_PREFIX = "pm_"
# Temp-file suffix for atomic matrix writes.  Must end in ".npz" —
# np.savez_compressed appends the extension to any other name, which
# would leave the os.replace source path dangling.
_MATRIX_TMP_SUFFIX = ".tmp.npz"
_SKETCH_FORMAT_VERSION = 1
_SKETCH_PREFIX = "sk_"


def _tmp_cache_path(path: Path, prefix: str, key: str) -> Path:
    """Per-writer temp path for an atomic cache write.

    Unique per process AND per thread: a resident join service runs
    concurrent writer threads in one process, so a pid-only suffix
    would let two threads clobber each other's half-written archive
    before the ``os.replace``.
    """
    writer = f"{os.getpid()}-{threading.get_ident()}"
    return path / f"{prefix}{key}.{writer}{_MATRIX_TMP_SUFFIX}"


def save_dataset(dataset, directory: "str | Path") -> Path:
    """Serialise an IndexedDataset into ``directory`` (created if needed).

    Returns the directory path.  Existing files are overwritten.
    """
    from repro.core.join import IndexedDataset  # local: avoid cycle

    if not isinstance(dataset, IndexedDataset):
        raise TypeError(f"expected an IndexedDataset, got {type(dataset).__name__}")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    meta = {
        "format_version": _FORMAT_VERSION,
        "kind": dataset.kind,
        "alphabet": dataset.alphabet,
        "distance": _distance_to_json(dataset.distance),
    }
    leaf = dataset.index.leaf_bounds()
    arrays = {
        "order": dataset.index.order,
        "leaf_lo": leaf.lo,
        "leaf_hi": leaf.hi,
        "fanout": np.int64(dataset.index.fanout),
    }

    if dataset.kind == "vector":
        arrays["vectors"] = dataset.paged.vectors
        offsets = dataset.index.page_offsets
        assert offsets is not None
        arrays["page_offsets"] = offsets
    else:
        paged = dataset.paged
        meta["window_length"] = paged.window_length
        meta["symbols_per_page"] = paged.symbols_per_page
        if paged.is_text:
            (path / _TEXT_FILE).write_text(paged.sequence)
        else:
            arrays["sequence"] = np.asarray(paged.sequence)
        if dataset.features is not None:
            arrays["features"] = dataset.features

    np.savez_compressed(path / _ARRAY_FILE, **arrays)
    (path / _META_FILE).write_text(json.dumps(meta))
    return path


def load_dataset(directory: "str | Path", dataset_id: Optional[str] = None):
    """Restore an IndexedDataset saved by :func:`save_dataset`."""
    from repro.core.join import IndexedDataset  # local: avoid cycle
    from repro.storage.page import SequencePagedDataset, VectorPagedDataset

    path = Path(directory)
    meta_path = path / _META_FILE
    if not meta_path.exists():
        raise FileNotFoundError(f"{meta_path} does not exist — not a saved dataset")
    meta = json.loads(meta_path.read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format version {meta.get('format_version')!r}"
        )
    arrays = np.load(path / _ARRAY_FILE)
    leaf = BoxArray(arrays["leaf_lo"], arrays["leaf_hi"])
    fanout = int(arrays["fanout"])
    distance = _distance_from_json(meta["distance"])

    if meta["kind"] == "vector":
        paged = VectorPagedDataset(
            arrays["vectors"],
            page_offsets=arrays["page_offsets"],
            dataset_id=dataset_id,
        )
        index = PageIndex.pack(leaf, fanout, arrays["order"], arrays["page_offsets"])
        return IndexedDataset(
            kind="vector", paged=paged, index=index, distance=distance
        )

    if (path / _TEXT_FILE).exists():
        sequence: "str | np.ndarray" = (path / _TEXT_FILE).read_text()
    else:
        sequence = arrays["sequence"]
    paged = SequencePagedDataset(
        sequence,
        symbols_per_page=int(meta["symbols_per_page"]),
        window_length=int(meta["window_length"]),
        dataset_id=dataset_id,
    )
    index = PageIndex.pack(leaf, fanout, arrays["order"])
    features = arrays["features"] if "features" in arrays else None
    return IndexedDataset(
        kind=meta["kind"],
        paged=paged,
        index=index,
        distance=distance,
        features=features,
        alphabet=meta.get("alphabet", "ACGT"),
    )


# -- prediction-matrix cache -------------------------------------------------------


_FP_DOMAIN = b"pm-fingerprint-v2"


class FingerprintChain:
    """Incrementally maintained dataset fingerprint: a hash chain over pages.

    State ``k`` of the chain is the sha256 fold of pages ``0..k-1``, each
    page contributing its exact float64 leaf-box bytes plus its object
    count — the complete per-page input of ``build_prediction_matrix``
    (marks depend only on leaf boxes and ε; the tree above the leaves
    changes which *node pairs* are visited, never which page pairs end up
    marked) and of the sketch cache (counts + payload-derived boxes).

    Appending pages only extends the chain from its last state, so a
    resident dataset's fingerprint updates in O(pages appended) instead
    of a full re-hash, while producing — by construction — the exact
    digest :func:`dataset_fingerprint` computes from scratch over the
    final page list.  When an append also changes trailing pages (a
    sequence append can add windows to the old last page), truncate back
    to the first changed page and re-extend from there; every state is
    kept, so truncation is O(1).
    """

    def __init__(self) -> None:
        self._states: List[bytes] = [hashlib.sha256(_FP_DOMAIN).digest()]

    @property
    def num_pages(self) -> int:
        return len(self._states) - 1

    def extend(self, lo: np.ndarray, hi: np.ndarray, count: int) -> None:
        """Chain one more page: its leaf-box corners and object count."""
        digest = hashlib.sha256()
        digest.update(self._states[-1])
        digest.update(b"P")
        digest.update(str(int(count)).encode())
        digest.update(np.ascontiguousarray(np.asarray(lo, dtype=np.float64)).tobytes())
        digest.update(np.ascontiguousarray(np.asarray(hi, dtype=np.float64)).tobytes())
        self._states.append(digest.digest())

    def truncate(self, num_pages: int) -> None:
        """Roll the chain back to its first ``num_pages`` pages."""
        if not 0 <= num_pages <= self.num_pages:
            raise ValueError(
                f"cannot truncate chain of {self.num_pages} pages to {num_pages}"
            )
        del self._states[num_pages + 1 :]

    def copy(self) -> "FingerprintChain":
        dup = FingerprintChain()
        dup._states = list(self._states)
        return dup

    def hexdigest(self) -> str:
        """The fingerprint of the pages chained so far."""
        digest = hashlib.sha256()
        digest.update(_FP_DOMAIN + b"-final")
        digest.update(self._states[-1])
        digest.update(str(self.num_pages).encode())
        return digest.hexdigest()

    @classmethod
    def from_dataset(cls, dataset) -> "FingerprintChain":
        """Chain every page of an :class:`~repro.core.join.IndexedDataset`."""
        chain = cls()
        paged = dataset.paged
        leaf = dataset.index.leaf_bounds()
        for page_no in range(len(leaf)):
            chain.extend(leaf.lo[page_no], leaf.hi[page_no], paged.object_count(page_no))
        return chain


def dataset_fingerprint(dataset) -> str:
    """Hex digest of everything the prediction matrix depends on.

    Hashes the per-page leaf boxes (exact float64 coordinates, in page
    order) plus per-page object counts and the page count — the complete
    input of ``build_prediction_matrix`` for one side: the marked set is
    exactly the ε/2-extended leaf-box intersections, so internal tree
    structure cannot change it.  Stable across
    :func:`save_dataset`/:func:`load_dataset` round trips (boxes restore
    bit-exactly) and across processes.

    A ``fingerprint_memo`` attribute on the dataset, when set, is
    returned without hashing — the resident-state serving layer
    (:mod:`repro.serve`) owns immutable dataset snapshots and maintains
    their fingerprints incrementally through :class:`FingerprintChain`;
    callers that mutate datasets must never set the memo.
    """
    memo = getattr(dataset, "fingerprint_memo", None)
    if memo is not None:
        return memo
    return FingerprintChain.from_dataset(dataset).hexdigest()


def matrix_cache_key(
    fingerprint_r: str,
    fingerprint_s: str,
    epsilon: float,
    max_filter_rounds: int,
) -> str:
    """Cache key of one matrix build: the two sides, ε, and filter depth.

    ε enters via its exact float64 bits; the filter depth is part of the
    key because ``SweepStats`` differ per depth even though the marks do
    not — a hit must be indistinguishable from a rebuild at the same
    arguments.
    """
    digest = hashlib.sha256()
    digest.update(b"pm-key-v1")
    digest.update(fingerprint_r.encode())
    digest.update(fingerprint_s.encode())
    digest.update(np.float64(epsilon).tobytes())
    digest.update(str(int(max_filter_rounds)).encode())
    return digest.hexdigest()


def save_matrix(matrix, directory: "str | Path", key: str) -> Path:
    """Persist a built prediction matrix under ``directory`` keyed by ``key``.

    Stores the sparse COO entry arrays; returns the written path.

    The write is atomic: the archive goes to a per-process temporary
    name in the same directory and is ``os.replace``d onto the final
    path, so concurrent writers (parallel pytest workers, simultaneous
    figure runs sharing one cache directory) can race on the same key
    without a reader ever seeing a half-written ``.npz``.  Keys are
    content-derived, so whichever writer lands last replaces the file
    with identical bytes.

    ``directory`` may also be a *store object* exposing
    ``save_matrix(matrix, key)`` (duck-typed — e.g.
    :class:`repro.serve.store.ResidentStore`); the call is delegated so
    every existing ``matrix_cache=...`` call site works against an
    in-memory resident store without change.
    """
    if hasattr(directory, "save_matrix"):
        return directory.save_matrix(matrix, key)
    from repro.core.prediction import PredictionMatrix  # local: avoid cycle

    if not isinstance(matrix, PredictionMatrix):
        raise TypeError(f"expected a PredictionMatrix, got {type(matrix).__name__}")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    rows, cols = matrix.to_coo()
    target = path / f"{_MATRIX_PREFIX}{key}.npz"
    tmp = _tmp_cache_path(path, _MATRIX_PREFIX, key)
    try:
        np.savez_compressed(
            tmp,
            version=np.int64(_MATRIX_FORMAT_VERSION),
            shape=np.asarray([matrix.num_rows, matrix.num_cols], dtype=np.int64),
            rows=rows,
            cols=cols,
        )
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def load_matrix(directory: "str | Path", key: str):
    """Load a cached prediction matrix, or ``None`` on a cache miss.

    A hit returns the matrix exactly as ``build_prediction_matrix``
    produced it (before any self-join triangle reduction, which ``join``
    applies after loading).

    A corrupt or truncated entry — e.g. left by a writer killed before
    atomic-rename semantics were in place, or by disk trouble — is
    treated as a miss rather than an error: the caller rebuilds and the
    next :func:`save_matrix` replaces the bad file.

    Reads honour the same tmp+``os.replace`` discipline as writes: the
    final path either holds a complete archive or nothing.  A reader can
    still race :func:`invalidate_matrix_cache` under concurrent sessions
    — the entry existed at the pre-check but is unlinked before the open
    — so a vanished file is retried briefly (a concurrent writer's
    ``os.replace`` may land in the gap) before being declared a miss.

    ``directory`` may be a store object exposing ``load_matrix(key)``
    (see :func:`save_matrix`); the call is then delegated.
    """
    if hasattr(directory, "load_matrix"):
        return directory.load_matrix(key)
    from repro.core.prediction import PredictionMatrix  # local: avoid cycle

    target = Path(directory) / f"{_MATRIX_PREFIX}{key}.npz"
    payload_file = _open_cache_entry(target)
    if payload_file is None:
        return None
    try:
        with payload_file as payload:
            if int(payload["version"]) != _MATRIX_FORMAT_VERSION:
                return None
            num_rows, num_cols = (int(v) for v in payload["shape"])
            return PredictionMatrix.from_coo(
                num_rows, num_cols, payload["rows"], payload["cols"]
            )
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError):
        return None


# How often/long a load retries a file that vanished between the
# existence pre-check and the open.  The window is an invalidator's
# unlink racing a writer's os.replace; two short sleeps cover it without
# penalising genuine misses (those return on the exists() fast path).
_LOAD_RETRIES = 3
_LOAD_RETRY_SLEEP_S = 0.002


def _open_cache_entry(target: Path):
    """Open a cache archive, or ``None`` when it is definitively absent.

    The retry-on-missing read side of the atomic-write discipline: a
    ``FileNotFoundError`` after a positive existence check means a
    concurrent :func:`invalidate_matrix_cache`/:func:`invalidate_sketch_cache`
    unlinked the entry under us; a concurrent saver may atomically
    replace it within moments, so retry briefly before reporting a miss.
    Corrupt archives are the caller's concern (it parses inside its own
    try block).
    """
    if not target.exists():
        return None
    for attempt in range(_LOAD_RETRIES):
        try:
            return np.load(target)
        except FileNotFoundError:
            if attempt + 1 == _LOAD_RETRIES:
                return None
            time.sleep(_LOAD_RETRY_SLEEP_S * (attempt + 1))
        except (zipfile.BadZipFile, OSError, ValueError, EOFError):
            return None
    return None


def invalidate_matrix_cache(directory: "str | Path", key: Optional[str] = None) -> int:
    """Drop cached matrices; returns how many entries were removed.

    With ``key`` given, removes that one entry; otherwise clears every
    cached matrix in ``directory``.  This is the explicit invalidation
    path — fingerprint keys already make stale *hits* impossible, so
    invalidation exists to reclaim space and to force rebuilds.

    ``directory`` may be a store object exposing
    ``invalidate_matrix_cache(key)`` (see :func:`save_matrix`).
    """
    if hasattr(directory, "invalidate_matrix_cache"):
        return directory.invalidate_matrix_cache(key)
    path = Path(directory)
    if not path.is_dir():
        return 0
    if key is not None:
        target = path / f"{_MATRIX_PREFIX}{key}.npz"
        if not target.exists():
            return 0
        # missing_ok: another process may unlink between exists and here.
        target.unlink(missing_ok=True)
        return 1
    removed = 0
    for entry in path.glob(f"{_MATRIX_PREFIX}*.npz"):
        # In-flight atomic writes also end in ".npz"; unlinking one
        # would fail the writer's os.replace mid-save.
        if entry.name.endswith(_MATRIX_TMP_SUFFIX):
            continue
        entry.unlink(missing_ok=True)
        removed += 1
    return removed


# -- page-sketch cache -------------------------------------------------------------


def sketch_cache_key(fingerprint: str, params_fingerprint: str) -> str:
    """Cache key of one dataset's page sketches.

    Combines the dataset fingerprint (page/MBR structure — any change to
    the data or paging yields a new key) with the sketch-parameter
    fingerprint (:func:`repro.sketch.signatures.sketch_params_fingerprint`,
    covering kind, seed, and every width/length knob), so differently
    configured sketches of the same dataset coexist in one directory.
    """
    digest = hashlib.sha256()
    digest.update(b"sk-key-v1")
    digest.update(fingerprint.encode())
    digest.update(params_fingerprint.encode())
    return digest.hexdigest()


def save_sketches(sketches, directory: "str | Path", key: str) -> Path:
    """Persist built page sketches under ``directory`` keyed by ``key``.

    Atomic exactly like :func:`save_matrix`: per-process temporary name,
    ``os.replace`` onto the final path, so concurrent writers racing on
    the same (content-derived) key never expose a half-written archive.

    ``directory`` may be a store object exposing
    ``save_sketches(sketches, key)`` (see :func:`save_matrix`).
    """
    if hasattr(directory, "save_sketches"):
        return directory.save_sketches(sketches, key)
    from repro.sketch.signatures import PageSketches  # local: avoid cycle

    if not isinstance(sketches, PageSketches):
        raise TypeError(f"expected PageSketches, got {type(sketches).__name__}")
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{_SKETCH_PREFIX}{key}.npz"
    tmp = _tmp_cache_path(path, _SKETCH_PREFIX, key)
    try:
        np.savez_compressed(
            tmp,
            version=np.int64(_SKETCH_FORMAT_VERSION),
            kind=np.array(sketches.kind),
            signatures=sketches.signatures,
            counts=sketches.counts,
        )
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def load_sketches(directory: "str | Path", key: str):
    """Load cached page sketches, or ``None`` on a cache miss.

    Corrupt, truncated or version-mismatched entries are misses, not
    errors — the caller rebuilds and the next :func:`save_sketches`
    replaces the bad file (same recovery and retry-on-missing contract
    as :func:`load_matrix`).

    ``directory`` may be a store object exposing ``load_sketches(key)``
    (see :func:`save_matrix`).
    """
    if hasattr(directory, "load_sketches"):
        return directory.load_sketches(key)
    from repro.sketch.signatures import SKETCH_KINDS, PageSketches  # local: avoid cycle

    target = Path(directory) / f"{_SKETCH_PREFIX}{key}.npz"
    payload_file = _open_cache_entry(target)
    if payload_file is None:
        return None
    try:
        with payload_file as payload:
            if int(payload["version"]) != _SKETCH_FORMAT_VERSION:
                return None
            kind = str(payload["kind"])
            if kind not in SKETCH_KINDS:
                return None
            return PageSketches(
                kind=kind,
                signatures=payload["signatures"],
                counts=payload["counts"],
            )
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError):
        return None


def invalidate_sketch_cache(directory: "str | Path", key: Optional[str] = None) -> int:
    """Drop cached sketches; returns how many entries were removed.

    Mirrors :func:`invalidate_matrix_cache`: one entry with ``key``,
    otherwise every cached sketch in ``directory``.  ``directory`` may
    be a store object exposing ``invalidate_sketch_cache(key)``.
    """
    if hasattr(directory, "invalidate_sketch_cache"):
        return directory.invalidate_sketch_cache(key)
    path = Path(directory)
    if not path.is_dir():
        return 0
    if key is not None:
        target = path / f"{_SKETCH_PREFIX}{key}.npz"
        if not target.exists():
            return 0
        # missing_ok: another process may unlink between exists and here.
        target.unlink(missing_ok=True)
        return 1
    removed = 0
    for entry in path.glob(f"{_SKETCH_PREFIX}*.npz"):
        if entry.name.endswith(_MATRIX_TMP_SUFFIX):
            continue
        entry.unlink(missing_ok=True)
        removed += 1
    return removed


# -- (de)serialisation helpers ---------------------------------------------------


def _distance_to_json(distance) -> Optional[dict]:
    from repro.distance.dtw import DTWDistance
    from repro.distance.vector import MinkowskiDistance

    if distance is None:
        return None
    if isinstance(distance, MinkowskiDistance):
        return {"type": "minkowski", "p": distance.p}
    if isinstance(distance, DTWDistance):
        return {"type": "dtw", "band": distance.band}
    raise TypeError(f"cannot serialise distance {type(distance).__name__}")


def _distance_from_json(payload: Optional[dict]):
    from repro.distance.dtw import DTWDistance
    from repro.distance.vector import MinkowskiDistance

    if payload is None:
        return None
    if payload["type"] == "minkowski":
        return MinkowskiDistance(payload["p"])
    if payload["type"] == "dtw":
        return DTWDistance(payload["band"])
    raise ValueError(f"unknown distance type {payload['type']!r}")
