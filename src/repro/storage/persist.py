"""Saving and loading indexed datasets; the keys of the resident caches.

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

It also computes the keys of the in-memory prediction-matrix and sketch
cache (:class:`repro.serve.store.ResidentStore`).  A built matrix is
fully determined by the two leaf-box hierarchies, ε, and the filter
depth, so :func:`matrix_cache_key` hashes ``(fingerprint(R),
fingerprint(S), epsilon, max_filter_rounds)``, where
:func:`dataset_fingerprint` hashes each page's leaf box (exact float64
coordinates) and object count in page order, plus the page count — the
complete determinant of the marked set.  Any change to the boxes or the
paging yields a new key, never a stale hit.  Sketches depend on the
objects themselves, which the fingerprint does not cover, so
:func:`sketch_cache_key` also names the dataset.  The fingerprint is a
fold over pages (:class:`FingerprintChain`), so the serving layer
updates it in O(appended pages) on ingest instead of re-hashing the
dataset.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.geometry import BoxArray
from repro.index.node import PageIndex

__all__ = [
    "save_dataset",
    "load_dataset",
    "FingerprintChain",
    "dataset_fingerprint",
    "matrix_cache_key",
    "sketch_cache_key",
]

_FORMAT_VERSION = 2
_META_FILE = "dataset.json"
_ARRAY_FILE = "arrays.npz"
_TEXT_FILE = "sequence.txt"


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


# -- cache keys ------------------------------------------------------------------


_FP_DOMAIN = b"pm-fingerprint-v2"


class FingerprintChain:
    """Incrementally maintained dataset fingerprint: a hash chain over pages.

    State ``k`` of the chain is the sha256 fold of pages ``0..k-1``, each
    page contributing its exact float64 leaf-box bytes plus its object
    count — the complete per-page input of ``build_prediction_matrix``
    (marks depend only on leaf boxes and ε; the tree above the leaves
    changes which *node pairs* are visited, never which page pairs end up
    marked).

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


def sketch_cache_key(dataset, config) -> str:
    """Cache key of one dataset's page sketches under ``config``.

    Combines the dataset's paged ``dataset_id``, its fingerprint and the
    sketch-parameter fingerprint
    (:func:`repro.sketch.signatures.sketch_params_fingerprint`, covering
    kind, seed, and every width/length knob), so differently configured
    sketches of one dataset coexist in one store.  The fingerprint
    covers page boxes and counts, not the objects the sketches
    summarise: two datasets with equal page boxes share it, and only the
    id tells their sketches apart.  Ids name datasets within one
    process (automatic ones come from a per-process counter), which is
    where the resident store lives.
    """
    # Local: repro.sketch imports this module.
    from repro.sketch.signatures import sketch_params_fingerprint

    digest = hashlib.sha256()
    digest.update(b"sk-key-v2")
    digest.update(repr(dataset.paged.dataset_id).encode())
    digest.update(dataset_fingerprint(dataset).encode())
    digest.update(sketch_params_fingerprint(dataset, config).encode())
    return digest.hexdigest()


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
