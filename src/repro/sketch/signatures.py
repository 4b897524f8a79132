"""Per-page sketch signatures.

Two signature families cover the engine's three data kinds:

* **quantile** — vector pages and (PAA-domain) sequence windows.  The
  dataset's objects are projected onto ``num_hashes`` seeded random unit
  directions (the 2-stable/SimHash family: for any pair,
  ``|u · (a − b)| <= ‖a − b‖₂`` when ``u`` is unit length), and each page
  stores ``num_quantiles`` evenly spaced quantiles of each projection —
  a compact empirical CDF of where the page's objects fall along every
  direction.  Sequence windows are first reduced to the PAA domain with
  the standard ``seg_sum / sqrt(seg_len)`` scaling, which makes the
  PAA-space Euclidean distance a lower bound of the window distance, so
  the same projection argument applies in ``paa_segments`` dimensions.
* **minhash** — text pages.  The page's symbol span is decomposed into
  length-``ngram_length`` grams (rolling polynomial hash over the
  latin-1 byte codes); ``minhash_hashes`` seeded affine permutations of
  the gram universe give the classic minhash signature, whose
  component-equality fraction estimates the Jaccard similarity of two
  pages' gram sets — a proxy for how much edit-close material the pages
  share.

Sketches depend only on the dataset's payload, its page layout, and the
sketch parameters, so a :class:`~repro.serve.store.ResidentStore` caches
them next to the prediction matrix under
:func:`repro.storage.persist.sketch_cache_key`: the dataset's id and
``dataset_fingerprint`` plus :func:`sketch_params_fingerprint`.  The
fingerprint alone would not do: it covers page boxes and counts, not the
payload.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PageSketches",
    "build_sketch_rows",
    "build_sketches",
    "sketch_params_fingerprint",
]

# FNV-1a's prime — the rolling gram hash's base.  uint64 arithmetic
# wraps silently in numpy, which is exactly the modular behaviour the
# hash wants.
_GRAM_BASE = np.uint64(1099511628211)

# Bounds one chunk of the minhash build: its ``(pages, span, K)``
# array of permuted grams holds at most this many uint64 values.
_MINHASH_CHUNK_VALUES = 1 << 15


@dataclass
class PageSketches:
    """One dataset's per-page sketch signatures.

    kind:
        ``"quantile"`` — ``signatures`` is ``(num_pages, K, Q)`` float64:
        page ``p``'s ``Q`` evenly spaced quantiles along projection ``k``.
        ``"minhash"`` — ``signatures`` is ``(num_pages, K)`` uint64:
        page ``p``'s minimum permuted gram hash under permutation ``k``.
    counts:
        ``(num_pages,)`` int64 — joinable objects per page, so cell
        scores can be weighted by the cell's object-pair count without
        consulting the dataset.
    """

    kind: str
    signatures: np.ndarray
    counts: np.ndarray

    @property
    def num_pages(self) -> int:
        return self.signatures.shape[0]


def sketch_params_fingerprint(dataset, config) -> str:
    """Hex digest of every sketch parameter a cached entry depends on.

    Covers the signature family, its shape parameters, the seed, and the
    kind-specific geometry (vector dimensionality or window/PAA/gram
    lengths) — any change yields a new cache key, never a stale hit.
    """
    digest = hashlib.sha256()
    digest.update(b"sketch-params-v1")
    digest.update(dataset.kind.encode())
    digest.update(str(config.seed).encode())
    if dataset.kind == "text":
        digest.update(str(config.minhash_hashes).encode())
        digest.update(str(config.ngram_length).encode())
        digest.update(str(dataset.paged.window_length).encode())
    else:
        digest.update(str(config.num_hashes).encode())
        digest.update(str(config.num_quantiles).encode())
        if dataset.kind == "series":
            digest.update(str(config.paa_segments).encode())
            digest.update(str(dataset.paged.window_length).encode())
        else:
            digest.update(str(dataset.paged.vectors.shape[1]).encode())
    return digest.hexdigest()


def build_sketches(dataset, config) -> PageSketches:
    """Sketch every page of an :class:`~repro.core.join.IndexedDataset`."""
    signatures, counts = build_sketch_rows(
        dataset, config, range(dataset.paged.num_pages)
    )
    kind = "minhash" if dataset.kind == "text" else "quantile"
    return PageSketches(kind=kind, signatures=signatures, counts=counts)


def build_sketch_rows(dataset, config, pages) -> "tuple[np.ndarray, np.ndarray]":
    """Signature rows and object counts for ``pages`` of ``dataset``.

    A page's row depends only on that page: each page is projected by
    its own product, quantiles and minima are taken per page (batched
    over pages of one size, or over a chunk of padded gram spans), and
    a minimum ignores order.  So the rows produced for a subset of pages
    (the incremental-append path) are **bitwise identical** to the
    corresponding rows of a from-scratch full build — no BLAS-blocking
    or reduction-order differences can creep in between the two.
    """
    page_list = np.asarray(list(pages), dtype=np.int64)
    if dataset.kind == "text":
        return _minhash_rows(dataset, config, page_list)
    if dataset.kind in ("vector", "series"):
        return _quantile_rows(dataset, config, page_list)
    raise ValueError(f"cannot sketch dataset kind {dataset.kind!r}")


# -- quantile signatures (vector pages, PAA-domain sequence windows) ----------


def _unit_directions(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    """``k`` unit-L2 Gaussian directions in ``dim`` dimensions."""
    dirs = rng.standard_normal((k, dim))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    # A zero draw is measure-zero but would poison the projection.
    norms[norms == 0.0] = 1.0
    return dirs / norms


def _paa_coordinates(windows: np.ndarray, segments: int) -> np.ndarray:
    """Scaled PAA coordinates whose L2 distance lower-bounds the window L2.

    Segment boundaries split the window as evenly as integer lengths
    allow; coordinate ``i`` is ``seg_sum_i / sqrt(seg_len_i)``, the
    scaling under which ``‖paa(a) − paa(b)‖₂ <= ‖a − b‖₂`` (per-segment
    Cauchy–Schwarz).
    """
    w = windows.shape[1]
    m = min(segments, w)
    bounds = np.round(np.linspace(0, w, m + 1)).astype(np.int64)
    seg_len = np.diff(bounds).astype(np.float64)
    sums = np.add.reduceat(windows, bounds[:-1], axis=1)
    return sums / np.sqrt(seg_len)


def _page_bounds(dataset) -> "tuple[np.ndarray, np.ndarray]":
    """Half-open global object ranges ``(lo, hi)`` of every page."""
    paged = dataset.paged
    if dataset.kind == "vector":
        offsets = np.asarray(paged.page_offsets, dtype=np.int64)
        return offsets[:-1], offsets[1:]
    lo = np.arange(paged.num_pages, dtype=np.int64) * paged.symbols_per_page
    hi = np.minimum(lo + paged.symbols_per_page, paged.num_windows)
    return lo, hi


def _quantile_rows(
    dataset, config, pages: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    if dataset.kind == "vector":
        objects = np.asarray(dataset.paged.vectors, dtype=np.float64)
    else:
        objects = _paa_coordinates(
            np.asarray(dataset.paged.windows_matrix(), dtype=np.float64),
            config.paa_segments,
        )
    rng = np.random.default_rng(config.seed)
    dirs = _unit_directions(rng, config.num_hashes, objects.shape[1])
    lo, hi = _page_bounds(dataset)
    qs = np.linspace(0.0, 1.0, config.num_quantiles)
    sizes = hi[pages] - lo[pages]
    signatures = np.empty(
        (pages.shape[0], config.num_hashes, config.num_quantiles), dtype=np.float64
    )
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        proj = np.empty((rows.shape[0], size, config.num_hashes), dtype=np.float64)
        for i, p in enumerate(pages[rows]):
            # Project per page — a page's rows see the same multiply/add
            # order whether sketched alone or as part of a full build.
            proj[i] = objects[lo[p] : hi[p]] @ dirs.T
        # (Q, pages, K) quantiles of every page of this size, stored as
        # (pages, K, Q); each page's column is reduced on its own.
        signatures[rows] = np.quantile(proj, qs, axis=1).transpose(1, 2, 0)
    return signatures, sizes.astype(np.int64)


# -- minhash signatures (text pages) ------------------------------------------


def _gram_hashes(codes: np.ndarray, n: int) -> np.ndarray:
    """Rolling polynomial hash of every length-``n`` gram of ``codes``."""
    length = codes.shape[0]
    num_grams = length - n + 1
    hashes = np.zeros(num_grams, dtype=np.uint64)
    for k in range(n):
        hashes = hashes * _GRAM_BASE + codes[k : k + num_grams]
    return hashes


def _minhash_rows(
    dataset, config, pages: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    paged = dataset.paged
    w = paged.window_length
    n = min(config.ngram_length, w)
    codes = np.frombuffer(paged.sequence.encode("latin-1"), dtype=np.uint8).astype(
        np.uint64
    )
    num_grams = codes.shape[0] - n + 1
    rng = np.random.default_rng(config.seed)
    k = config.minhash_hashes
    # Odd multipliers keep the affine maps bijective on Z/2^64.
    mult = rng.integers(0, np.iinfo(np.uint64).max, size=k, dtype=np.uint64) | np.uint64(1)
    add = rng.integers(0, np.iinfo(np.uint64).max, size=k, dtype=np.uint64)
    lo, hi = _page_bounds(dataset)
    ws, we = lo[pages], hi[pages]
    counts = (we - ws).astype(np.int64)
    signatures = np.empty((pages.shape[0], k), dtype=np.uint64)
    if pages.shape[0] == 0:
        return signatures, counts
    # A page's windows cover symbols [ws, we - 1 + w); its grams start
    # anywhere in that span that still fits a full gram, so in [ws, ge).
    ge = np.minimum(we + w - n, num_grams)
    # Hash every needed gram once.  uint64 arithmetic is exact and a
    # minimum ignores order, so each row matches a page-by-page build.
    base = int(ws.min())
    grams = _gram_hashes(codes[base : int(ge.max()) + n - 1], n)
    gs, ge = ws - base, ge - base
    width = int((ge - gs).max())
    offsets = np.arange(width)
    step = max(1, _MINHASH_CHUNK_VALUES // (width * k))
    for first in range(0, pages.shape[0], step):
        # Each page's gram span, padded to ``width`` by repeating its last
        # gram (which leaves its minimum unchanged), then permuted.  Only
        # the pages' own grams are permuted, never the gaps between the
        # pages of a scattered subset.
        at = np.minimum(
            gs[first : first + step, None] + offsets, ge[first : first + step, None] - 1
        )
        signatures[first : first + step] = (grams[at][..., None] * mult + add).min(axis=1)
    return signatures, counts
