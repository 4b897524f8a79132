"""Incremental append: patch resident state instead of rebuilding it.

The cold path rebuilds everything an append touches — page store, leaf
boxes, index hierarchy, fingerprint, prediction matrices, sketches — in
time proportional to the *whole* dataset.  This module rebuilds only
what the append changed, in time proportional to the appended pages:

* :func:`append_to_dataset` produces a new immutable
  :class:`~repro.core.join.IndexedDataset` snapshot (copy-on-write: the
  old snapshot stays valid for in-flight requests) plus an
  :class:`AppendDelta` naming exactly which pages are new or dirty, with
  the dataset's :class:`~repro.storage.persist.FingerprintChain` updated
  by hash chaining over those pages only.
* :func:`patch_matrix` grows a resident prediction matrix and delta-marks
  it with one sweep of the changed pages' boxes against the full box
  array — O(changed × marked-partners), not O(pages²).
* :func:`rebuild_dataset` is the cold-rebuild baseline the equivalence
  tests and benchmarks compare against: a from-scratch index over the
  same final page layout.

Why the patched matrix is *bit-identical* to a cold rebuild: the final
marks of :func:`~repro.core.sweep.build_prediction_matrix` are exactly
the pairs of ε/2-extended leaf boxes that intersect — the tree descent
and the iterative filter only prune node visits, never change the mark
set.  An append changes leaf boxes monotonically: new pages add boxes,
and a dirty page (the old last page of a sequence, whose window range
was clipped) only *grows* its box, so every old mark remains valid and
the only missing marks involve a changed page.  One sweep of the changed
boxes against all boxes (both orientations for a self matrix) supplies
exactly those — the patched mark set equals the cold-rebuilt one.

Supported appends: vector datasets (rows are packed into fresh pages of
``page_capacity``), text datasets (suffix symbols; windows and frequency
features are extended in place), and raw-feature series (suffix values,
including banded-DTW indexes whose boxes get the band envelope).
PAA-feature series and derived-box (``mrs_base_window``) text indexes
compute leaf boxes through a resolution change this module does not
replay — appends to those raise :class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.join import IndexedDataset, require_finite
from repro.core.prediction import PredictionMatrix
from repro.core.sweep import SweepStats, marked_box_pairs
from repro.distance.frequency import frequency_vectors_sliding
from repro.errors import ConfigError
from repro.geometry import Rect
from repro.index._grouping import build_contiguous_hierarchy
from repro.index.node import PageIndex
from repro.storage.persist import FingerprintChain
from repro.storage.page import SequencePagedDataset, VectorPagedDataset

__all__ = ["AppendDelta", "append_to_dataset", "patch_matrix", "rebuild_dataset"]

# Upper-level grouping of the rebuilt hierarchy.  The mark set depends
# only on the leaf boxes (see module docstring), so the fanout is purely
# a traversal-shape choice; this matches the MR/MRS default.
_HIERARCHY_FANOUT = 16


@dataclass
class AppendDelta:
    """One append's outcome: the new snapshot plus what changed.

    ``dirty_pages`` are pre-existing pages whose leaf boxes may have
    grown (sequence data only: the old last page can gain windows);
    ``new_pages`` are the freshly added page numbers.  ``changed_pages``
    is their sorted union — the exact page set whose matrix rows/columns
    and sketch rows must be refreshed.
    """

    dataset: IndexedDataset
    chain: FingerprintChain
    fingerprint: str
    old_fingerprint: str
    new_pages: np.ndarray
    dirty_pages: np.ndarray
    pages_before: int
    pages_after: int
    objects_added: int

    @property
    def changed_pages(self) -> np.ndarray:
        return np.concatenate([self.dirty_pages, self.new_pages])


def append_to_dataset(
    dataset: IndexedDataset,
    chain: FingerprintChain,
    payload,
    page_capacity: Optional[int] = None,
) -> AppendDelta:
    """Append ``payload`` to ``dataset``, returning the delta snapshot.

    ``payload`` is an ``(n, d)`` row block for vector datasets, a string
    suffix for text datasets, or a 1-d value suffix for series datasets.
    ``chain`` is the dataset's current fingerprint chain (it is copied,
    never mutated, so the old snapshot's provenance stays intact).
    Numeric payloads with NaN or infinite values raise ``ValueError``.
    """
    _check_appendable(dataset)
    if dataset.kind != "text":
        payload = require_finite(payload, "appended values")
    if dataset.kind == "vector":
        return _append_vectors(dataset, chain, payload, page_capacity)
    return _append_sequence(dataset, chain, payload)


def _check_appendable(dataset: IndexedDataset) -> None:
    if dataset.kind == "series" and dataset.features is not None:
        raise ConfigError(
            "cannot append to a PAA-feature series index: its leaf boxes "
            "live in the reduced PAA domain, which the incremental path "
            "does not replay — register the dataset with feature='raw'"
        )


# -- vector appends -----------------------------------------------------------


def _append_vectors(
    dataset: IndexedDataset,
    chain: FingerprintChain,
    vectors,
    page_capacity: Optional[int],
) -> AppendDelta:
    paged = dataset.paged
    assert isinstance(paged, VectorPagedDataset)
    if page_capacity is None:
        page_capacity = max(
            paged.object_count(p) for p in range(paged.num_pages)
        )
    paged2 = paged.with_appended(vectors, page_capacity)
    old_pages = paged.num_pages
    new_pages = np.arange(old_pages, paged2.num_pages, dtype=np.int64)
    offsets = paged2.page_offsets
    data = paged2.vectors
    leaf_boxes = list(dataset.index.leaf_boxes)
    for p in new_pages:
        rows = data[offsets[p] : offsets[p + 1]]
        leaf_boxes.append(Rect(rows.min(axis=0), rows.max(axis=0)))
    root = build_contiguous_hierarchy(leaf_boxes, _HIERARCHY_FANOUT)
    order = np.concatenate(
        [
            dataset.index.order,
            np.arange(paged.num_objects, paged2.num_objects, dtype=np.int64),
        ]
    )
    index = PageIndex(
        root=root, leaf_boxes=leaf_boxes, order=order, page_offsets=offsets
    )
    snapshot = IndexedDataset(
        kind="vector",
        paged=paged2,
        index=index,
        distance=dataset.distance,
        features=None,
        alphabet=dataset.alphabet,
    )
    chain2 = chain.copy()
    for p in new_pages:
        box = leaf_boxes[p]
        chain2.extend(box.lo, box.hi, paged2.object_count(int(p)))
    return _finish_delta(
        snapshot,
        chain2,
        chain,
        new_pages=new_pages,
        dirty_pages=np.empty(0, dtype=np.int64),
        pages_before=old_pages,
        objects_added=paged2.num_objects - paged.num_objects,
    )


# -- sequence appends (text and raw series) ------------------------------------


def _append_sequence(
    dataset: IndexedDataset, chain: FingerprintChain, suffix
) -> AppendDelta:
    paged = dataset.paged
    assert isinstance(paged, SequencePagedDataset)
    paged2 = paged.with_appended(suffix)
    old_pages = paged.num_pages
    old_windows = paged.num_windows
    new_pages = np.arange(old_pages, paged2.num_pages, dtype=np.int64)
    # A pre-existing page is dirty iff its owned window range changed —
    # window ownership is by start offset, so only the old last page
    # (whose range was clipped by the old window count) qualifies.
    dirty = [
        p
        for p in range(old_pages)
        if paged2.window_range(p) != paged.window_range(p)
    ]
    dirty_pages = np.asarray(dirty, dtype=np.int64)

    if dataset.kind == "text":
        features2 = _extend_text_features(dataset, paged2, old_windows)
        boxes_of = _text_boxes(features2, paged2)
    else:
        features2 = None
        boxes_of = _series_boxes(dataset, paged2)

    changed = np.concatenate([dirty_pages, new_pages])
    leaf_boxes: List[Rect] = list(dataset.index.leaf_boxes)
    leaf_boxes.extend([None] * len(new_pages))  # type: ignore[list-item]
    for p in changed:
        leaf_boxes[p] = boxes_of(int(p))
    root = build_contiguous_hierarchy(leaf_boxes, _HIERARCHY_FANOUT)
    index = PageIndex(
        root=root,
        leaf_boxes=leaf_boxes,
        order=np.arange(paged2.num_windows, dtype=np.int64),
        page_offsets=None,
    )
    snapshot = IndexedDataset(
        kind=dataset.kind,
        paged=paged2,
        index=index,
        distance=dataset.distance,
        features=features2,
        alphabet=dataset.alphabet,
    )
    first_changed = int(changed.min()) if len(changed) else old_pages
    chain2 = chain.copy()
    chain2.truncate(first_changed)
    for p in range(first_changed, paged2.num_pages):
        box = leaf_boxes[p]
        chain2.extend(box.lo, box.hi, paged2.object_count(p))
    return _finish_delta(
        snapshot,
        chain2,
        chain,
        new_pages=new_pages,
        dirty_pages=dirty_pages,
        pages_before=old_pages,
        objects_added=paged2.num_windows - old_windows,
    )


def _extend_text_features(
    dataset: IndexedDataset, paged2: SequencePagedDataset, old_windows: int
) -> np.ndarray:
    """Frequency vectors of the final text, extending the resident rows.

    A window starting before ``old_windows`` covers only pre-append
    symbols, so its frequency vector is unchanged; the rows for windows
    ``old_windows..`` are computed from the suffix slice whose local
    window ``k`` is exactly global window ``old_windows + k``.
    """
    assert dataset.features is not None
    w = paged2.window_length
    text2 = paged2.sequence
    new_rows = frequency_vectors_sliding(
        text2[old_windows:], w, dataset.alphabet
    )
    return np.vstack([dataset.features, new_rows])


def _text_boxes(features2: np.ndarray, paged2: SequencePagedDataset):
    def boxes_of(p: int) -> Rect:
        ws, we = paged2.window_range(p)
        page_features = features2[ws:we]
        return Rect(page_features.min(axis=0), page_features.max(axis=0))

    return boxes_of


def _series_boxes(dataset: IndexedDataset, paged2: SequencePagedDataset):
    from repro.distance.dtw import DTWDistance, envelope_box

    windows = paged2.windows_matrix()
    band = (
        dataset.distance.band
        if isinstance(dataset.distance, DTWDistance)
        else None
    )

    def boxes_of(p: int) -> Rect:
        ws, we = paged2.window_range(p)
        page_windows = windows[ws:we]
        box = Rect(page_windows.min(axis=0), page_windows.max(axis=0))
        return box if band is None else envelope_box(box, band)

    return boxes_of


def _finish_delta(
    snapshot: IndexedDataset,
    chain2: FingerprintChain,
    old_chain: FingerprintChain,
    new_pages: np.ndarray,
    dirty_pages: np.ndarray,
    pages_before: int,
    objects_added: int,
) -> AppendDelta:
    fingerprint = chain2.hexdigest()
    # Joins against the snapshot must never re-walk the pages to key the
    # cache — the chain already knows the answer.
    snapshot.fingerprint_memo = fingerprint  # type: ignore[attr-defined]
    return AppendDelta(
        dataset=snapshot,
        chain=chain2,
        fingerprint=fingerprint,
        old_fingerprint=old_chain.hexdigest(),
        new_pages=new_pages,
        dirty_pages=dirty_pages,
        pages_before=pages_before,
        pages_after=snapshot.num_pages,
        objects_added=objects_added,
    )


# -- matrix patching -----------------------------------------------------------


def patch_matrix(
    matrix: PredictionMatrix,
    r: IndexedDataset,
    s: IndexedDataset,
    changed_r: np.ndarray,
    changed_s: np.ndarray,
    epsilon: float,
    stats: Optional[SweepStats] = None,
) -> PredictionMatrix:
    """Grow ``matrix`` to the appended shape and delta-mark it in place.

    ``changed_r``/``changed_s`` are the page numbers of ``r``/``s`` whose
    leaf boxes are new or grew (an empty array for the un-appended side
    of a cross join; the same array twice for a self matrix).  Existing
    marks are kept — boxes only grow under append, so they all remain
    valid — and the sweep of the changed boxes against the full opposite
    side supplies exactly the missing ones.  Returns ``matrix``.
    """
    matrix.grow(r.num_pages, s.num_pages)
    left = r.index.leaf_bounds()
    right = s.index.leaf_bounds()
    if len(changed_r):
        rows, cols = marked_box_pairs(left[changed_r], right, epsilon, stats)
        matrix.mark_many(changed_r[rows], cols)
    if len(changed_s):
        rows, cols = marked_box_pairs(left, right[changed_s], epsilon, stats)
        matrix.mark_many(rows, changed_s[cols])
    return matrix


# -- the cold-rebuild baseline --------------------------------------------------


def rebuild_dataset(dataset: IndexedDataset) -> IndexedDataset:
    """A from-scratch snapshot over ``dataset``'s final page layout.

    The equivalence baseline for append tests and the rebuild arm of the
    serving benchmark: leaf boxes recomputed page by page from the paged
    payload (band envelopes included), features recomputed from the full
    sequence, hierarchy regrown — everything the incremental path patched,
    rebuilt the slow way.  Page layout is taken as given, so the result
    is directly comparable (same page numbering, same mark space).
    """
    _check_appendable(dataset)
    paged = dataset.paged
    if dataset.kind == "vector":
        assert isinstance(paged, VectorPagedDataset)
        offsets = paged.page_offsets
        data = paged.vectors
        leaf_boxes = [
            Rect(
                data[offsets[p] : offsets[p + 1]].min(axis=0),
                data[offsets[p] : offsets[p + 1]].max(axis=0),
            )
            for p in range(paged.num_pages)
        ]
        features = None
    else:
        assert isinstance(paged, SequencePagedDataset)
        if dataset.kind == "text":
            features = frequency_vectors_sliding(
                paged.sequence, paged.window_length, dataset.alphabet
            )
            boxes_of = _text_boxes(features, paged)
        else:
            features = None
            boxes_of = _series_boxes(dataset, paged)
        leaf_boxes = [boxes_of(p) for p in range(paged.num_pages)]
        offsets = None
    root = build_contiguous_hierarchy(leaf_boxes, _HIERARCHY_FANOUT)
    index = PageIndex(
        root=root,
        leaf_boxes=leaf_boxes,
        order=np.arange(paged.num_objects, dtype=np.int64),
        page_offsets=offsets,
    )
    return IndexedDataset(
        kind=dataset.kind,
        paged=paged,
        index=index,
        distance=dataset.distance,
        features=features,
        alphabet=dataset.alphabet,
    )
