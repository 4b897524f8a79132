"""Paged datasets: how in-memory data maps onto simulated disk pages.

Two flavours exist, matching the paper's two data classes:

* :class:`VectorPagedDataset` — point/spatial/time-series feature data: an
  ``(n, d)`` array split into fixed-capacity pages.  Objects are never
  reordered relative to the array (the R-tree leaf construction in
  Section 5.1 sorts the *array* once so leaf MBRs are contiguous; callers
  do that before constructing the paged dataset).
* :class:`SequencePagedDataset` — one long sequence (genome string or time
  series).  Page ``i`` owns the windows *starting* in its symbol range and
  physically stores ``w − 1`` overlap symbols from the next page so a
  window never requires two page reads.  This mirrors the paper's
  observation that sequence data cannot be split into non-overlapping
  pieces without destroying windows (Section 3); the small fixed overlap
  is the minimal replication that keeps one-window-one-page true.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "PagedDataset",
    "PageBlock",
    "VectorPagedDataset",
    "SequencePagedDataset",
    "dataset_shm_spec",
    "dataset_from_shm_spec",
]

_dataset_counter = itertools.count()


def _fresh_dataset_id(prefix: str) -> str:
    return f"{prefix}-{next(_dataset_counter)}"


@dataclass(frozen=True)
class PageBlock:
    """Columnar view over a set of pages: stacked objects plus offsets.

    A join cascade stacks the pages of its entries; this is their
    zero-copy (or single-gather) in-memory form.  ``objects`` stacks every object of
    the requested pages in page order; the offset arrays say where each
    page starts, so joiners address objects by ``(page, local)`` without
    materialising per-page payload lists:

    * ``objects[starts[k] : starts[k] + counts[k]]`` are the objects of
      ``page_nos[k]``;
    * object ``local`` of ``page_nos[k]`` has dataset-global id
      ``global_starts[k] + local``.

    When the requested pages are physically contiguous, ``objects`` is a
    strict view of the dataset's backing array; otherwise it is one fused
    gather (never per-page copies).
    """

    page_nos: np.ndarray  # (k,) int64, strictly increasing
    objects: np.ndarray  # (n, ...) stacked joinable objects, page order
    starts: np.ndarray  # (k,) int64 — first stacked row of each page
    counts: np.ndarray  # (k,) int64 — objects per page
    global_starts: np.ndarray  # (k,) int64 — global id of each page's first object

    @property
    def total_objects(self) -> int:
        return self.objects.shape[0]

    @property
    def global_ids(self) -> np.ndarray:
        """Global object id of every stacked row, in stacked order."""
        return np.repeat(self.global_starts - self.starts, self.counts) + np.arange(
            self.total_objects, dtype=np.int64
        )


def _block_layout(
    page_nos: Sequence[int], lo: np.ndarray, hi: np.ndarray, num_pages: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]":
    """Shared ``pages_view`` geometry for both dataset flavours.

    ``lo``/``hi`` are the half-open global object ranges of every page of
    the dataset.  Returns ``(pages, starts, counts, gather)`` where
    ``gather`` is ``None`` when the requested pages cover one contiguous
    global range (zero-copy slice) and otherwise the fused gather index.
    """
    pages = np.asarray(page_nos, dtype=np.int64)
    if pages.ndim != 1 or pages.size == 0:
        raise ValueError("pages_view expects a non-empty 1-d page list")
    if pages[0] < 0 or pages[-1] >= num_pages or np.any(np.diff(pages) <= 0):
        raise ValueError(
            f"pages_view expects strictly increasing page numbers in "
            f"[0, {num_pages}), got {pages.tolist()}"
        )
    page_lo = lo[pages]
    page_hi = hi[pages]
    counts = page_hi - page_lo
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    if np.array_equal(page_lo[1:], page_hi[:-1]):
        return pages, starts, counts, None
    gather = (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(starts, counts)
        + np.repeat(page_lo, counts)
    )
    return pages, starts, counts, gather


@runtime_checkable
class PagedDataset(Protocol):
    """What join algorithms need from a dataset: pages of joinable objects."""

    dataset_id: Hashable

    @property
    def num_pages(self) -> int:
        """Number of disk pages the dataset occupies."""

    @property
    def num_objects(self) -> int:
        """Number of joinable objects (vectors or windows) in the dataset."""

    def page_objects(self, page_no: int) -> np.ndarray:
        """In-memory payload of a page, as an array of joinable objects."""

    def object_count(self, page_no: int) -> int:
        """Number of joinable objects in a page (no payload materialised)."""

    def global_object_id(self, page_no: int, local_index: int) -> int:
        """Stable dataset-wide id of an object, for reporting join pairs."""

    def pages_view(self, page_nos: Sequence[int]) -> PageBlock:
        """Columnar view over a page set (see :class:`PageBlock`)."""


class VectorPagedDataset:
    """Paging of an ``(n, d)`` float array into disk pages.

    Pages are either fixed-capacity (``objects_per_page``) or delimited by
    an explicit ``page_offsets`` array — the latter is what index-driven
    paging produces, where page ``i`` holds exactly the objects of R-tree
    leaf ``i`` and leaves are not uniformly full.

    Parameters
    ----------
    vectors:
        The data, one object per row.  A copy is not taken; callers must not
        mutate the array afterwards.
    objects_per_page:
        Fixed page capacity in objects (mutually exclusive with
        ``page_offsets``).
    page_offsets:
        Monotone int array of length ``num_pages + 1`` with
        ``page_offsets[0] == 0`` and ``page_offsets[-1] == n``; page ``i``
        covers object rows ``[page_offsets[i], page_offsets[i + 1])``.
    dataset_id:
        Optional explicit id; defaults to a fresh unique string.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        objects_per_page: int | None = None,
        page_offsets: Sequence[int] | None = None,
        dataset_id: Hashable | None = None,
    ) -> None:
        data = np.asarray(vectors, dtype=np.float64)
        if data.ndim != 2 or 0 in data.shape:
            raise ValueError(
                f"vectors must be a non-empty (n, d) array with d >= 1, got shape {data.shape}"
            )
        if (objects_per_page is None) == (page_offsets is None):
            raise ValueError("exactly one of objects_per_page or page_offsets must be given")
        self._data = data
        if page_offsets is not None:
            offsets = np.asarray(page_offsets, dtype=np.int64)
            if (
                offsets.ndim != 1
                or offsets.shape[0] < 2
                or offsets[0] != 0
                or offsets[-1] != data.shape[0]
                or np.any(np.diff(offsets) <= 0)
            ):
                raise ValueError(
                    "page_offsets must be strictly increasing, start at 0 and "
                    f"end at {data.shape[0]}"
                )
            self._offsets = offsets
        else:
            assert objects_per_page is not None
            if objects_per_page <= 0:
                raise ValueError(f"objects_per_page must be positive, got {objects_per_page}")
            n = data.shape[0]
            boundaries = list(range(0, n, objects_per_page)) + [n]
            self._offsets = np.asarray(boundaries, dtype=np.int64)
        self.dataset_id = dataset_id if dataset_id is not None else _fresh_dataset_id("vec")

    @property
    def dim(self) -> int:
        """Dimensionality of the vectors."""
        return self._data.shape[1]

    @property
    def num_objects(self) -> int:
        return self._data.shape[0]

    @property
    def num_pages(self) -> int:
        return self._offsets.shape[0] - 1

    def page_slice(self, page_no: int) -> tuple[int, int]:
        """Half-open object-index range ``[start, stop)`` of a page."""
        if not 0 <= page_no < self.num_pages:
            raise IndexError(f"page {page_no} out of range (0..{self.num_pages - 1})")
        return int(self._offsets[page_no]), int(self._offsets[page_no + 1])

    def page_of_object(self, object_id: int) -> int:
        """Page holding the object at row ``object_id``."""
        if not 0 <= object_id < self.num_objects:
            raise IndexError(f"object {object_id} out of range (0..{self.num_objects - 1})")
        return int(np.searchsorted(self._offsets, object_id, side="right")) - 1

    def page_objects(self, page_no: int) -> np.ndarray:
        start, stop = self.page_slice(page_no)
        return self._data[start:stop]

    def object_count(self, page_no: int) -> int:
        start, stop = self.page_slice(page_no)
        return stop - start

    def global_object_id(self, page_no: int, local_index: int) -> int:
        start, stop = self.page_slice(page_no)
        if not 0 <= local_index < stop - start:
            raise IndexError(f"local index {local_index} out of range for page {page_no}")
        return start + local_index

    def pages_view(self, page_nos: Sequence[int]) -> PageBlock:
        """Columnar view over a page set: stacked rows plus offsets.

        Contiguous page runs return a strict slice view of the backing
        array; arbitrary sets do one fused gather.  Global object ids
        equal backing-array row indices, so ``global_starts`` is just the
        page offsets.
        """
        pages, starts, counts, gather = _block_layout(
            page_nos, self._offsets[:-1], self._offsets[1:], self.num_pages
        )
        if gather is None:
            objects = self._data[int(self._offsets[pages[0]]) : int(self._offsets[pages[-1] + 1])]
        else:
            objects = self._data[gather]
        return PageBlock(
            page_nos=pages,
            objects=objects,
            starts=starts,
            counts=counts,
            global_starts=self._offsets[pages],
        )

    @property
    def vectors(self) -> np.ndarray:
        """The full underlying array (read-only by convention)."""
        return self._data

    @property
    def page_offsets(self) -> np.ndarray:
        """The page boundary array (length ``num_pages + 1``)."""
        return self._offsets

    def with_appended(
        self, vectors: np.ndarray, page_capacity: int
    ) -> "VectorPagedDataset":
        """A new dataset with ``vectors`` appended as fresh pages.

        Copy-on-write: this dataset is untouched; the returned one shares
        its ``dataset_id`` (it is the *same* logical dataset, one version
        later) and keeps every existing page boundary, so existing page
        numbers, object ids and leaf boxes stay valid.  The new rows are
        split into pages of at most ``page_capacity`` objects each —
        appends never repack an existing page, which is what keeps the
        incremental matrix/sketch patches O(new pages).
        """
        extra = np.asarray(vectors, dtype=np.float64)
        if extra.ndim != 2 or extra.shape[0] == 0:
            raise ValueError(
                f"appended vectors must be a non-empty (n, d) array, "
                f"got shape {extra.shape}"
            )
        if extra.shape[1] != self.dim:
            raise ValueError(
                f"appended vectors have dimension {extra.shape[1]}, "
                f"dataset has {self.dim}"
            )
        if page_capacity <= 0:
            raise ValueError(f"page_capacity must be positive, got {page_capacity}")
        old_n = self.num_objects
        new_boundaries = np.arange(
            old_n + page_capacity, old_n + extra.shape[0], page_capacity,
            dtype=np.int64,
        )
        offsets = np.concatenate(
            [self._offsets, new_boundaries, [old_n + extra.shape[0]]]
        )
        return VectorPagedDataset(
            np.vstack([self._data, extra]),
            page_offsets=offsets,
            dataset_id=self.dataset_id,
        )


class SequencePagedDataset:
    """Paging of one long sequence into fixed symbol blocks with overlap.

    The joinable objects of page ``i`` are all windows of length
    ``window_length`` whose start offset lies in
    ``[i * symbols_per_page, (i+1) * symbols_per_page)`` and which fit inside
    the sequence.  The page physically stores its block plus a
    ``window_length − 1`` tail from the next block, so every such window is
    served by a single page read.

    ``sequence`` may be a string (genome data, edit distance) or a 1-d float
    array (time series, vector norms on windows).
    """

    def __init__(
        self,
        sequence: "str | np.ndarray",
        symbols_per_page: int,
        window_length: int,
        dataset_id: Hashable | None = None,
    ) -> None:
        if symbols_per_page <= 0:
            raise ValueError(f"symbols_per_page must be positive, got {symbols_per_page}")
        if window_length <= 0:
            raise ValueError(f"window_length must be positive, got {window_length}")
        if isinstance(sequence, str):
            self._seq: "str | np.ndarray" = sequence
            self.is_text = True
            seq_len = len(sequence)
        else:
            arr = np.asarray(sequence, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"sequence array must be 1-d, got shape {arr.shape}")
            self._seq = arr
            self.is_text = False
            seq_len = arr.shape[0]
        if seq_len < window_length:
            raise ValueError(
                f"sequence of length {seq_len} is shorter than window_length {window_length}"
            )
        self.symbols_per_page = symbols_per_page
        self.window_length = window_length
        self._seq_len = seq_len
        self._windows_cache: "np.ndarray | None" = None
        self.dataset_id = dataset_id if dataset_id is not None else _fresh_dataset_id("seq")

    @property
    def sequence(self) -> "str | np.ndarray":
        """The full underlying sequence."""
        return self._seq

    @property
    def sequence_length(self) -> int:
        """Number of symbols in the sequence."""
        return self._seq_len

    @property
    def num_windows(self) -> int:
        """Number of windows of length ``window_length`` in the sequence."""
        return self._seq_len - self.window_length + 1

    @property
    def num_objects(self) -> int:
        return self.num_windows

    @property
    def num_pages(self) -> int:
        return -(-self.num_windows // self.symbols_per_page)

    def window_range(self, page_no: int) -> tuple[int, int]:
        """Half-open range of window start offsets owned by a page."""
        if not 0 <= page_no < self.num_pages:
            raise IndexError(f"page {page_no} out of range (0..{self.num_pages - 1})")
        start = page_no * self.symbols_per_page
        return start, min(start + self.symbols_per_page, self.num_windows)

    def page_of_offset(self, offset: int) -> int:
        """Page owning the window that starts at ``offset``."""
        if not 0 <= offset < self.num_windows:
            raise IndexError(f"window offset {offset} out of range (0..{self.num_windows - 1})")
        return offset // self.symbols_per_page

    def page_objects(self, page_no: int) -> "np.ndarray | list[str]":
        """All windows owned by the page.

        Text sequences return a list of strings; numeric sequences return a
        ``(k, window_length)`` float array built with a strided view.
        """
        start, stop = self.window_range(page_no)
        w = self.window_length
        if self.is_text:
            seq = self._seq
            return [seq[off : off + w] for off in range(start, stop)]
        arr = self._seq
        windows = np.lib.stride_tricks.sliding_window_view(arr, w)
        return windows[start:stop]

    def object_count(self, page_no: int) -> int:
        start, stop = self.window_range(page_no)
        return stop - start

    def global_object_id(self, page_no: int, local_index: int) -> int:
        start, stop = self.window_range(page_no)
        if not 0 <= local_index < stop - start:
            raise IndexError(f"local index {local_index} out of range for page {page_no}")
        return start + local_index

    def windows_matrix(self) -> np.ndarray:
        """All windows of the sequence as one ``(num_windows, w)`` view.

        Numeric sequences give the float64 sliding-window view; text gives
        the latin-1 byte-window view (the kernels' shared encoding).  Built
        once and cached — it is a strided view (text pays one encode), and
        every window offset is directly its row index.
        """
        if self._windows_cache is None:
            from repro.sequence.windows import byte_windows_view, windows_view

            if self.is_text:
                self._windows_cache = byte_windows_view(self._seq, self.window_length)
            else:
                self._windows_cache = windows_view(self._seq, self.window_length)
        return self._windows_cache

    def pages_view(self, page_nos: Sequence[int]) -> PageBlock:
        """Columnar view over a page set's windows.

        ``objects`` stacks the pages' windows as rows of
        :meth:`windows_matrix` — float64 windows for numeric sequences,
        latin-1 byte rows for text (page payloads for text remain string
        lists; the columnar form is what the batched kernels consume).
        Contiguous pages return a strict view; global ids are window start
        offsets.
        """
        num_pages = self.num_pages
        lo = np.arange(num_pages, dtype=np.int64) * self.symbols_per_page
        hi = np.minimum(lo + self.symbols_per_page, self.num_windows)
        pages, starts, counts, gather = _block_layout(page_nos, lo, hi, num_pages)
        windows = self.windows_matrix()
        if gather is None:
            objects = windows[int(lo[pages[0]]) : int(hi[pages[-1]])]
        else:
            objects = windows[gather]
        return PageBlock(
            page_nos=pages,
            objects=objects,
            starts=starts,
            counts=counts,
            global_starts=lo[pages],
        )

    def with_appended(self, suffix: "str | np.ndarray") -> "SequencePagedDataset":
        """A new sequence dataset with ``suffix`` appended (same id/layout).

        Copy-on-write like :meth:`VectorPagedDataset.with_appended`.
        Window ownership is by start offset, so every existing window
        keeps its page and global id; the old *last* page may gain
        windows (its owned range was clipped by the old window count) and
        new pages are added after it — the caller's dirty-page set for
        box/sketch patching is exactly the pages from the old last page
        onward whose window ranges changed.
        """
        if self.is_text:
            if not isinstance(suffix, str):
                raise TypeError("text datasets append str suffixes")
            if not suffix:
                raise ValueError("cannot append an empty suffix")
            combined: "str | np.ndarray" = self._seq + suffix
        else:
            extra = np.asarray(suffix, dtype=np.float64)
            if extra.ndim != 1 or extra.shape[0] == 0:
                raise ValueError(
                    f"appended series must be a non-empty 1-d array, "
                    f"got shape {extra.shape}"
                )
            combined = np.concatenate([np.asarray(self._seq), extra])
        return SequencePagedDataset(
            combined,
            symbols_per_page=self.symbols_per_page,
            window_length=self.window_length,
            dataset_id=self.dataset_id,
        )


# -- shared-memory reconstruction ----------------------------------------------


def dataset_shm_spec(dataset: PagedDataset, share) -> dict:
    """A picklable recipe to rebuild ``dataset`` in another process.

    ``share(array) -> handle`` publishes one backing array (the sharded
    executor passes :meth:`repro.storage.shm.ShmArena.share`); the
    returned dict carries the handles plus the paging parameters.  The
    rebuilt dataset (:func:`dataset_from_shm_spec`) has the identical
    page layout, object ids and ``dataset_id`` — its page views are
    zero-copy windows over the shared segments (text sequences pay one
    decode, their windows are re-derived from the shared bytes).
    """
    if isinstance(dataset, VectorPagedDataset):
        return {
            "flavour": "vector",
            "data": share(dataset.vectors),
            "page_offsets": np.asarray(dataset.page_offsets),
            "dataset_id": dataset.dataset_id,
        }
    if isinstance(dataset, SequencePagedDataset):
        spec = {
            "flavour": "text" if dataset.is_text else "series",
            "symbols_per_page": dataset.symbols_per_page,
            "window_length": dataset.window_length,
            "dataset_id": dataset.dataset_id,
        }
        if dataset.is_text:
            encoded = np.frombuffer(
                dataset.sequence.encode("latin-1"), dtype=np.uint8
            )
            spec["sequence"] = share(encoded)
        else:
            spec["sequence"] = share(np.asarray(dataset.sequence))
        return spec
    raise TypeError(
        f"cannot build a shared-memory spec for {type(dataset).__name__}; "
        "only the built-in paged dataset flavours are supported"
    )


def dataset_from_shm_spec(spec: dict, attach):
    """Rebuild a paged dataset from a :func:`dataset_shm_spec` recipe.

    ``attach(handle) -> array`` maps one shared array (the worker passes
    :meth:`repro.storage.shm.ShmAttachments.attach`).
    """
    if spec["flavour"] == "vector":
        return VectorPagedDataset(
            attach(spec["data"]),
            page_offsets=spec["page_offsets"],
            dataset_id=spec["dataset_id"],
        )
    sequence = attach(spec["sequence"])
    if spec["flavour"] == "text":
        sequence = sequence.tobytes().decode("latin-1")
    return SequencePagedDataset(
        sequence,
        symbols_per_page=spec["symbols_per_page"],
        window_length=spec["window_length"],
        dataset_id=spec["dataset_id"],
    )
