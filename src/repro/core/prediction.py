"""The prediction matrix — the paper's global view of a join (Section 5).

A boolean matrix over page pairs: entry ``(i, j)`` is marked iff the
lower-bounding distance between page ``i`` of the first dataset and page
``j`` of the second is within the join threshold, i.e. the page pair may
contribute to the join.  Stored sparsely — "the prediction matrix stores
only the marked entries in sparse matrix format" (Section 7.1) — with both
row-major and column-major mirrors, because SC sweeps columns while
cluster extraction removes by rows.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

import numpy as np

__all__ = ["PredictionMatrix", "CSRWorkMatrix"]

Entry = Tuple[int, int]


class CSRWorkMatrix:
    """Dual CSR/CSC array view of a marked-entry snapshot, with removal.

    The clustering passes (SC/CC) consume a *working copy* of the
    prediction matrix: they repeatedly slice rows/columns and remove the
    entries they assign to clusters.  The dict-of-sets representation
    makes every ``row_cols``/``col_rows`` call a sorted-list rebuild;
    this view stores the same entries once, in two static sorted orders,
    and models removal with an alive-mask — so slicing is an array view
    plus a boolean gather, and removal is a vectorised mask update.

    Layout
    ------
    Entries are numbered ``0..e-1`` in row-major order.

    ``entry_rows`` / ``entry_cols``
        Coordinates by entry id (int64).
    ``row_indptr``
        CSR: entries of ``row`` are ids ``row_indptr[row]:row_indptr[row+1]``,
        ascending by column.
    ``csc_entries`` / ``col_indptr``
        CSC: ``csc_entries[col_indptr[col]:col_indptr[col+1]]`` are the
        ids of ``col``'s entries, ascending by row.
    ``alive``
        Boolean by entry id; killed entries stay in the arrays but are
        masked out of every query.
    ``row_live`` / ``col_live``
        Live-entry counts per row / column.
    """

    def __init__(
        self,
        num_rows: int,
        num_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be 1-d arrays of equal length")
        self.num_rows = num_rows
        self.num_cols = num_cols
        self.entry_rows = rows
        self.entry_cols = cols
        counts = np.bincount(rows, minlength=num_rows)
        self.row_indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=self.row_indptr[1:])
        self.csc_entries = np.lexsort((rows, cols))
        col_counts = np.bincount(cols, minlength=num_cols)
        self.col_indptr = np.zeros(num_cols + 1, dtype=np.int64)
        np.cumsum(col_counts, out=self.col_indptr[1:])
        self.alive = np.ones(rows.size, dtype=bool)
        self.live_count = int(rows.size)
        self.row_live = counts.astype(np.int64)
        self.col_live = col_counts.astype(np.int64)
        # Compound coordinate keys, ascending in their respective orders:
        # one searchsorted over them finds a (row, col-range) span without
        # first slicing the row — which lets boundary scans probe *all*
        # candidate rows/columns in a single call.
        self.row_keys = rows * np.int64(num_cols) + cols
        self.csc_keys = (
            cols[self.csc_entries] * np.int64(num_rows) + rows[self.csc_entries]
        )

    # -- queries ------------------------------------------------------------

    @property
    def num_marked(self) -> int:
        """Live entries remaining (the working copy's ``e``)."""
        return self.live_count

    def live_rows(self) -> np.ndarray:
        """Sorted rows that still have a live entry."""
        return np.nonzero(self.row_live > 0)[0]

    def live_cols(self) -> np.ndarray:
        """Sorted columns that still have a live entry."""
        return np.nonzero(self.col_live > 0)[0]

    def row_entry_ids(self, row: int) -> np.ndarray:
        """Live entry ids of ``row``, ascending by column."""
        ids = self.csr_row_ids(row)
        return ids[self.alive[ids]]

    def col_entry_ids(self, col: int) -> np.ndarray:
        """Live entry ids of ``col``, ascending by row."""
        ids = self.csc_col_ids(col)
        return ids[self.alive[ids]]

    def csr_row_ids(self, row: int) -> np.ndarray:
        """All entry ids of ``row`` (live or not), ascending by column."""
        start, stop = self.row_indptr[row], self.row_indptr[row + 1]
        return np.arange(start, stop, dtype=np.int64)

    def csc_col_ids(self, col: int) -> np.ndarray:
        """All entry ids of ``col`` (live or not), ascending by row."""
        return self.csc_entries[self.col_indptr[col] : self.col_indptr[col + 1]]

    def live_entry_ids(self) -> np.ndarray:
        """Live entry ids in row-major order."""
        return np.nonzero(self.alive)[0]

    def compacted(self) -> "CSRWorkMatrix":
        """A fresh view holding only the live entries.

        Entry ids are renumbered (still row-major), so callers must drop
        any ids taken from the old view.  Rebuilding once the live
        fraction halves keeps the slicing cost proportional to the
        remaining work instead of the original entry count.
        """
        live = np.nonzero(self.alive)[0]
        return CSRWorkMatrix(
            self.num_rows, self.num_cols, self.entry_rows[live], self.entry_cols[live]
        )

    # -- mutation -----------------------------------------------------------

    def kill(self, entry_ids: np.ndarray) -> None:
        """Remove a batch of live entries (ids must be live and unique)."""
        entry_ids = np.asarray(entry_ids, dtype=np.int64)
        if entry_ids.size == 0:
            return
        self.alive[entry_ids] = False
        self.live_count -= int(entry_ids.size)
        np.subtract.at(self.row_live, self.entry_rows[entry_ids], 1)
        np.subtract.at(self.col_live, self.entry_cols[entry_ids], 1)


class PredictionMatrix:
    """Sparse boolean matrix over ``num_rows × num_cols`` page pairs.

    Rows index pages of the first (``R``) dataset, columns pages of the
    second (``S``) dataset.

    Examples
    --------
    >>> m = PredictionMatrix(3, 4)
    >>> m.mark(0, 1); m.mark(2, 3)
    >>> m.is_marked(0, 1), m.is_marked(1, 1)
    (True, False)
    >>> m.num_marked
    2
    """

    def __init__(self, num_rows: int, num_cols: int) -> None:
        if num_rows <= 0 or num_cols <= 0:
            raise ValueError(
                f"matrix dimensions must be positive, got {num_rows}x{num_cols}"
            )
        self.num_rows = num_rows
        self.num_cols = num_cols
        self._rows: Dict[int, Set[int]] = {}
        self._cols: Dict[int, Set[int]] = {}
        self._count = 0
        # marked_rows()/marked_cols() are called inside loops by pm-NLJ
        # and both clustering passes; cache the sorted views and
        # invalidate on mutation instead of re-sorting every call.
        self._rows_cache: "List[int] | None" = None
        self._cols_cache: "List[int] | None" = None

    # -- mutation ------------------------------------------------------------

    def mark(self, row: int, col: int) -> None:
        """Mark the entry ``(row, col)``; idempotent."""
        self._check(row, col)
        row_set = self._rows.setdefault(row, set())
        if col in row_set:
            return
        if not row_set:  # a freshly created row changes the marked-row set
            self._rows_cache = None
        if col not in self._cols:
            self._cols_cache = None
        row_set.add(col)
        self._cols.setdefault(col, set()).add(row)
        self._count += 1

    def mark_many(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Mark a batch of ``(rows[k], cols[k])`` entries; idempotent.

        The block sweep produces leaf pairs as index arrays; this marks
        them with one bounds check for the whole batch and without the
        per-entry method dispatch of :meth:`mark`.
        """
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(
                f"rows and cols must be 1-d arrays of equal length, "
                f"got shapes {rows.shape} and {cols.shape}"
            )
        if rows.size == 0:
            return
        if (
            rows.min() < 0
            or rows.max() >= self.num_rows
            or cols.min() < 0
            or cols.max() >= self.num_cols
        ):
            raise IndexError(
                f"batch contains entries outside matrix {self.num_rows}x{self.num_cols}"
            )
        row_sets = self._rows
        col_sets = self._cols
        added = 0
        for row, col in zip(rows.tolist(), cols.tolist()):
            row_set = row_sets.get(row)
            if row_set is None:
                row_set = row_sets[row] = set()
                self._rows_cache = None
            elif col in row_set:
                continue
            row_set.add(col)
            col_set = col_sets.get(col)
            if col_set is None:
                col_set = col_sets[col] = set()
                self._cols_cache = None
            col_set.add(row)
            added += 1
        self._count += added

    def unmark(self, row: int, col: int) -> None:
        """Remove a marked entry; raises ``KeyError`` if it is not marked."""
        try:
            self._rows[row].remove(col)
        except KeyError:
            raise KeyError(f"entry ({row}, {col}) is not marked") from None
        if not self._rows[row]:
            del self._rows[row]
            self._rows_cache = None
        self._cols[col].remove(row)
        if not self._cols[col]:
            del self._cols[col]
            self._cols_cache = None
        self._count -= 1

    def unmark_many(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Remove a batch of ``(rows[k], cols[k])`` marked entries.

        The prefilter cascade unmarks thousands of cells at once; this
        validates the whole batch first (one bounds check, a
        ``KeyError`` naming the first unmarked entry — leaving the
        matrix untouched on failure), then mutates with at most one
        cache invalidation per side instead of per-entry churn.
        Duplicate entries within the batch raise like unmarked ones.
        """
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(
                f"rows and cols must be 1-d arrays of equal length, "
                f"got shapes {rows.shape} and {cols.shape}"
            )
        if rows.size == 0:
            return
        if (
            rows.min() < 0
            or rows.max() >= self.num_rows
            or cols.min() < 0
            or cols.max() >= self.num_cols
        ):
            raise IndexError(
                f"batch contains entries outside matrix {self.num_rows}x{self.num_cols}"
            )
        pairs = list(zip(rows.tolist(), cols.tolist()))
        seen = set()
        for row, col in pairs:
            if (row, col) in seen or col not in self._rows.get(row, ()):
                raise KeyError(f"entry ({row}, {col}) is not marked")
            seen.add((row, col))
        row_sets = self._rows
        col_sets = self._cols
        rows_changed = False
        cols_changed = False
        for row, col in pairs:
            row_set = row_sets[row]
            row_set.remove(col)
            if not row_set:
                del row_sets[row]
                rows_changed = True
            col_set = col_sets[col]
            col_set.remove(row)
            if not col_set:
                del col_sets[col]
                cols_changed = True
        if rows_changed:
            self._rows_cache = None
        if cols_changed:
            self._cols_cache = None
        self._count -= len(pairs)

    def grow(self, num_rows: int, num_cols: int) -> None:
        """Extend the matrix dimensions; existing marks are untouched.

        The incremental-append path (``repro.serve``) patches a resident
        matrix when pages are appended to a dataset: the dimensions grow
        to the new page counts, then the delta sweep ``mark_many``s the
        new/changed rows and columns.  Shrinking is refused — marks
        outside the smaller dimensions would dangle.
        """
        if num_rows < self.num_rows or num_cols < self.num_cols:
            raise ValueError(
                f"cannot shrink matrix {self.num_rows}x{self.num_cols} "
                f"to {num_rows}x{num_cols}"
            )
        self.num_rows = num_rows
        self.num_cols = num_cols

    def keep_upper_triangle(self) -> None:
        """Drop entries with ``row > col`` (self-join symmetry reduction).

        A self-join marks both ``(i, j)`` and ``(j, i)``; joining one of
        them produces every result pair, so half the matrix is redundant.
        """
        doomed = [
            (row, col)
            for row, cols in self._rows.items()
            for col in cols
            if row > col
        ]
        for row, col in doomed:
            self.unmark(row, col)

    # -- queries ------------------------------------------------------------

    def is_marked(self, row: int, col: int) -> bool:
        self._check(row, col)
        return col in self._rows.get(row, ())

    @property
    def num_marked(self) -> int:
        """Number of marked entries (the paper's ``e``)."""
        return self._count

    def marked_rows(self) -> List[int]:
        """Sorted rows that contain at least one marked entry.

        The returned list is cached until the marked-row set changes;
        callers must treat it as read-only.
        """
        if self._rows_cache is None:
            self._rows_cache = sorted(self._rows)
        return self._rows_cache

    def marked_cols(self) -> List[int]:
        """Sorted columns that contain at least one marked entry.

        The returned list is cached until the marked-column set changes;
        callers must treat it as read-only.
        """
        if self._cols_cache is None:
            self._cols_cache = sorted(self._cols)
        return self._cols_cache

    def row_cols(self, row: int) -> List[int]:
        """Sorted marked columns of ``row`` (empty if none)."""
        return sorted(self._rows.get(row, ()))

    def col_rows(self, col: int) -> List[int]:
        """Sorted marked rows of ``col`` (empty if none)."""
        return sorted(self._cols.get(col, ()))

    def entries(self) -> Iterator[Entry]:
        """All marked entries in row-major order."""
        for row in sorted(self._rows):
            for col in sorted(self._rows[row]):
                yield row, col

    def density(self) -> float:
        """Fraction of marked entries — the join's page-level selectivity."""
        return self._count / (self.num_rows * self.num_cols)

    def copy(self) -> "PredictionMatrix":
        """Deep copy (clustering algorithms consume their working copy)."""
        dup = PredictionMatrix(self.num_rows, self.num_cols)
        dup._rows = {row: set(cols) for row, cols in self._rows.items()}
        dup._cols = {col: set(rows) for col, rows in self._cols.items()}
        dup._count = self._count
        return dup

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray]:
        """Marked entries as ``(rows, cols)`` int64 arrays, row-major sorted."""
        rows = np.empty(self._count, dtype=np.int64)
        cols = np.empty(self._count, dtype=np.int64)
        at = 0
        for row in sorted(self._rows):
            row_cols = sorted(self._rows[row])
            stop = at + len(row_cols)
            rows[at:stop] = row
            cols[at:stop] = row_cols
            at = stop
        return rows, cols

    def csr_view(self) -> CSRWorkMatrix:
        """A :class:`CSRWorkMatrix` snapshot of the marked entries.

        The view is independent of this matrix: killing entries in the
        view does not unmark them here (clustering consumes the view the
        way it used to consume a :meth:`copy`).
        """
        rows, cols = self.to_coo()
        return CSRWorkMatrix(self.num_rows, self.num_cols, rows, cols)

    def to_dense(self) -> np.ndarray:
        """Dense boolean array (small matrices / tests / visualisation)."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=bool)
        for row, cols in self._rows.items():
            dense[row, list(cols)] = True
        return dense

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PredictionMatrix):
            return NotImplemented
        return (
            self.num_rows == other.num_rows
            and self.num_cols == other.num_cols
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return (
            f"PredictionMatrix({self.num_rows}x{self.num_cols}, "
            f"marked={self._count}, density={self.density():.4f})"
        )

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.num_rows and 0 <= col < self.num_cols):
            raise IndexError(
                f"entry ({row}, {col}) outside matrix {self.num_rows}x{self.num_cols}"
            )
