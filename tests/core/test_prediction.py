"""Unit tests for the sparse prediction matrix."""

import numpy as np
import pytest

from repro.core.prediction import CSRWorkMatrix, PredictionMatrix


class TestMarking:
    def test_mark_and_query(self):
        m = PredictionMatrix(4, 5)
        m.mark(1, 2)
        assert m.is_marked(1, 2)
        assert not m.is_marked(2, 1)
        assert m.num_marked == 1

    def test_mark_idempotent(self):
        m = PredictionMatrix(4, 5)
        m.mark(1, 2)
        m.mark(1, 2)
        assert m.num_marked == 1

    def test_unmark(self):
        m = PredictionMatrix(4, 5)
        m.mark(1, 2)
        m.unmark(1, 2)
        assert m.num_marked == 0
        assert not m.is_marked(1, 2)
        assert m.marked_rows() == []
        assert m.marked_cols() == []

    def test_unmark_missing_raises(self):
        m = PredictionMatrix(4, 5)
        with pytest.raises(KeyError):
            m.unmark(0, 0)

    def test_bounds_checked(self):
        m = PredictionMatrix(4, 5)
        with pytest.raises(IndexError):
            m.mark(4, 0)
        with pytest.raises(IndexError):
            m.is_marked(0, 5)

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            PredictionMatrix(0, 5)


class TestViews:
    @pytest.fixture
    def matrix(self):
        m = PredictionMatrix(6, 6)
        for row, col in [(0, 1), (0, 3), (2, 1), (5, 5)]:
            m.mark(row, col)
        return m

    def test_rows_and_cols_sorted(self, matrix):
        assert matrix.marked_rows() == [0, 2, 5]
        assert matrix.marked_cols() == [1, 3, 5]

    def test_row_cols(self, matrix):
        assert matrix.row_cols(0) == [1, 3]
        assert matrix.row_cols(1) == []

    def test_col_rows(self, matrix):
        assert matrix.col_rows(1) == [0, 2]

    def test_entries_row_major(self, matrix):
        assert list(matrix.entries()) == [(0, 1), (0, 3), (2, 1), (5, 5)]

    def test_density(self, matrix):
        assert matrix.density() == pytest.approx(4 / 36)

    def test_to_dense(self, matrix):
        dense = matrix.to_dense()
        assert dense.sum() == 4
        assert dense[0, 1] and dense[5, 5]
        assert not dense[1, 0]


class TestCopyAndTriangle:
    def test_copy_is_independent(self):
        m = PredictionMatrix(3, 3)
        m.mark(0, 0)
        dup = m.copy()
        dup.mark(1, 1)
        assert m.num_marked == 1
        assert dup.num_marked == 2
        dup.unmark(0, 0)
        assert m.is_marked(0, 0)

    def test_equality(self):
        a = PredictionMatrix(3, 3)
        b = PredictionMatrix(3, 3)
        a.mark(0, 1)
        b.mark(0, 1)
        assert a == b
        b.mark(1, 1)
        assert a != b

    def test_keep_upper_triangle(self):
        m = PredictionMatrix(4, 4)
        for row in range(4):
            for col in range(4):
                m.mark(row, col)
        m.keep_upper_triangle()
        assert m.num_marked == 10  # 4 diagonal + 6 upper
        for row, col in m.entries():
            assert row <= col


class TestMarkedSetCaching:
    """marked_rows()/marked_cols() cache until the marked set changes."""

    def test_cache_reused_between_calls(self):
        m = PredictionMatrix(5, 5)
        m.mark(3, 1)
        m.mark(0, 4)
        assert m.marked_rows() is m.marked_rows()
        assert m.marked_cols() is m.marked_cols()

    def test_mark_invalidates_only_on_new_row_or_col(self):
        m = PredictionMatrix(5, 5)
        m.mark(2, 2)
        rows, cols = m.marked_rows(), m.marked_cols()
        m.mark(2, 2)  # idempotent re-mark: nothing changes
        assert m.marked_rows() is rows
        m.mark(2, 3)  # same row, new column
        assert m.marked_rows() is rows
        assert m.marked_cols() == [2, 3]
        m.mark(4, 3)  # new row, existing column
        assert m.marked_rows() == [2, 4]

    def test_unmark_invalidates_when_set_shrinks(self):
        m = PredictionMatrix(5, 5)
        m.mark(1, 1)
        m.mark(1, 2)
        m.mark(3, 2)
        assert m.marked_rows() == [1, 3]
        m.unmark(1, 1)  # row 1 still has (1, 2); col 1 disappears
        assert m.marked_rows() == [1, 3]
        assert m.marked_cols() == [2]
        m.unmark(1, 2)
        assert m.marked_rows() == [3]

    def test_keep_upper_triangle_refreshes_caches(self):
        m = PredictionMatrix(4, 4)
        for row in range(4):
            for col in range(4):
                m.mark(row, col)
        m.marked_rows(), m.marked_cols()
        m.keep_upper_triangle()
        assert m.marked_rows() == [0, 1, 2, 3]
        m2 = PredictionMatrix(3, 3)
        m2.mark(2, 0)
        m2.marked_rows()
        m2.keep_upper_triangle()
        assert m2.marked_rows() == []
        assert m2.marked_cols() == []

    def test_copy_does_not_share_cache(self):
        m = PredictionMatrix(4, 4)
        m.mark(1, 1)
        cached = m.marked_rows()
        dup = m.copy()
        dup.mark(2, 2)
        assert m.marked_rows() is cached
        assert dup.marked_rows() == [1, 2]

    def test_mark_many_invalidates_on_new_rows_and_cols(self):
        m = PredictionMatrix(8, 8)
        m.mark_many(np.asarray([1, 3]), np.asarray([2, 2]))
        rows, cols = m.marked_rows(), m.marked_cols()
        assert rows == [1, 3] and cols == [2]
        # Re-marking existing entries must not rebuild the views ...
        m.mark_many(np.asarray([1, 3]), np.asarray([2, 2]))
        assert m.marked_rows() is rows
        assert m.marked_cols() is cols
        # ... but a batch introducing a new row AND a new column must
        # invalidate both, even when it also repeats old entries.
        m.mark_many(np.asarray([1, 5, 3]), np.asarray([2, 2, 6]))
        assert m.marked_rows() == [1, 3, 5]
        assert m.marked_cols() == [2, 6]

    def test_mark_many_then_unmark_round_trip(self):
        m = PredictionMatrix(6, 6)
        m.mark_many(np.asarray([0, 0, 4]), np.asarray([1, 5, 1]))
        m.marked_rows(), m.marked_cols()
        m.unmark(4, 1)
        assert m.marked_rows() == [0]
        assert m.marked_cols() == [1, 5]
        m.mark_many(np.asarray([4]), np.asarray([1]))
        assert m.marked_rows() == [0, 4]
        assert m.marked_cols() == [1, 5]


def row_ids(work, row):
    """Live entry ids of ``row`` through the CSR offsets, ascending by column."""
    ids = np.arange(work.row_indptr[row], work.row_indptr[row + 1])
    return ids[work.alive[ids]]


def col_ids(work, col):
    """Live entry ids of ``col`` through the CSC keys, ascending by row."""
    lo, hi = work.csc_keys.searchsorted([col * work.num_rows, (col + 1) * work.num_rows])
    ids = work.csc_entries[lo:hi]
    return ids[work.alive[ids]]


class TestCSRWorkMatrix:
    @pytest.fixture
    def work(self):
        m = PredictionMatrix(4, 5)
        for row, col in [(0, 1), (0, 3), (1, 0), (2, 1), (2, 4), (3, 3)]:
            m.mark(row, col)
        return m.csr_view()

    def test_dual_views_agree(self, work):
        assert work.num_marked == 6
        assert work.live_rows().tolist() == [0, 1, 2, 3]
        assert work.live_cols().tolist() == [0, 1, 3, 4]
        # CSR slices ascend by column, CSC slices ascend by row, and both
        # views address the same entry ids.
        assert work.entry_cols[row_ids(work, 0)].tolist() == [1, 3]
        assert work.entry_rows[col_ids(work, 1)].tolist() == [0, 2]
        assert col_ids(work, 2).size == 0

    def test_kill_updates_every_view(self, work):
        work.kill(col_ids(work, 1))  # entries (0, 1) and (2, 1)
        assert work.num_marked == 4
        assert 1 not in work.live_cols().tolist()
        assert work.live_rows().tolist() == [0, 1, 2, 3]  # rows keep other entries
        assert work.entry_cols[row_ids(work, 0)].tolist() == [3]
        work.kill(row_ids(work, 2))  # (2, 4) — row 2 goes dark
        assert work.live_rows().tolist() == [0, 1, 3]
        assert work.live_cols().tolist() == [0, 3]
        assert np.flatnonzero(work.alive).size == work.num_marked == 3

    def test_view_is_independent_of_matrix(self):
        m = PredictionMatrix(3, 3)
        m.mark(0, 0)
        m.mark(2, 2)
        work = m.csr_view()
        work.kill(np.flatnonzero(work.alive))
        assert work.num_marked == 0
        assert m.num_marked == 2

    def test_empty_kill_is_a_noop(self, work):
        work.kill(np.empty(0, dtype=np.int64))
        assert work.num_marked == 6

    def test_rejects_mismatched_coordinates(self):
        with pytest.raises(ValueError):
            CSRWorkMatrix(2, 2, np.asarray([0, 1]), np.asarray([0]))


class TestUnmarkMany:
    """Vectorized batch unmarking: one validation pass, one cache
    invalidation per side, all-or-nothing on bad batches."""

    def _matrix(self):
        m = PredictionMatrix(6, 6)
        m.mark_many(
            np.asarray([0, 0, 1, 2, 2, 4, 5]),
            np.asarray([1, 5, 0, 1, 4, 1, 5]),
        )
        return m

    def test_batch_matches_singles(self):
        batch, singles = self._matrix(), self._matrix()
        batch.unmark_many(np.asarray([0, 2, 4]), np.asarray([5, 1, 1]))
        for row, col in [(0, 5), (2, 1), (4, 1)]:
            singles.unmark(row, col)
        assert batch == singles
        assert batch.num_marked == 4

    def test_to_coo_round_trip_after_unmark(self):
        m = self._matrix()
        m.unmark_many(np.asarray([0, 5]), np.asarray([1, 5]))
        rebuilt = PredictionMatrix(m.num_rows, m.num_cols)
        rebuilt.mark_many(*m.to_coo())
        assert rebuilt == m
        assert rebuilt.num_marked == m.num_marked == 5

    def test_empty_batch_is_a_noop(self):
        m = self._matrix()
        m.unmark_many(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert m.num_marked == 7

    def test_caches_invalidated_once(self):
        m = self._matrix()
        rows, cols = m.marked_rows(), m.marked_cols()
        # (2, 4) removes col 4; row 2 keeps (2, 1) so rows cache is reused.
        m.unmark_many(np.asarray([2]), np.asarray([4]))
        assert m.marked_rows() is rows
        assert m.marked_cols() == [0, 1, 5]
        # Dropping the last entry of row 5 invalidates the rows cache.
        m.unmark_many(np.asarray([5]), np.asarray([5]))
        assert m.marked_rows() == [0, 1, 2, 4]

    def test_shape_mismatch_rejected(self):
        m = self._matrix()
        with pytest.raises(ValueError, match="equal length"):
            m.unmark_many(np.asarray([0, 1]), np.asarray([1]))

    def test_out_of_bounds_rejected(self):
        m = self._matrix()
        with pytest.raises(IndexError):
            m.unmark_many(np.asarray([0, 6]), np.asarray([1, 0]))

    def test_unmarked_entry_rejected_and_matrix_untouched(self):
        m = self._matrix()
        with pytest.raises(KeyError, match=r"\(3, 3\)"):
            m.unmark_many(np.asarray([0, 3]), np.asarray([1, 3]))
        assert m == self._matrix()  # valid prefix (0, 1) was not applied

    def test_duplicate_in_batch_rejected(self):
        m = self._matrix()
        with pytest.raises(KeyError, match=r"\(0, 1\)"):
            m.unmark_many(np.asarray([0, 0]), np.asarray([1, 1]))
        assert m == self._matrix()
