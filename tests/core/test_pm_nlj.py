"""Unit tests for pm-NLJ (Figure 4)."""

import numpy as np
import pytest

from repro.core.pm_nlj import pm_nlj_join
from repro.core.prediction import PredictionMatrix
from repro.storage.buffer import BufferPool
from repro.storage.page import VectorPagedDataset
from tests.oracles.joiners import EchoJoiner


@pytest.fixture
def datasets():
    r = VectorPagedDataset(
        np.arange(40, dtype=float).reshape(20, 2), objects_per_page=2, dataset_id="R"
    )
    s = VectorPagedDataset(
        np.arange(30, dtype=float).reshape(15, 2), objects_per_page=2, dataset_id="S"
    )
    return r, s


counting_joiner = EchoJoiner()


class TestPinnedBranch:
    def test_small_marked_side_pinned(self, disk, datasets):
        """All marked S pages fit: each page of either side read once."""
        r, s = datasets
        pool = BufferPool(disk, capacity=8)
        matrix = PredictionMatrix(10, 15)
        for row, col in [(0, 3), (1, 3), (2, 4), (5, 6)]:
            matrix.mark(row, col)
        outcome = pm_nlj_join(matrix, pool, r, s, counting_joiner)
        # 3 marked cols + 4 marked rows = 7 reads, each exactly once.
        assert disk.stats.transfers == 7
        assert sorted(outcome.pairs) == [(0, 3), (1, 3), (2, 4), (5, 6)]

    def test_empty_matrix_reads_nothing(self, disk, datasets):
        r, s = datasets
        pool = BufferPool(disk, capacity=8)
        outcome = pm_nlj_join(PredictionMatrix(10, 15), pool, r, s, counting_joiner)
        assert disk.stats.transfers == 0
        assert outcome.pairs == []


class TestStreamingBranch:
    def test_lemma1_read_count(self, disk, datasets):
        """When neither side fits, reads = e + min(r, c) exactly."""
        r, s = datasets
        pool = BufferPool(disk, capacity=3)  # forces the streaming branch
        matrix = PredictionMatrix(10, 15)
        entries = [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2), (3, 0), (3, 3)]
        for row, col in entries:
            matrix.mark(row, col)
        e = len(entries)
        marked_rows, marked_cols = 4, 4
        outcome = pm_nlj_join(matrix, pool, r, s, counting_joiner)
        assert disk.stats.transfers == e + min(marked_rows, marked_cols)
        assert sorted(outcome.pairs) == sorted(entries)

    def test_streams_smaller_marked_side(self, disk, datasets):
        r, s = datasets
        pool = BufferPool(disk, capacity=2)  # neither side fits in B - 1 = 1
        matrix = PredictionMatrix(10, 15)
        # 2 marked rows, 5 marked cols: rows become the outer side.
        for col in range(5):
            matrix.mark(0, col)
            matrix.mark(7, col)
        outcome = pm_nlj_join(matrix, pool, r, s, counting_joiner)
        assert disk.stats.transfers == 10 + 2  # e + min(r, c)

    def test_self_join_diagonal_page_reused(self, disk, datasets):
        r, _ = datasets  # R has 10 pages
        pool = BufferPool(disk, capacity=2)
        matrix = PredictionMatrix(10, 10)
        for row in range(5):
            matrix.mark(row, row)      # diagonal entries
            matrix.mark(row, row + 5)  # force the streaming branch
        outcome = pm_nlj_join(matrix, pool, r, r, counting_joiner)
        # Diagonal partners are served from the streamed page itself.
        assert outcome.pages_reused == 5


class TestExampleOne:
    def test_paper_example_1(self, disk):
        """Example 1: 5 marked entries over 3 rows x 2 cols -> 7 reads.

        (Axes follow the paper's count: the iterated side has 2 pages.)
        """
        r = VectorPagedDataset(np.zeros((8, 2)), objects_per_page=2, dataset_id="R")
        s = VectorPagedDataset(np.zeros((8, 2)), objects_per_page=2, dataset_id="S")
        pool = BufferPool(disk, capacity=2)  # too small to pin either side
        matrix = PredictionMatrix(4, 4)
        # 2 marked rows, 3 marked cols, 5 entries.
        for row, col in [(0, 0), (0, 2), (0, 3), (1, 1), (1, 2)]:
            matrix.mark(row, col)
        pm_nlj_join(matrix, pool, r, s, counting_joiner)
        assert disk.stats.transfers == 5 + 2
