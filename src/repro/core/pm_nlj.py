"""pm-NLJ: nested-loop join restricted to marked page pairs (Figure 4).

The simplest use of the prediction matrix: iterate like block NLJ, but
only ever read pages that appear in a marked entry.

* If all marked pages of one side fit into ``B − 1`` buffer frames, read
  them once and stream the other side's marked pages past them — exactly
  ``m_s + m_r`` reads.
* Otherwise stream one marked page of the outer (smaller-marked) side at a
  time and pull the inner side's marked partners through an LRU buffer of
  ``B − 1`` frames; Lemma 1 lower-bounds this at ``e + min(r, c)`` reads
  per dense region (LRU reuse across consecutive outer pages can do
  better on overlapping regions).
"""

from __future__ import annotations

from repro.core.executor import ExecutionOutcome
from repro.core.joiners import PagePairJoiner
from repro.core.prediction import PredictionMatrix
from repro.storage.buffer import BufferPool
from repro.storage.page import PagedDataset

__all__ = ["pm_nlj_join"]


def pm_nlj_join(
    matrix: PredictionMatrix,
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    joiner: PagePairJoiner,
) -> ExecutionOutcome:
    """Join every marked page pair of ``matrix``; returns measurements.

    Each streamed page's marked entries are joined by one
    :meth:`~repro.core.joiners.PagePairJoiner.join_cluster` call after its
    partners' reads: the joiner reads objects through the page views, so
    only the reads and fetches below move the simulated accounting.
    """
    pool.attach(r_dataset)
    pool.attach(s_dataset)
    outcome = ExecutionOutcome()
    marked_rows = matrix.marked_rows()
    marked_cols = matrix.marked_cols()
    if not marked_rows:
        return outcome
    capacity = pool.capacity

    if len(marked_cols) <= capacity - 1:
        _pinned_side_join(
            matrix, pool, r_dataset, s_dataset, joiner, outcome, pin_cols=True
        )
    elif len(marked_rows) <= capacity - 1:
        _pinned_side_join(
            matrix, pool, r_dataset, s_dataset, joiner, outcome, pin_cols=False
        )
    else:
        _streaming_join(matrix, pool, r_dataset, s_dataset, joiner, outcome)
    return outcome


def _pinned_side_join(
    matrix: PredictionMatrix,
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    joiner: PagePairJoiner,
    outcome: ExecutionOutcome,
    pin_cols: bool,
) -> None:
    """One side's marked pages fit in buffer: load once, stream the other.

    The streamed pages bypass the pool (each is used for one iteration
    only), so the pinned side is never evicted — this is Figure 4's
    "read all of them into buffer" branch.
    """
    # marked_rows()/marked_cols() return the matrix's cached sorted views;
    # loops below may call them repeatedly at no re-sorting cost.
    r_id, s_id = r_dataset.dataset_id, s_dataset.dataset_id
    if pin_cols:
        pinned_keys = [(s_id, col) for col in matrix.marked_cols()]
        stream_pages = matrix.marked_rows()
        stream_id, pinned_id = r_id, s_id
    else:
        pinned_keys = [(r_id, row) for row in matrix.marked_rows()]
        stream_pages = matrix.marked_cols()
        stream_id, pinned_id = s_id, r_id

    # A real pin scope, not just the docstring's promise: the side fits in
    # B − 1 frames by the caller's branch condition, streamed pages bypass
    # the pool, and partner fetches all hit — so the pins never change the
    # accounting; they assert the "never evicted" invariant structurally.
    with pool.pinned(pinned_keys) as staged:
        outcome.pages_read += len(staged.missing)
        outcome.pages_reused += len(pinned_keys) - len(staged.missing)

        for page in stream_pages:
            if pool.contains(stream_id, page):
                # Self join: the page arrived with the pinned side already.
                pool.fetch(stream_id, page)
                outcome.pages_reused += 1
            else:
                pool.disk.read(stream_id, page)
                outcome.pages_read += 1
            partners = matrix.row_cols(page) if pin_cols else matrix.col_rows(page)
            pool.replay_hits([(pinned_id, partner) for partner in partners])
            outcome.absorb(joiner.join_cluster(_entries(page, partners, pin_cols)))


def _streaming_join(
    matrix: PredictionMatrix,
    pool: BufferPool,
    r_dataset: PagedDataset,
    s_dataset: PagedDataset,
    joiner: PagePairJoiner,
    outcome: ExecutionOutcome,
) -> None:
    """Neither side fits: stream the smaller-marked side's pages one by one.

    For each outer page, its marked partners are read as a fresh block
    (ascending page order, so runs of consecutive pages stay sequential).
    Per Figure 4 and Example 1 of the paper, the partner block is *not*
    retained across outer iterations — pm-NLJ's floor is exactly Lemma 1's
    ``e + min(r, c)`` reads; holding partners over is the job of the
    clustering techniques, not of pm-NLJ.
    """
    r_id, s_id = r_dataset.dataset_id, s_dataset.dataset_id
    rows_outer = len(matrix.marked_rows()) <= len(matrix.marked_cols())
    disk = pool.disk
    outer_pages = matrix.marked_rows() if rows_outer else matrix.marked_cols()
    outer_id = r_id if rows_outer else s_id
    inner_id = s_id if rows_outer else r_id

    for page in outer_pages:
        disk.read(outer_id, page)
        outcome.pages_read += 1
        partners = matrix.row_cols(page) if rows_outer else matrix.col_rows(page)
        for partner in partners:  # ascending: consecutive partners run sequentially
            if inner_id == outer_id and partner == page:
                outcome.pages_reused += 1
            else:
                disk.read(inner_id, partner)
                outcome.pages_read += 1
        outcome.absorb(joiner.join_cluster(_entries(page, partners, rows_outer)))


def _entries(page: int, partners, page_is_row: bool):
    """The marked ``(row, col)`` entries of one outer page, partner order."""
    if page_is_row:
        return [(page, partner) for partner in partners]
    return [(partner, page) for partner in partners]
