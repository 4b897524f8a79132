"""Page-pair join kernels.

A *joiner* receives a set of marked page pairs, finds the actual joining
object pairs of each, and reports comparison counts plus modeled CPU
seconds.  All join methods share one joiner per dataset pair, which is
what makes their result sets — and their CPU-join costs on identical page
workloads — exactly comparable.

Two kernels exist:

* numeric — vector/window payloads joined by an L_p distance or banded DTW;
* text — window strings pre-filtered by the frequency distance (the
  MRS-index object-level filter), then verified with banded edit distance.
  The expensive DP is only charged for pairs that survive the filter.

Every join method calls :meth:`~PagePairJoiner.join_cluster` with a set
of marked page pairs — every scheduled page pair of a join (or of one
shard), or one outer page and its partners.  The call stacks the
datasets' columnar page views
(:meth:`~repro.storage.page.PagedDataset.pages_view`), computes the
per-object inputs (squared norms, both sides' Keogh envelopes, centres
and radii, frequency counts) once, and runs a single filter-and-refine
cascade with a shared threshold: the filter runs over sparse *panels*
(one left page against a run of its marked col pages, all of one
size), reads each panel's decisions in entry-blocked order so the
survivors come out grouped by entry without a sort, and the refine
stages take the surviving candidates in fixed-size chunks as the panels
produce them.  An L2 join's panels decide their cells outright with one
BLAS product each, save the few inside the Gram form's rounding band,
so its cascade has no refine stage.  Apart from the per-object inputs
the cascade's transient memory is bounded by ``_PANEL_CELLS`` and
``_CHUNK_BYTES``, not by the number of entries or candidates.  It
returns one :class:`ClusterResult`: every accepted pair as one
``(k, 2)`` int64 array grouped by entry, plus per-entry count,
comparison and CPU arrays.  Entry ``k``'s rows and values equal joining
that page pair on its own — the frozen per-page-pair kernels in
``tests/oracles/joiners.py`` — bit for bit, whichever entries share the
call, and one cascade adds the same semantic counters.  Pairs stay
arrays all the way to the caller:
:class:`~repro.core.executor.ExecutionOutcome` concatenates the absorbed
arrays once into the array behind the join's
:class:`~repro.core.pairs.ResultPairs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.costmodel import CostModel
from repro.distance.dtw import DTWDistance
from repro.distance.vector import MinkowskiDistance
from repro.kernels.backends import KERNELS
from repro.kernels.dtw import (
    dtw_batch, envelope_centres, lb_keogh_gathered, lb_keogh_limit,
)
from repro.kernels.edit import edit_batch
from repro.kernels.minkowski import (
    euclidean_augmented, euclidean_panel_decisions, minkowski_refine,
)
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.storage.page import PageBlock, PagedDataset, SequencePagedDataset

__all__ = [
    "ClusterResult",
    "make_keogh_filter",
    "make_fd_filter",
    "text_dp_weight",
    "NumericPagePairJoiner",
    "TextPagePairJoiner",
]

Entry = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class ClusterResult:
    """What one :meth:`PagePairJoiner.join_cluster` call found.

    ``pairs`` is an ``(n, 2)`` int64 array of global ``(r_id, s_id)``
    pairs, grouped by entry in entry order; each entry's rows keep the
    order joining its page pair alone lists them.  With
    ``collect_pairs=False`` it has no rows, but ``counts`` stays exact —
    large experiments only need cardinalities.  ``counts``,
    ``comparisons`` (int64) and ``cpu`` (float64 modeled seconds) hold
    one value per entry.  Every array owns its memory, so a shard worker
    can return the result after unmapping its shared segments.
    """

    pairs: np.ndarray
    counts: np.ndarray
    comparisons: np.ndarray
    cpu: np.ndarray

    @classmethod
    def from_columns(
        cls,
        g_r: np.ndarray,
        g_s: np.ndarray,
        counts,
        comparisons,
        cpu,
        collect_pairs: bool = True,
    ) -> "ClusterResult":
        """Pairs ``(g_r[k], g_s[k])``, already grouped by entry, plus the
        per-entry values; without ``collect_pairs`` the pairs are dropped."""
        pairs = (
            np.column_stack((g_r, g_s))
            if collect_pairs
            else np.empty((0, 2), dtype=np.int64)
        )
        return cls(
            pairs,
            np.asarray(counts, dtype=np.int64),
            np.asarray(comparisons, dtype=np.int64),
            np.asarray(cpu, dtype=np.float64),
        )

    @classmethod
    def empty(cls, num_entries: int) -> "ClusterResult":
        """No pairs, no comparisons and no CPU for ``num_entries`` entries."""
        none = np.empty(0, dtype=np.int64)
        zeros = np.zeros(num_entries, dtype=np.int64)
        return cls.from_columns(none, none, zeros, zeros, zeros)

    def split(self, sizes: Sequence[int]) -> List["ClusterResult"]:
        """Consecutive groups of ``sizes`` entries, each its own result.

        Every array of every part owns its memory (a shard worker ships
        the parts after unmapping its shared segments).
        """
        entry_bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        pair_bounds = np.concatenate(([0], np.cumsum(self.counts)))[entry_bounds]
        if not self.pairs.shape[0]:
            pair_bounds[:] = 0
        return [
            ClusterResult(
                self.pairs[p0:p1].copy(),
                self.counts[e0:e1].copy(),
                self.comparisons[e0:e1].copy(),
                self.cpu[e0:e1].copy(),
            )
            for e0, e1, p0, p1 in zip(
                entry_bounds[:-1], entry_bounds[1:], pair_bounds[:-1], pair_bounds[1:]
            )
        ]


# ``(left_slice, panel_j) -> bool decisions``: a row-major
# ``(len(left_slice), len(panel_j))`` matrix (make_keogh_filter,
# make_fd_filter).
CellFilter = Callable[[slice, np.ndarray], np.ndarray]
# ``(left_slice, panel_j, k) -> bool decisions`` in entry-blocked
# order, see _ClusterBlock.filtered_cells.
PanelFilter = Callable[[slice, np.ndarray, int], np.ndarray]
# One candidate chunk: stacked left rows, stacked right rows and the
# sorted position (see _ClusterBlock) of the entry owning each cell.
Candidates = Tuple[np.ndarray, np.ndarray, np.ndarray]
# One global (r_id, s_id) pair as a single 16-byte item, for scattering
# whole rows of an (n, 2) int64 array.
_PAIR_ITEM = np.dtype((np.void, 16))

# A panel covers one left page and a run of its marked col pages of at
# most this many cells (plus one page pair); the page's further col
# pages start the next panel, and so does a col page of another size.
# It bounds the decision array and the filter temporaries however many
# col pages a left page has marked.
_PANEL_CELLS = 1 << 16
# The stages after the filter (diagonal drop, exact L_p refine for p ≠ 2,
# Hamming test, DTW and edit DPs) take the candidates in chunks as the panels
# produce them: as many candidates as gather this many bytes of objects,
# both sides (see _chunk_pairs).  Their temporaries stay bounded however
# many candidates a cascade's filter keeps.
_CHUNK_BYTES = 1 << 19


class _ClusterBlock:
    """Stacked columnar geometry of a set of marked page pairs.

    Builds the left/right :class:`~repro.storage.page.PageBlock` views
    (one gather per side at most) and lays the entries out sorted by
    ``(row, col)``: entry ``order[p]`` sits at *position* ``p``, and the
    cascade tags every candidate cell with its entry's position.  Panels
    are runs of positions: one left page against a run of its marked col
    pages (see ``_PANEL_CELLS``), so filter work is proportional to the
    marked region and no array is sized by left pages × right pages.
    Every panel is *uniform* — its ``k`` col pages hold ``c`` objects
    each (a panel ends where the col page size changes, which in
    practice isolates each dataset's short last page) — so its
    ``(n, k·c)`` cells read as ``(k, n, c)``: entry-blocked order, the
    order the cascade's stream needs, with no regrouping sort.
    """

    def __init__(
        self,
        entries: Sequence[Entry],
        r_dataset: PagedDataset,
        s_dataset: PagedDataset,
        self_join: bool,
    ) -> None:
        k = len(entries)
        pages = np.array(entries, dtype=np.int64).reshape(k, 2)
        rows, row_idx = np.unique(pages[:, 0], return_inverse=True)
        cols, col_idx = np.unique(pages[:, 1], return_inverse=True)
        self.r_block: PageBlock = r_dataset.pages_view(rows)
        self.s_block: PageBlock = s_dataset.pages_view(cols)
        self.num_entries = k
        # Per-entry object-pair counts, in entry order — a numeric
        # entry's `comparisons`.
        self.cells = self.r_block.counts[row_idx] * self.s_block.counts[col_idx]
        self.order = np.lexsort((col_idx, row_idx))
        self._row = row_idx[self.order]
        self._col = col_idx[self.order]
        # Per position: the (r, s) shifts that turn stacked rows into
        # global ids, and whether the entry is a self join's diagonal
        # page pair.
        self._shifts = np.column_stack((
            (self.r_block.global_starts - self.r_block.starts)[self._row],
            (self.s_block.global_starts - self.s_block.starts)[self._col],
        ))
        self._diagonal = (rows[self._row] == cols[self._col]) & self_join
        self._has_diagonal = bool(self._diagonal.any())
        # Kept survivors wait for grouped_pairs as packed rows of stacked
        # indices and positions, in the narrowest integer that holds them.
        largest = max(self.r_block.total_objects, self.s_block.total_objects, k)
        self._kept_dtype = np.int32 if largest <= np.iinfo(np.int32).max else np.int64
        # Panel bounds: a new panel at each new left page, wherever a
        # left page's col run crosses a multiple of its column budget,
        # and wherever the col page size changes.
        widths = self.s_block.counts[self._col]
        new_row = np.ones(k, dtype=bool)
        new_row[1:] = self._row[1:] != self._row[:-1]
        before = np.cumsum(widths) - widths
        run_start = np.maximum.accumulate(np.where(new_row, np.arange(k), 0))
        budget = np.maximum(1, _PANEL_CELLS // self.r_block.counts[self._row])
        part = (before - before[run_start]) // budget
        new_panel = new_row.copy()
        new_panel[1:] |= (part[1:] != part[:-1]) | (widths[1:] != widths[:-1])
        self._bounds = np.append(np.flatnonzero(new_panel), k)

    def by_entry(self, values: np.ndarray) -> np.ndarray:
        """Per-position ``values`` rearranged into entry order."""
        out = np.empty_like(values)
        out[self.order] = values
        return out

    def candidates(self, panel_filter: Optional[PanelFilter]) -> Iterator[Candidates]:
        """Every panel's :meth:`filtered_cells`, panel by panel.

        The stream is sorted by position, and each entry's cells run
        row-major — the order joining its page pair alone enumerates
        them in.
        """
        for panel in range(self._bounds.shape[0] - 1):
            yield self.filtered_cells(panel_filter, panel)

    def filtered_cells(
        self, panel_filter: Optional[PanelFilter], panel: int
    ) -> Candidates:
        """Stacked ``(cand_i, cand_j, pos)`` of one panel's cells, filtered.

        The panel's cells are the rectangle of its left page's ``n``
        stacked rows (``left_slice``) × ``panel_j``, the stacked rows of
        its ``k`` col pages of ``c`` objects each, ascending.
        ``panel_filter(left_slice, panel_j, k)`` returns the boolean
        decisions in entry-blocked order, shaped ``(k, n, c)``: cell
        ``[e, i, j]`` pairs row ``i`` with object ``j`` of the panel's
        ``e``-th col page.  One ``flatnonzero`` over them lists the
        surviving cells grouped by entry in position order, each entry's
        row-major, and two scalar ``divmod`` calls decode them; ``None``
        keeps every cell, enumerated in the same order.
        """
        lo, hi = int(self._bounds[panel]), int(self._bounds[panel + 1])
        row = self._row[lo]
        start = int(self.r_block.starts[row])
        n = int(self.r_block.counts[row])
        k, c = hi - lo, int(self.s_block.counts[self._col[lo]])
        col_starts = self.s_block.starts[self._col[lo:hi]]
        if panel_filter is None:
            shape = (k, n, c)
            rows = np.arange(start, start + n)[:, None]
            cols = (col_starts[:, None] + np.arange(c))[:, None, :]
            return (
                np.broadcast_to(rows, shape).ravel(),
                np.broadcast_to(cols, shape).ravel(),
                np.repeat(np.arange(lo, hi), n * c),
            )
        panel_j = (col_starts[:, None] + np.arange(c)).ravel()
        kept = np.flatnonzero(panel_filter(slice(start, start + n), panel_j, k))
        entry, rest = np.divmod(kept, n * c)
        cand_i, cand_j = np.divmod(rest, c)
        cand_i += start
        cand_j += col_starts[entry]
        entry += lo
        return cand_i, cand_j, entry

    def drop_diagonal(
        self, cand_i: np.ndarray, cand_j: np.ndarray, pos: np.ndarray
    ) -> Candidates:
        """Self-join diagonal filter: on row == col entries keep ``a < b``.

        Global ids preserve local order within one page, so the page-local
        ``local_a < local_b`` test is exactly ``global_a < global_b``.
        """
        if not self._has_diagonal:
            return cand_i, cand_j, pos
        shift = self._shifts[pos]
        keep = ~self._diagonal[pos] | (cand_i + shift[:, 0] < cand_j + shift[:, 1])
        return cand_i[keep], cand_j[keep], pos[keep]

    def keep(
        self, cand_i: np.ndarray, cand_j: np.ndarray, pos: np.ndarray
    ) -> np.ndarray:
        """Survivor cells packed for :meth:`grouped_pairs`: one ``(3, n)``
        array of the narrowest integer type that holds them."""
        return np.array((cand_i, cand_j, pos), dtype=self._kept_dtype)

    def grouped_pairs(
        self, parts: Sequence[List[np.ndarray]], part_counts: Sequence[np.ndarray]
    ) -> np.ndarray:
        """Survivors as one ``(n, 2)`` global pair array grouped by entry.

        ``parts[q]`` lists survivor chunks packed by :meth:`keep`, in
        stream order (sorted by position), and ``part_counts[q][p]``
        counts its survivors at position ``p``.  Entries come in entry
        order; within an entry, part 0's rows come first, then part 1's,
        each in stream order.  One scatter per chunk places the rows — no
        sort over the survivors — and each chunk is dropped once placed:
        the chunk's global pairs are built in one contiguous buffer and
        moved as 16-byte items.
        """
        sizes = self.by_entry(sum(part_counts))
        before = (np.cumsum(sizes) - sizes)[self.order]
        out = np.empty((int(sizes.sum()), 2), dtype=np.int64)
        items = out.view(_PAIR_ITEM).reshape(-1)
        for chunks, counts in zip(parts, part_counts):
            base = before - (np.cumsum(counts) - counts)
            done = 0
            chunks.reverse()
            while chunks:
                cand_i, cand_j, pos = chunks.pop()
                dest = np.take(base, pos) + np.arange(done, done + pos.shape[0])
                rows = np.take(self._shifts, pos, axis=0)
                rows[:, 0] += cand_i
                rows[:, 1] += cand_j
                items[dest] = rows.view(_PAIR_ITEM).reshape(-1)
                done += pos.shape[0]
            before = before + counts
        return out


def _rechunk(parts: Iterable[Candidates], size: int) -> Iterator[Candidates]:
    """The stream ``parts`` re-cut into chunks of ``size`` rows, in order.

    Only the last chunk may be shorter.  At most ``size`` rows plus one
    part are held at a time.
    """
    pending: List[Candidates] = []
    count = 0
    for part in parts:
        if not part[0].shape[0]:
            continue
        pending.append(part)
        count += part[0].shape[0]
        if count < size:
            continue
        cols = _concat(pending)
        lo = 0
        while count - lo >= size:
            yield tuple(col[lo : lo + size] for col in cols)
            lo += size
        pending = [tuple(col[lo:] for col in cols)] if lo < count else []
        count -= lo
    if pending:
        yield _concat(pending)


def _chunk_pairs(left: np.ndarray, right: np.ndarray) -> int:
    """Candidates per post-filter chunk for these stacked objects."""
    row_bytes = left.shape[1] * left.itemsize + right.shape[1] * right.itemsize
    return max(1, _CHUNK_BYTES // max(1, row_bytes))


def _concat(parts: Sequence[Candidates]) -> Candidates:
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _read_blocked(cell_filter: CellFilter) -> PanelFilter:
    """``cell_filter``'s row-major ``(n, k·c)`` decisions as a panel
    filter: the ``(k, n, c)`` transposed view of them, which the panel's
    ``flatnonzero`` copies once."""

    def panel_filter(rows: slice, panel_j: np.ndarray, groups: int) -> np.ndarray:
        decisions = cell_filter(rows, panel_j)
        return decisions.reshape(decisions.shape[0], groups, -1).transpose(1, 0, 2)

    return panel_filter


def _count_into(counts: np.ndarray, pos: np.ndarray) -> None:
    """Add one to ``counts[p]`` for every ``p`` of the ascending ``pos``."""
    if pos.shape[0]:
        lo, hi = int(pos[0]), int(pos[-1]) + 1
        counts[lo:hi] += np.bincount(pos - lo, minlength=hi - lo)


def make_keogh_filter(
    left: np.ndarray, right: np.ndarray, band: int, epsilon: float
) -> CellFilter:
    """Cell filter deciding LB_Keogh in both directions.

    A cell ``(i, j)`` passes when ``LB_Keogh(left[i], envelope(right[j]))``
    and ``LB_Keogh(right[j], envelope(left[i]))`` are both within
    :func:`~repro.kernels.dtw.lb_keogh_limit` — ε widened just enough
    that no pair whose computed DTW is within ε fails on rounding.
    Four stages per panel, each on what the one before kept:

    1. the forward centre–radius bound ``‖left[i] − c_j‖ ≤ λ + ‖r_j‖``,
       one Gram product against the right envelopes' centres;
    2. the reverse bound ``‖right[j] − c_i‖ ≤ λ + ‖r_i‖`` on the
       columns the forward bound passed;
    3. forward LB_Keogh (``lb_keogh_panel``) on the columns where some
       cell passed both bounds;
    4. reverse LB_Keogh (``lb_keogh_gathered``) on the cells forward
       LB_Keogh kept.

    The bounds keep every cell LB_Keogh keeps
    (:func:`repro.kernels.dtw.envelope_centres` has the proof and the
    rounding margins); a bound is skipped when its squared norms
    overflow.  The decisions equal LB_Keogh ``<= λ`` in both directions
    over the whole panel, cell for cell (the block form frozen in
    ``tests/oracles/kernels.py`` is the oracle).
    Envelopes, centres and norms are computed once, for every stacked
    window of each side.
    """
    limit = lb_keogh_limit(epsilon, left.shape[1])
    right_lowers, right_uppers = KERNELS.batch_envelopes(right, band)
    left_lowers, left_uppers = KERNELS.batch_envelopes(left, band)
    right_centres, right_radii = envelope_centres(right_lowers, right_uppers)
    left_centres, left_radii = envelope_centres(left_lowers, left_uppers)
    right_reach = limit + right_radii
    left_reach = limit + left_radii
    # Squared norms near the top of the float range (window values past
    # ~1e150) overflow the Gram form into inf − inf; each direction's
    # bound is then skipped, and LB_Keogh, which squares only gaps,
    # decides.
    with np.errstate(over="ignore"):
        left_sq = np.einsum("iw,iw->i", left, left)
        right_sq = np.einsum("jw,jw->j", right, right)
        right_centre_sq = np.einsum("jw,jw->j", right_centres, right_centres)
        left_centre_sq = np.einsum("iw,iw->i", left_centres, left_centres)
        forward_bounded = np.isfinite(
            4.0 * (left_sq.max(initial=0.0) + right_centre_sq.max(initial=0.0))
        )
        reverse_bounded = np.isfinite(
            4.0 * (right_sq.max(initial=0.0) + left_centre_sq.max(initial=0.0))
        )

    def keogh_filter(sl: slice, panel_j: np.ndarray) -> np.ndarray:
        rows = left[sl]
        out = np.zeros((rows.shape[0], panel_j.shape[0]), dtype=bool)
        cols = np.arange(panel_j.shape[0])
        near: Optional[np.ndarray] = None
        if forward_bounded:
            near = KERNELS.euclidean_gram_panel(
                rows, right_centres[panel_j], left_sq[sl],
                right_centre_sq[panel_j], right_reach[panel_j],
            )
            cols = np.flatnonzero(near.any(axis=0))
            near = near[:, cols]
        if reverse_bounded and cols.size:
            pc = panel_j[cols]
            back = KERNELS.euclidean_gram_panel(
                right[pc], left_centres[sl], right_sq[pc], left_centre_sq[sl],
                left_reach[sl],
            ).T
            near = back if near is None else near & back
            hit = near.any(axis=0)
            cols, near = cols[hit], near[:, hit]
        if not cols.size:
            return out
        pc = panel_j[cols]
        kept = (
            KERNELS.lb_keogh_panel(rows, right_lowers[pc], right_uppers[pc]) <= limit
        )
        if near is not None:
            # A cell a bound rejected fails LB_Keogh too; keep it out of
            # the gather.
            kept &= near
        ci, cj = np.nonzero(kept)
        kept[ci, cj] = (
            lb_keogh_gathered(right, left_lowers, left_uppers, pc[cj], ci + sl.start)
            <= limit
        )
        out[:, cols] = kept
        return out

    return keogh_filter


def make_fd_filter(
    left_features: np.ndarray,
    right_features: np.ndarray,
    epsilon: float,
    window_length: int,
) -> CellFilter:
    """Cell filter deciding ``FD(left[i], right[j]) <= ε`` in integers.

    Frequency vectors are exact symbol counts, and every window's counts
    sum to ``window_length`` on both sides, so FD is exactly half their
    L1 distance — an integer of at most ``2·window_length`` — and
    ``FD ≤ ε ⇔ L1 ≤ ⌊2ε⌋``.  Each panel sums ``|fr_a − fs_a|`` one letter
    at a time, a 2-D integer broadcast per letter, in the narrowest of
    int16/int32 that holds ``2·window_length``.  For such counts the
    decisions equal the float form ``0.5·Σ_a |fs_a − fr_a| <= ε`` exactly.
    """
    limit = int(np.floor(min(2.0 * epsilon, 2.0 * window_length)))
    dtype = np.int16 if 2 * window_length <= np.iinfo(np.int16).max else np.int32
    left_counts = np.ascontiguousarray(left_features.T, dtype=dtype)
    right_counts = np.ascontiguousarray(right_features.T, dtype=dtype)

    def fd_filter(sl: slice, panel_j: np.ndarray) -> np.ndarray:
        rows = left_counts[:, sl]
        cols = right_counts[:, panel_j]
        l1 = np.zeros((rows.shape[1], cols.shape[1]), dtype=dtype)
        for fr_a, fs_a in zip(rows, cols):
            diff = np.subtract.outer(fr_a, fs_a)
            np.abs(diff, out=diff)
            l1 += diff
        return l1 <= limit

    return fd_filter


class PagePairJoiner:
    """The joiner interface every join method and executor calls."""

    def join_cluster(self, entries: Sequence[Entry]) -> ClusterResult:
        """One fused cascade over non-empty, distinct page pairs.

        Returns one :class:`ClusterResult` whose entry ``k`` is
        bit-identical to joining ``entries[k]`` on its own.
        """
        raise NotImplementedError


class NumericPagePairJoiner(PagePairJoiner):
    """Joiner for vector pages (point, spatial, time-series windows).

    Raises ``ValueError`` for a distance other than
    :class:`~repro.distance.vector.MinkowskiDistance` or
    :class:`~repro.distance.dtw.DTWDistance` — the two families the
    cascade has filters for.
    """

    def __init__(
        self,
        r_dataset: PagedDataset,
        s_dataset: PagedDataset,
        distance: "MinkowskiDistance | DTWDistance",
        epsilon: float,
        cost_model: CostModel,
        self_join: bool,
        collect_pairs: bool = True,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        if not isinstance(distance, (MinkowskiDistance, DTWDistance)):
            raise ValueError(
                "numeric joins need a MinkowskiDistance or DTWDistance, "
                f"got {distance!r}"
            )
        self.r_dataset = r_dataset
        self.s_dataset = s_dataset
        self.distance = distance
        self.epsilon = epsilon
        self.cost_model = cost_model
        self.self_join = self_join
        self.collect_pairs = collect_pairs
        self.recorder = recorder

    def join_cluster(self, entries: Sequence[Entry]) -> ClusterResult:
        recorder = self.recorder
        with recorder.span("execute.megabatch", entries=len(entries)):
            block = _ClusterBlock(
                entries, self.r_dataset, self.s_dataset, self.self_join
            )
            tally = {"candidates": 0, "accepted": 0}
            if isinstance(self.distance, MinkowskiDistance):
                stream = self._minkowski_cascade(block, tally)
            else:
                stream = self._dtw_cascade(block, tally)
            found = np.zeros(block.num_entries, dtype=np.int64)
            kept: List[np.ndarray] = []
            for chunk in stream:
                chunk = block.drop_diagonal(*chunk)
                _count_into(found, chunk[2])
                if self.collect_pairs:
                    kept.append(block.keep(*chunk))
            pairs = (
                block.grouped_pairs([kept], [found])
                if self.collect_pairs
                else np.empty((0, 2), dtype=np.int64)
            )
            cpu = self.cost_model.cpu_cost(
                block.cells, self.distance.comparison_weight
            )
            result = ClusterResult(
                pairs, block.by_entry(found), block.cells,
                np.asarray(cpu, dtype=np.float64),
            )
        if recorder.enabled:
            tested = int(block.cells.sum())
            recorder.count("refine.page_pairs", block.num_entries)
            recorder.count("refine.comparisons", tested)
            recorder.count("refine.pairs_found", int(found.sum()))
            if isinstance(self.distance, MinkowskiDistance):
                recorder.count("kernel.minkowski.invocations")
                recorder.count("kernel.minkowski.pairs_tested", tested)
                if self.distance.p == 2.0:
                    recorder.count(
                        "kernel.minkowski.gram_candidates", tally["candidates"]
                    )
                recorder.count("kernel.minkowski.accepted", tally["accepted"])
            else:
                recorder.count("kernel.dtw.pairs_tested", tested)
                recorder.count("kernel.dtw.keogh_candidates", tally["candidates"])
                if tally["candidates"]:
                    recorder.count("kernel.dtw.invocations")
        return result

    def _minkowski_cascade(
        self, block: _ClusterBlock, tally: Dict[str, int]
    ) -> Iterator[Candidates]:
        """Yields the accepted cells.  For p = 2 the panels decide them
        (:func:`~repro.kernels.minkowski.euclidean_panel_decisions`: one
        BLAS product of the augmented rows per panel, whose Gram values
        decide every cell outside their rounding band, and only band
        cells take the exact difference form); otherwise, or where the
        Gram form overflows, every marked cell goes through the exact
        refine, chunk by chunk."""
        eps = self.epsilon
        p = self.distance.p
        left = block.r_block.objects
        right = block.s_block.objects
        size = _chunk_pairs(left, right)
        augmented = euclidean_augmented(left, right, eps) if p == 2.0 else None
        if augmented is not None:
            left_aug, right_aug = augmented

            def decide(sl: slice, panel_j: np.ndarray, groups: int) -> np.ndarray:
                decisions, kept = euclidean_panel_decisions(
                    left_aug[sl], right_aug[panel_j], eps, groups
                )
                tally["candidates"] += kept
                return decisions

            for chunk in _rechunk(block.candidates(decide), size):
                tally["accepted"] += chunk[0].shape[0]
                yield chunk
            return
        for cand_i, cand_j, pos in _rechunk(block.candidates(None), size):
            keep = minkowski_refine(left, right, cand_i, cand_j, eps, p)
            tally["candidates"] += cand_i.shape[0]
            tally["accepted"] += int(np.count_nonzero(keep))
            yield cand_i[keep], cand_j[keep], pos[keep]

    def _dtw_cascade(
        self, block: _ClusterBlock, tally: Dict[str, int]
    ) -> Iterator[Candidates]:
        """Two-way LB_Keogh panels (:func:`make_keogh_filter`), then the
        shared-abandon DP on the survivors in full ``_CHUNK_BYTES``
        chunks; yields the cells within ε."""
        eps = self.epsilon
        band = self.distance.band
        left = block.r_block.objects
        right = block.s_block.objects
        keogh_filter = _read_blocked(make_keogh_filter(left, right, band, eps))
        for cand_i, cand_j, pos in _rechunk(
            block.candidates(keogh_filter), _chunk_pairs(left, right)
        ):
            tally["candidates"] += cand_i.shape[0]
            dists = dtw_batch(
                left[cand_i], right[cand_j], band, max_dist=eps,
                recorder=self.recorder,
            )
            keep = dists <= eps
            yield cand_i[keep], cand_j[keep], pos[keep]


def text_dp_weight(window_length: int, epsilon: float) -> float:
    """CPU weight of one banded edit-distance run at threshold ``epsilon``."""
    band = max(1, int(epsilon))
    return float(window_length * (2 * band + 3))


class TextPagePairJoiner(PagePairJoiner):
    """Joiner for string windows: frequency filter, then banded DP.

    ``r_features`` / ``s_features`` are the MRS frequency vectors indexed
    by window offset; they live with the index (in memory), so consulting
    them costs CPU but no I/O.
    """

    def __init__(
        self,
        r_dataset: SequencePagedDataset,
        s_dataset: SequencePagedDataset,
        r_features: np.ndarray,
        s_features: np.ndarray,
        epsilon: float,
        cost_model: CostModel,
        self_join: bool,
        collect_pairs: bool = True,
        recorder: Recorder = NULL_RECORDER,
    ) -> None:
        self.r_dataset = r_dataset
        self.s_dataset = s_dataset
        self.r_features = r_features
        self.s_features = s_features
        self.epsilon = epsilon
        self.cost_model = cost_model
        self.self_join = self_join
        self.collect_pairs = collect_pairs
        self.recorder = recorder
        self.dp_weight = text_dp_weight(r_dataset.window_length, epsilon)
        self.limit = int(epsilon)
        self.w = r_dataset.window_length

    def join_cluster(self, entries: Sequence[Entry]) -> ClusterResult:
        recorder = self.recorder
        epsilon = self.epsilon
        with recorder.span("execute.megabatch", entries=len(entries)):
            block = _ClusterBlock(
                entries, self.r_dataset, self.s_dataset, self.self_join
            )
            k = block.num_entries
            W_left = block.r_block.objects
            W_right = block.s_block.objects
            chunk_pairs = _chunk_pairs(W_left, W_right)
            # Per position: frequency-filter candidates, DP runs, and the
            # pairs Hamming accepted and the DP kept.
            fd_runs, dp_runs, accepted, survived = (
                np.zeros(k, dtype=np.int64) for _ in range(4)
            )
            accepted_chunks: List[np.ndarray] = []
            survived_chunks: List[np.ndarray] = []

            def hamming_rejects() -> Iterator[Candidates]:
                # Stage 1 — frequency-distance filter over the panels
                # (global ids double as feature rows), then the diagonal
                # drop.  Stage 2 — Hamming filter; its rejects go on to
                # the banded DP when ε ≥ 2.
                fd_filter = _read_blocked(make_fd_filter(
                    self.r_features[block.r_block.global_ids],
                    self.s_features[block.s_block.global_ids],
                    epsilon, self.w,
                ))
                stream = (
                    block.drop_diagonal(*cells)
                    for cells in block.candidates(fd_filter)
                )
                for cand_i, cand_j, pos in _rechunk(stream, chunk_pairs):
                    _count_into(fd_runs, pos)
                    differ = W_left[cand_i] != W_right[cand_j]
                    ok = np.count_nonzero(differ, axis=1) <= epsilon
                    _count_into(accepted, pos[ok])
                    if self.collect_pairs:
                        accepted_chunks.append(
                            block.keep(cand_i[ok], cand_j[ok], pos[ok])
                        )
                    if self.limit >= 2:
                        yield cand_i[~ok], cand_j[~ok], pos[~ok]

            for cand_i, cand_j, pos in _rechunk(hamming_rejects(), chunk_pairs):
                _count_into(dp_runs, pos)
                dists = edit_batch(
                    W_left[cand_i], W_right[cand_j], self.limit, recorder=recorder
                )
                ok = dists <= epsilon
                _count_into(survived, pos[ok])
                if self.collect_pairs:
                    survived_chunks.append(block.keep(cand_i[ok], cand_j[ok], pos[ok]))

            # Per entry, Hamming-accepted pairs first, then DP survivors,
            # each in candidate order — the order a single page pair
            # appends them in.
            pairs = (
                block.grouped_pairs(
                    [accepted_chunks, survived_chunks], [accepted, survived]
                )
                if self.collect_pairs
                else np.empty((0, 2), dtype=np.int64)
            )
            cheap = block.cells
            fd_per_entry = block.by_entry(fd_runs)
            dp_per_entry = block.by_entry(dp_runs)
            comparisons = cheap + dp_per_entry
            model = self.cost_model
            cpu = (
                model.cpu_cost(cheap, 1.0)
                + model.cpu_cost(fd_per_entry, float(self.w) / 8.0)
                + model.cpu_cost(dp_per_entry, self.dp_weight)
            )
            found = block.by_entry(accepted + survived)
            result = ClusterResult(
                pairs, found, comparisons, np.asarray(cpu, dtype=np.float64)
            )
        if recorder.enabled:
            recorder.count("refine.page_pairs", k)
            recorder.count("refine.comparisons", int(comparisons.sum()))
            recorder.count("refine.pairs_found", int(found.sum()))
            recorder.count("text.fd_candidates", int(fd_runs.sum()))
            recorder.count("text.dp_runs", int(dp_runs.sum()))
            if dp_runs.any():
                recorder.count("kernel.edit.invocations")
        return result
