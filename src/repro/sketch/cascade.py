"""Scoring and calibration of the prefilter cascade.

The cascade sits between prediction-matrix construction and clustering.
:func:`plan_prefilter` fetches (or builds) both datasets' page
sketches, scores every marked cell with an estimated collision fraction,
and selects the cells to unmark under a mass budget calibrated against
the recall target (:func:`select_unmark`).  ``join`` unmarks them before
clustering.

Scores are *estimates*: quantile signatures estimate, per projection,
the fraction of a cell's object pairs that satisfy the projection's
necessary condition ``|u·a − u·b| <= eff_eps``; the minimum over
projections upper-estimates the cell's collision fraction.  Minhash
signatures estimate the Jaccard similarity of two text pages' gram
sets.  The recall contract is calibrated, measured
(:func:`measured_recall`) and reported, not proved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sketch.config import PrefilterConfig
from repro.sketch.signatures import PageSketches, build_sketches
from repro.storage.persist import sketch_cache_key

__all__ = [
    "PrefilterPlan",
    "plan_prefilter",
    "score_cells",
    "select_unmark",
    "measured_recall",
]

# Sizes a quantile scoring chunk: its ``(chunk · K, Q)`` float64 rows
# take at most this many bytes, so the chunk's targets, counts, gathered
# quantile points and CDF values stay in cache.  Every cell is scored
# independently, so the chunk size changes no value.
_SCORE_CELL_BUDGET = 1 << 18


@dataclass
class PrefilterPlan:
    """One join's scored cells plus the unmark selection.

    ``rows``/``cols``/``scores``/``sizes`` cover every marked cell at
    scoring time (row-major order, matching ``PredictionMatrix.to_coo``).
    ``unmark`` is a boolean mask over those cells; ``est_recall`` is the
    calibration's estimate of the surviving collision-mass fraction.
    """

    config: PrefilterConfig
    rows: np.ndarray
    cols: np.ndarray
    scores: np.ndarray
    sizes: np.ndarray
    unmark: np.ndarray
    est_recall: float

    @property
    def num_cells(self) -> int:
        return int(self.rows.shape[0])

    @property
    def num_unmarked(self) -> int:
        return int(np.count_nonzero(self.unmark))

    @property
    def total_mass(self) -> float:
        """Estimated collision mass over every scored cell (score × size)."""
        return float(np.dot(self.scores, self.sizes))

    @property
    def unmarked_mass(self) -> float:
        """Estimated collision mass the unmark selection gives up."""
        if not np.any(self.unmark):
            return 0.0
        return float(
            np.dot(self.scores[self.unmark], self.sizes[self.unmark])
        )

    @property
    def unmark_rows(self) -> np.ndarray:
        return self.rows[self.unmark]

    @property
    def unmark_cols(self) -> np.ndarray:
        return self.cols[self.unmark]


def effective_epsilon(dataset, epsilon: float) -> float:
    """The projection-domain threshold matching a join threshold.

    Unit-direction projections bound the *Euclidean* distance, so the
    join threshold must be converted before quantile scoring:

    * Minkowski ``p <= 2`` — ``‖Δ‖₂ <= ‖Δ‖_p``, so ``eff_eps = ε``.
    * Minkowski ``p > 2`` — ``‖Δ‖₂ <= d^(1/2 − 1/p) ‖Δ‖_p`` (norm
      equivalence in ``d`` dimensions), so the threshold widens by that
      factor.
    * Banded DTW — DTW is not bounded below by a fixed multiple of L2;
      ``ε·sqrt(2b + 1)`` widens the threshold by the band width's worst
      replication factor.  A heuristic, documented as such: DTW scores
      are ordering/calibration signals only.
    """
    from repro.distance.dtw import DTWDistance

    distance = dataset.distance
    if isinstance(distance, DTWDistance):
        return epsilon * math.sqrt(2.0 * distance.band + 1.0)
    p = float(distance.p)
    if p <= 2.0:
        return epsilon
    if dataset.kind == "vector":
        dim = int(dataset.paged.vectors.shape[1])
    else:
        dim = int(dataset.paged.window_length)
    return epsilon * dim ** (0.5 - 1.0 / p)


def _rowwise_cdf(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Linearly interpolated empirical CDF, evaluated row by row.

    ``q`` is ``(M, Q)`` with each row sorted (a page's quantile vector —
    its piecewise-linear inverse CDF); ``t`` is ``(M, T)`` evaluation
    points.  Returns ``F_row(t)`` in ``[0, 1]``.  Linear interpolation
    between quantile points is what keeps the estimator informative when
    the query window is narrower than the quantile spacing — a step CDF
    would quantise every window to multiples of ``1/Q``.

    A target with ``idx`` of its row's points strictly below it reads 0
    when ``idx == 0`` and 1 when ``idx == Q``.  Otherwise it lies in
    ``(q[idx − 1], q[idx]]``, a segment of positive length, so its
    fraction along the segment lies in ``[0, 1]`` with no clipping and
    no division by zero.
    """
    num_q = q.shape[1]
    if num_q == 1:
        return (t >= q).astype(np.float64)
    # One comparison pass per quantile point counts each target's row
    # points strictly below it — searchsorted's left position, exactly.
    idx = np.zeros(t.shape, dtype=np.min_scalar_type(num_q))
    below = np.empty(t.shape, dtype=bool)
    for j in range(num_q):
        np.less(q[:, j, None], t, out=below)
        idx += below
    cdf = (idx == num_q).astype(np.float64)
    inner = np.flatnonzero((idx > 0) & (idx < num_q))
    k = idx.ravel()[inner]
    # Flat position in ``q`` of each inner target's right point.
    right_at = inner // t.shape[1] * num_q + k
    flat_q = q.ravel()
    left = flat_q[right_at - 1]
    right = flat_q[right_at]
    cdf.ravel()[inner] = ((k - 1) + (t.ravel()[inner] - left) / (right - left)) / (
        num_q - 1
    )
    return cdf


def _window_fraction(qa: np.ndarray, qb: np.ndarray, eff_eps: float) -> np.ndarray:
    """Estimated ``P(|X − Y| <= eff_eps)`` per row, symmetrized.

    ``qa``/``qb`` are ``(M, Q)`` sorted quantile rows of the two pages'
    projections.  Each side's quantile points serve as samples of its
    distribution, evaluated against the other side's interpolated CDF:
    ``E_X[F_Y(X + ε) − F_Y(X − ε)]``, averaged over both directions.
    """
    f_ab = (_rowwise_cdf(qb, qa + eff_eps) - _rowwise_cdf(qb, qa - eff_eps)).mean(
        axis=1
    )
    f_ba = (_rowwise_cdf(qa, qb + eff_eps) - _rowwise_cdf(qa, qb - eff_eps)).mean(
        axis=1
    )
    return 0.5 * (f_ab + f_ba)


def score_cells(
    r_sketches: PageSketches,
    s_sketches: PageSketches,
    rows: np.ndarray,
    cols: np.ndarray,
    eff_eps: float,
) -> np.ndarray:
    """Estimated collision fraction of every ``(rows[k], cols[k])`` cell.

    Quantile sketches: per projection, the two pages' quantile vectors
    estimate ``P(|X − Y| <= eff_eps)`` for the projected coordinates
    (:func:`_window_fraction`) — the fraction of object pairs satisfying
    that projection's necessary condition; the cell score is the minimum
    over projections.  Minhash sketches: the fraction of equal signature
    components (the Jaccard estimate of the pages' gram sets);
    ``eff_eps`` is ignored.
    """
    if r_sketches.kind != s_sketches.kind:
        raise ValueError(
            f"cannot score across sketch kinds "
            f"{r_sketches.kind!r} and {s_sketches.kind!r}"
        )
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if r_sketches.kind == "minhash":
        eq = r_sketches.signatures[rows] == s_sketches.signatures[cols]
        return eq.mean(axis=1)
    num_cells = rows.shape[0]
    k = r_sketches.signatures.shape[1]
    q = r_sketches.signatures.shape[2]
    scores = np.empty(num_cells, dtype=np.float64)
    chunk = max(1, _SCORE_CELL_BUDGET // max(1, k * q * 8))
    for lo in range(0, num_cells, chunk):
        hi = min(lo + chunk, num_cells)
        qa = r_sketches.signatures[rows[lo:hi]].reshape(-1, q)  # (c·K, Q)
        qb = s_sketches.signatures[cols[lo:hi]].reshape(-1, q)
        fractions = _window_fraction(qa, qb, eff_eps).reshape(hi - lo, k)
        scores[lo:hi] = fractions.min(axis=1)
    return scores


def select_unmark(
    rows: np.ndarray,
    cols: np.ndarray,
    scores: np.ndarray,
    sizes: np.ndarray,
    recall_target: float,
    margin: float,
    cell_pair_floor: float = 0.5,
) -> Tuple[np.ndarray, float]:
    """Deterministic mass-budget selection of cells to unmark.

    Each cell's *mass* is ``score × size`` — its estimated number of
    result pairs.  Cells are taken in ascending score order (ties
    broken by coordinates, so the selection is deterministic) as long
    as the cumulative discarded mass stays within
    ``total_mass × (1 − recall_target) × margin``, and only while each
    cell's own mass stays below ``cell_pair_floor`` pairs.  The
    per-cell floor is what makes the budget robust to score-dependent
    estimator bias: on correlated data the *relative* masses of
    high-score cells can be inflated many-fold, which would otherwise
    let the proportional budget swallow low-score cells that each hold
    a real pair (a single pair in a cell of ``n`` object pairs always
    contributes ≈ ``1/n`` to every projection's window fraction, so
    its estimated mass stays near one pair).  Returns the boolean
    unmark mask and the estimated recall (surviving mass fraction).
    """
    mass = scores * sizes
    total = float(mass.sum())
    unmark = np.zeros(rows.shape[0], dtype=bool)
    if total <= 0.0 or rows.shape[0] == 0:
        # No estimated collision mass anywhere: the sketches carry no
        # ranking information, so conservatively keep every cell.
        return unmark, 1.0
    budget = total * (1.0 - recall_target) * margin
    order = np.lexsort((cols, rows, scores))
    # floor = 0 disables the per-cell guard (every cell is eligible).
    floor = cell_pair_floor if cell_pair_floor > 0.0 else np.inf
    eligible = mass[order] < floor
    discarded = np.cumsum(np.where(eligible, mass[order], 0.0))
    unmark[order[eligible & (discarded <= budget)]] = True
    if unmark.all():
        # Never empty the matrix outright; keep the best-scoring cell.
        unmark[order[-1]] = False
    est_recall = 1.0 - float(mass[unmark].sum()) / total
    return unmark, est_recall


def plan_prefilter(
    r,
    s,
    matrix,
    epsilon: float,
    config: PrefilterConfig,
    store=None,
    recorder: Recorder = NULL_RECORDER,
) -> PrefilterPlan:
    """Sketch both sides, score every marked cell, select cells to unmark.

    ``store`` is the join's :class:`~repro.serve.store.ResidentStore`,
    which caches the sketches next to the prediction matrix; ``None``
    always builds.  The matrix is **not** mutated here — the caller
    applies ``unmark_many(plan.unmark_rows, plan.unmark_cols)`` so the
    span accounting stays with ``join``.
    """
    r_sketches = _sketches_for(r, config, store, recorder)
    s_sketches = (
        r_sketches if s is r else _sketches_for(s, config, store, recorder)
    )
    rows, cols = matrix.to_coo()
    eff_eps = epsilon if r.kind == "text" else effective_epsilon(r, epsilon)
    scores = score_cells(r_sketches, s_sketches, rows, cols, eff_eps)
    sizes = r_sketches.counts[rows] * s_sketches.counts[cols]
    unmark, est_recall = select_unmark(
        rows,
        cols,
        scores,
        sizes,
        config.recall_target,
        config.margin,
        cell_pair_floor=config.cell_pair_floor,
    )
    if recorder.enabled:
        recorder.count("prefilter.cells_scored", int(rows.shape[0]))
        recorder.count("prefilter.cells_unmarked", int(np.count_nonzero(unmark)))
        recorder.count("prefilter.est_recall_ppm", int(round(est_recall * 1e6)))
        recorder.count(
            "prefilter.recall_target_ppm", int(round(config.recall_target * 1e6))
        )
    return PrefilterPlan(
        config=config,
        rows=rows,
        cols=cols,
        scores=scores,
        sizes=sizes,
        unmark=unmark,
        est_recall=est_recall,
    )


def _sketches_for(dataset, config, store, recorder: Recorder) -> PageSketches:
    """Load a dataset's sketches from the store, or build (and save) them."""
    key = None
    if store is not None:
        key = sketch_cache_key(dataset, config)
        cached = store.load_sketches(key)
        if cached is not None:
            if recorder.enabled:
                recorder.count("prefilter.sketch_cache_hits")
            return cached
        if recorder.enabled:
            recorder.count("prefilter.sketch_cache_misses")
    sketches = build_sketches(dataset, config)
    if recorder.enabled:
        recorder.count("prefilter.sketch_builds")
    if key is not None:
        store.save_sketches(sketches, key)
    return sketches


def measured_recall(
    reference, candidate, recorder: Recorder = NULL_RECORDER, explain=None
) -> float:
    """Recall of a (possibly approximate) join against a reference join.

    Accepts :class:`~repro.core.join.JoinResult` objects or plain pair
    collections.  With materialised pair lists on both sides the recall
    is set-based (``|ref ∩ cand| / |ref|``); count-only results fall
    back to the cardinality ratio, which equals recall whenever the
    candidate's result is a subset of the reference's (true of the
    prefilter, which only ever drops work).  Records the value as
    ``prefilter.recall_measured_ppm``.

    ``explain`` optionally names the *candidate* run's
    :class:`~repro.obs.explain.JoinExplain` artifact: the measured value
    is attached to its prefilter reconciliation
    (:meth:`~repro.obs.explain.JoinExplain.attach_measured_recall`),
    closing the estimated-vs-measured loop.
    """
    ref_pairs, ref_count = _pairs_and_count(reference)
    cand_pairs, cand_count = _pairs_and_count(candidate)
    if ref_count == 0:
        recall = 1.0
    elif ref_pairs is not None and cand_pairs is not None:
        recall = len(set(ref_pairs) & set(cand_pairs)) / ref_count
    else:
        recall = min(1.0, cand_count / ref_count)
    if recorder.enabled:
        recorder.count("prefilter.recall_measured_ppm", int(round(recall * 1e6)))
    if explain is not None:
        explain.attach_measured_recall(recall, recorder=recorder)
    return recall


def _pairs_and_count(result):
    pairs = getattr(result, "pairs", None)
    if pairs is not None and hasattr(result, "num_pairs"):
        count = int(result.num_pairs)
        return ([tuple(p) for p in pairs] if pairs else None), count
    pairs = [tuple(p) for p in result]
    return pairs, len(pairs)
