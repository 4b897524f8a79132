"""Batched L_p kernels: Gram-matrix prefilter, exact gathered refine.

The scalar reference for an epsilon test is the difference-tensor form
``sqrt(sum((l - r)**2))`` evaluated per chunk.  The Gram form
``|l|² + |r|² − 2 l·r`` runs through BLAS and never materialises the
``(n, m, d)`` temporary, but its rounding error makes identical points
nonzero-distant — unusable as the *decider* for ``epsilon = 0`` joins.
So it is used as a *filter*: candidates are kept when the Gram value is
within ``epsilon²`` plus a rigorous rounding margin, and only the
surviving pairs are re-evaluated exactly (gathered rows, difference
form).  The accepted pair set is therefore bit-identical to the scalar
reference while the bulk of the work is one matmul per chunk.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "minkowski_pairs",
    "minkowski_pair_arrays",
    "minkowski_pairwise",
    "euclidean_gram_panel",
    "minkowski_refine",
]

_DEFAULT_CHUNK_ROWS = 1024
# Refine stage gathers candidate pairs; bound its temporary the same way.
_CHUNK_PAIRS = 8192
# Mega-batch blocks stack many pages per side; bound the (chunk, cols)
# Gram temporary by cells instead of a fixed row count so memory stays
# flat however wide the block is.
_BLOCK_CELL_BUDGET = 1 << 22
# Relative rounding slack for the Gram filter.  A d-term float64 dot
# product accumulates error below d·u·(|l|²+|r|²) with u = 2⁻⁵³; 2⁻³⁰
# covers any realistic dimensionality (d up to ~10⁷) with room to spare,
# yet admits essentially no extra candidates.
_GRAM_SLACK = 2.0**-30


def minkowski_pairs(
    left: np.ndarray,
    right: np.ndarray,
    epsilon: float,
    p: float,
    chunk_rows: int = _DEFAULT_CHUNK_ROWS,
    recorder: Recorder = NULL_RECORDER,
) -> List[Tuple[int, int]]:
    """All ``(i, j)`` with ``||left[i] - right[j]||_p <= epsilon``.

    :func:`minkowski_pair_arrays` as a list of index tuples.
    """
    rows, cols = minkowski_pair_arrays(left, right, epsilon, p, chunk_rows, recorder)
    return list(zip(rows.tolist(), cols.tolist()))


def minkowski_pair_arrays(
    left: np.ndarray,
    right: np.ndarray,
    epsilon: float,
    p: float,
    chunk_rows: int = _DEFAULT_CHUNK_ROWS,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[np.ndarray, np.ndarray]:
    """Int64 ``(rows, cols)`` of every pair within ``epsilon`` under L_p.

    Pair order is row-major in ``left`` chunks, matching the historical
    scalar path; the accepted set is decided by the exact difference
    form for every pair that reaches the refine stage.
    """
    left_arr = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right_arr = np.atleast_2d(np.asarray(right, dtype=np.float64))
    row_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    col_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    candidates = 0
    if p == 2.0:
        right_sq = np.einsum("jd,jd->j", right_arr, right_arr)
    for start in range(0, left_arr.shape[0], chunk_rows):
        chunk = left_arr[start : start + chunk_rows]
        if p == 2.0:
            rows, cols, cand = _euclidean_chunk_pairs(
                chunk, right_arr, right_sq, epsilon
            )
            candidates += cand
        else:
            rows, cols = np.nonzero(_exact_chunk(chunk, right_arr, p) <= epsilon)
        row_parts.append(rows + start)
        col_parts.append(cols)
    rows, cols = np.concatenate(row_parts), np.concatenate(col_parts)
    if recorder.enabled:
        recorder.count("kernel.minkowski.invocations")
        recorder.count(
            "kernel.minkowski.pairs_tested", left_arr.shape[0] * right_arr.shape[0]
        )
        if p == 2.0:
            recorder.count("kernel.minkowski.gram_candidates", candidates)
        recorder.count("kernel.minkowski.accepted", int(rows.shape[0]))
    return rows, cols


def _euclidean_chunk_pairs(
    chunk: np.ndarray,
    right: np.ndarray,
    right_sq: np.ndarray,
    epsilon: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Gram filter + exact refine for one left chunk.

    Returns ``(rows, cols, candidates)`` where ``candidates`` is how
    many pairs survived the Gram prefilter into the exact refine.
    """
    chunk_sq = np.einsum("id,id->i", chunk, chunk)
    gram_sq = chunk_sq[:, None] + right_sq[None, :] - 2.0 * (chunk @ right.T)
    margin = _GRAM_SLACK * (chunk_sq[:, None] + right_sq[None, :])
    cand_rows, cand_cols = np.nonzero(gram_sq <= epsilon * epsilon + margin)
    if cand_rows.size == 0:
        return cand_rows, cand_cols, 0
    keep = np.empty(cand_rows.size, dtype=bool)
    for lo in range(0, cand_rows.size, _CHUNK_PAIRS):
        hi = lo + _CHUNK_PAIRS
        diff = chunk[cand_rows[lo:hi]] - right[cand_cols[lo:hi]]
        keep[lo:hi] = np.sqrt(np.sum(diff * diff, axis=1)) <= epsilon
    return cand_rows[keep], cand_cols[keep], int(cand_rows.size)


def _exact_chunk(left: np.ndarray, right: np.ndarray, p: float) -> np.ndarray:
    """Difference-tensor distances for one chunk (the scalar reference)."""
    diff = np.abs(left[:, None, :] - right[None, :, :])
    if np.isinf(p):
        return diff.max(axis=2)
    if p == 2.0:
        return np.sqrt(np.sum(diff * diff, axis=2))
    return np.sum(diff**p, axis=2) ** (1.0 / p)


def minkowski_pairwise(
    left: np.ndarray,
    right: np.ndarray,
    p: float,
    chunk_rows: int = _DEFAULT_CHUNK_ROWS,
) -> np.ndarray:
    """Full ``(len(left), len(right))`` distance matrix, bounded temporaries.

    ``p = 2`` uses the Gram form (one matmul, no ``(n, m, d)`` tensor);
    tiny negative round-off is clamped to zero before the square root.
    Other orders chunk the difference tensor to ``chunk_rows`` left rows
    at a time.  Callers that need exact threshold decisions should use
    :func:`minkowski_pairs`, which refines borderline pairs exactly.
    """
    left_arr = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right_arr = np.atleast_2d(np.asarray(right, dtype=np.float64))
    if p == 2.0:
        left_sq = np.einsum("id,id->i", left_arr, left_arr)
        right_sq = np.einsum("jd,jd->j", right_arr, right_arr)
        gram_sq = left_sq[:, None] + right_sq[None, :] - 2.0 * (left_arr @ right_arr.T)
        # Values inside the rounding margin are indistinguishable from
        # zero; snap them there so identical points come out exactly 0.
        margin = _GRAM_SLACK * (left_sq[:, None] + right_sq[None, :])
        gram_sq[gram_sq <= margin] = 0.0
        return np.sqrt(gram_sq)
    out = np.empty((left_arr.shape[0], right_arr.shape[0]))
    for start in range(0, left_arr.shape[0], chunk_rows):
        chunk = left_arr[start : start + chunk_rows]
        out[start : start + chunk.shape[0]] = _exact_chunk(chunk, right_arr, p)
    return out


def euclidean_gram_panel(
    left_rows: np.ndarray,
    right_panel: np.ndarray,
    left_sq: np.ndarray,
    right_sq: np.ndarray,
    epsilon: "float | np.ndarray",
) -> np.ndarray:
    """Gram-prefilter decisions for a left block × gathered right panel.

    The mega-batch p = 2 prefilter: ``left_rows`` is one left page's
    objects, ``right_panel`` the gathered objects of the page's marked
    col pages, and ``left_sq``/``right_sq`` their precomputed squared
    norms.  Returns the boolean ``(len(left_rows), len(right_panel))``
    decision matrix; the panel is chunked along its columns so the
    float temporaries stay cell-budgeted.  Every elementwise pass is a
    contiguous broadcast performing :func:`minkowski_pairs`'s Gram-stage
    float64 operations in the same order, so decisions agree up to the
    rounding margin the slack already absorbs.

    ``epsilon`` is one threshold for the whole panel or one per panel
    column (the DTW cascade's centre–radius bound passes ``ε + ‖r_j‖``,
    see :func:`repro.kernels.dtw.envelope_centres`).
    """
    out = np.empty((left_rows.shape[0], right_panel.shape[0]), dtype=bool)
    chunk_cols = max(1, _BLOCK_CELL_BUDGET // max(1, left_rows.shape[0]))
    eps_sq = epsilon * epsilon
    per_column = isinstance(eps_sq, np.ndarray) and eps_sq.ndim > 0
    for lo in range(0, right_panel.shape[0], chunk_cols):
        hi = lo + chunk_cols
        base = left_sq[:, None] + right_sq[lo:hi][None, :]
        gram_sq = base - 2.0 * (left_rows @ right_panel[lo:hi].T)
        limit = eps_sq[lo:hi] if per_column else eps_sq
        out[:, lo:hi] = gram_sq <= limit + _GRAM_SLACK * base
    return out


def minkowski_refine(
    left: np.ndarray,
    right: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    epsilon: float,
    p: float,
) -> np.ndarray:
    """Exact ``||left[rows[k]] - right[cols[k]]||_p <= epsilon`` decisions.

    The gathered difference form, chunked to bound the temporary — the
    same float64 operations in the same order as the per-pair reference
    (:func:`minkowski_pairs`'s refine stage for p = 2, ``_exact_chunk``
    otherwise), so decisions are bit-identical per pair regardless of
    which other pairs share the batch.
    """
    left_arr = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right_arr = np.atleast_2d(np.asarray(right, dtype=np.float64))
    keep = np.empty(rows.shape[0], dtype=bool)
    for lo in range(0, rows.shape[0], _CHUNK_PAIRS):
        hi = lo + _CHUNK_PAIRS
        diff = left_arr[rows[lo:hi]] - right_arr[cols[lo:hi]]
        if p == 2.0:
            keep[lo:hi] = np.sqrt(np.sum(diff * diff, axis=1)) <= epsilon
        elif np.isinf(p):
            keep[lo:hi] = np.abs(diff).max(axis=1) <= epsilon
        else:
            np.abs(diff, out=diff)
            keep[lo:hi] = np.sum(diff**p, axis=1) ** (1.0 / p) <= epsilon
    return keep
