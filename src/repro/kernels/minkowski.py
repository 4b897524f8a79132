"""Batched L_p kernels: Gram-matrix L2 decisions, exact gathered refine.

The scalar reference for an epsilon test is the difference form
``sqrt(sum((l - r)**2)) <= ε``, evaluated per pair.  The Gram form
``|l|² + |r|² − 2 l·r`` runs through BLAS and never materialises the
``(n, m, d)`` difference tensor, but its rounding error makes identical
points nonzero-distant, so on its own it cannot decide every pair.
:func:`euclidean_panel_decisions` lets it decide all but a thin band:
a cell whose Gram value exceeds ``ε²`` by more than a rigorous rounding
margin is rejected, a cell whose Gram value plus that margin sits below
``ε²`` by a further margin that covers the difference form's own
rounding is accepted outright, and only the cells in between — the
*band* — are re-evaluated with the difference form
(:func:`minkowski_refine`, gathered rows).  The accepted pair set is
therefore bit-identical to the scalar reference, while the bulk of the
work is one matmul per panel.  Where squared norms or ``ε²`` overflow,
the Gram form decides nothing and every pair takes the difference form.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "minkowski_pairs",
    "minkowski_pair_arrays",
    "euclidean_gram_panel",
    "euclidean_norms",
    "euclidean_panel_decisions",
    "minkowski_refine",
]

_DEFAULT_CHUNK_ROWS = 1024
# Refine stage gathers candidate pairs; bound its temporary the same way.
_CHUNK_PAIRS = 8192
# Mega-batch blocks stack many pages per side; bound the (chunk, cols)
# Gram temporaries by cells instead of a fixed row count so memory stays
# flat however wide the block is: 1 MiB of float64 each, which stays in
# cache and reuses the allocator's freed blocks.  A cascade panel
# (_PANEL_CELLS plus one page pair) fits one chunk while its page pairs
# hold up to 2¹⁶ cells.
_BLOCK_CELL_BUDGET = 1 << 17
# Relative rounding slack s of the Gram form.  A cell is rejected when
# its computed Gram value G = fl(base − 2·fl(l·r)), base =
# fl(‖l‖² + ‖r‖²), exceeds fl(ε² + s·base).  Up to its last rounding,
# G is within 0.38·s·base of D ((a) below); a pair the difference form
# accepts has D ≤ (1 + (d + 6)u)·ε² and, near the threshold,
# base ≥ ε²/4 (as D ≤ 2B), so for d ≤ 2²⁰ no such cell is rejected, yet
# the margin admits essentially no extra candidates.
_GRAM_SLACK = 2.0**-30
# A cell is accepted outright when fl(G + m) ≤ fl(fl(ε·ε)·(1 − c)),
# m = s·base (exact: s is a power of two), with c = 2s.  With u = 2⁻⁵³,
# exact D = ‖l − r‖² and B = ‖l‖² + ‖r‖², and d ≤ 2²⁰ (du ≤ 2⁻³³):
#   (a) base − 2·fl(l·r) = D + E with |E| ≤ 3(d + 1)·u·B ≤ 0.38·m: each
#       of the three d-term dot products (any summation order, with or
#       without FMA) errs by at most 1.01·d·u times the sum of its
#       absolute terms, Σ|l_i·r_i| ≤ B/2, and base adds one rounding;
#   (b) G = (D + E)(1 + δ) with |δ| ≤ u, so D = 0 where G + m ≤ 0, and
#       otherwise D ≤ h·(1 + 4u) for the computed h = fl(G + m) — the
#       first of the test's three roundings;
#   (c) the difference form's computed sum of d squares of rounded
#       differences is S ≤ D·(1 + u)^(d+2) ≤ D·(1 + (d + 3)u);
#   (d) the test's other two roundings, of ε² and of ε²·(1 − c) (1 − c
#       is exact), add (1 + u)², so a cell accepted outright has
#       S ≤ (1 + (d + 10)u)·(1 − c)·ε² < ε², as (d + 10)u < 2⁻³² < c;
#   (e) ε is a double and rounding is monotone, so S ≤ ε² gives
#       fl(sqrt(S)) ≤ ε: the difference form accepts the cell too.
# (a)–(d) assume no product is subnormal.  A subnormal product errs by
# up to 2⁻¹⁰⁷⁵ absolutely; through (a)–(c) that adds under
# 8d·2⁻¹⁰⁷⁵ ≤ 2⁻¹⁰⁵² to S, which the unused margin ε²·(c − (d + 10)u)
# covers for ε² ≥ 2⁻¹⁰²⁰.  Past 2²⁰ dimensions, or below ε² = 2⁻⁹⁶⁰
# (ε = 0 among them), nothing is accepted outright: every cell the Gram
# filter keeps takes the difference form.
_GRAM_ACCEPT_MAX_DIM = 1 << 20
_GRAM_ACCEPT_MIN_EPS_SQ = 2.0**-960


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
    scalar path.  For p = 2 each chunk is decided by
    :func:`euclidean_panel_decisions` — the L2 join cascade's decision
    routine — unless the Gram form overflows; every other pair is
    decided by the difference form.  Either way the accepted set equals
    the difference form's.
    """
    left_arr = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right_arr = np.atleast_2d(np.asarray(right, dtype=np.float64))
    row_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    col_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    candidates = 0
    norms = euclidean_norms(left_arr, right_arr, epsilon) if p == 2.0 else None
    for start in range(0, left_arr.shape[0], chunk_rows):
        chunk = left_arr[start : start + chunk_rows]
        if norms is None:
            within = _exact_chunk(chunk, right_arr, p) <= epsilon
            candidates += within.size
        else:
            within, kept = euclidean_panel_decisions(
                chunk, right_arr, norms[0][start : start + chunk_rows], norms[1],
                epsilon,
            )
            candidates += kept
        rows, cols = np.divmod(np.flatnonzero(within), within.shape[1])
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


def euclidean_norms(
    left: np.ndarray, right: np.ndarray, epsilon: float
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Squared norms of every row of ``left`` and ``right`` for
    :func:`euclidean_panel_decisions`, or ``None`` where the Gram form
    cannot decide.

    That is where ``ε²`` or ``4·(max ‖l‖² + max ‖r‖²)`` is not finite
    (values past ~1e153): the Gram value's terms would overflow into
    ``inf − inf``, and its comparisons with NaN would reject every cell.
    Callers then run the difference form on every cell.
    """
    with np.errstate(over="ignore"):
        left_sq = np.einsum("id,id->i", left, left)
        right_sq = np.einsum("jd,jd->j", right, right)
        bounded = np.isfinite(epsilon * epsilon) and np.isfinite(
            4.0 * (left_sq.max(initial=0.0) + right_sq.max(initial=0.0))
        )
    return (left_sq, right_sq) if bounded else None


def euclidean_panel_decisions(
    left_rows: np.ndarray,
    right_panel: np.ndarray,
    left_sq: np.ndarray,
    right_sq: np.ndarray,
    epsilon: float,
) -> Tuple[np.ndarray, int]:
    """Exact ``‖l − r‖₂ <= ε`` decisions for a left block × right panel.

    ``left_sq``/``right_sq`` are the rows' squared norms from
    :func:`euclidean_norms` (which must not have returned ``None``).
    Each cell's Gram value is computed as :func:`euclidean_gram_panel`
    computes it, and the cell is rejected where that filter rejects it,
    accepted outright where the Gram value plus its rounding margin
    sits below ``ε²·(1 − 2s)`` (the derivation is next to
    ``_GRAM_SLACK``), and otherwise — the band — decided by
    :func:`minkowski_refine`.  Returns the boolean
    ``(len(left_rows), len(right_panel))`` decision matrix, equal cell
    for cell to the difference form's, and how many cells the Gram
    filter kept (accepted outright plus band).  The panel is chunked
    along its columns so the float temporaries stay cell-budgeted.
    """
    out = np.empty((left_rows.shape[0], right_panel.shape[0]), dtype=bool)
    chunk_cols = max(1, _BLOCK_CELL_BUDGET // max(1, left_rows.shape[0]))
    eps_sq = epsilon * epsilon
    accepts = (
        left_rows.shape[1] <= _GRAM_ACCEPT_MAX_DIM
        and _GRAM_ACCEPT_MIN_EPS_SQ <= eps_sq < np.inf
    )
    accept_limit = eps_sq * (1.0 - 2.0 * _GRAM_SLACK)
    kept = 0
    for lo in range(0, right_panel.shape[0], chunk_cols):
        hi = lo + chunk_cols
        right_rows = right_panel[lo:hi]
        # base − 2·(l·r) and s·base, in place: scaling by −2 or by the
        # power of two s is exact and addition commutes, so G and the
        # margin are bit for bit euclidean_gram_panel's.
        gram = left_rows @ right_rows.T
        gram *= -2.0
        base = left_sq[:, None] + right_sq[lo:hi][None, :]
        gram += base
        base *= _GRAM_SLACK
        decided = gram <= eps_sq + base
        # Every cell the filter keeps starts accepted; the band — kept
        # cells whose G + s·base exceeds the accept limit — then takes
        # the difference form's decisions.
        band = np.flatnonzero(decided)
        kept += band.shape[0]
        if accepts and band.shape[0]:
            sums = gram.ravel()[band]
            sums += base.ravel()[band]
            band = band[sums > accept_limit]
        if band.shape[0]:
            band_i, band_j = np.divmod(band, decided.shape[1])
            decided.ravel()[band] = minkowski_refine(
                left_rows, right_rows, band_i, band_j, epsilon, 2.0
            )
        out[:, lo:hi] = decided
    return out, kept


def _exact_chunk(left: np.ndarray, right: np.ndarray, p: float) -> np.ndarray:
    """Difference-tensor distances for one chunk (the scalar reference)."""
    diff = np.abs(left[:, None, :] - right[None, :, :])
    if np.isinf(p):
        return diff.max(axis=2)
    if p == 2.0:
        return np.sqrt(np.sum(diff * diff, axis=2))
    return np.sum(diff**p, axis=2) ** (1.0 / p)


def euclidean_gram_panel(
    left_rows: np.ndarray,
    right_panel: np.ndarray,
    left_sq: np.ndarray,
    right_sq: np.ndarray,
    epsilon: "float | np.ndarray",
) -> np.ndarray:
    """Gram-filter decisions for a left block × gathered right panel.

    ``left_rows`` is one left page's objects, ``right_panel`` the
    gathered objects of the page's marked col pages, and
    ``left_sq``/``right_sq`` their precomputed squared norms.  Returns
    the boolean ``(len(left_rows), len(right_panel))`` matrix of the
    cells whose Gram value is within ``ε²`` plus the rounding margin
    (see ``_GRAM_SLACK``); the panel is chunked along its columns so the
    float temporaries stay cell-budgeted.  :func:`euclidean_panel_decisions`
    computes the same values and keeps the same cells.

    ``epsilon`` is one threshold for the whole panel or one per panel
    column: the DTW cascade's centre–radius bound passes ``λ + ‖r_j‖``
    (see :func:`repro.kernels.dtw.envelope_centres`).
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
    (``_exact_chunk``), so decisions are bit-identical per pair
    regardless of which other pairs share the batch.
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
