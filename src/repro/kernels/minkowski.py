"""Batched L_p kernels: one-product L2 panel decisions, exact gathered refine.

The scalar reference for an epsilon test is the difference form
``sqrt(sum((l - r)**2)) <= ε``, evaluated per pair.  The Gram form
``‖l‖² + ‖r‖² − 2 l·r`` runs through BLAS and never materialises the
``(n, m, d)`` difference tensor, but its rounding error makes identical
points nonzero-distant, so on its own it cannot decide every pair.
:func:`euclidean_panel_decisions` lets it decide all but a thin band.
Each row carries its squared norm (:func:`euclidean_augmented`:
``[l, ‖l‖², 1]`` on the left, ``[−2r, 1, ‖r‖²]`` on the right), so one
BLAS product yields every cell's Gram value ``G``, which is compared
with ``ε²`` plus one rounding margin for the whole panel: a cell whose
``G`` exceeds ``ε²`` by more than the margin is rejected, a cell whose
``G`` plus the margin sits below ``ε²`` by a further margin that covers
the difference form's own rounding is accepted outright, and only the
cells in between — the *band* — are re-evaluated with the difference
form (:func:`minkowski_refine`, gathered rows).  The accepted pair set is
therefore bit-identical to the scalar reference, while the bulk of the
work is one matmul and one comparison per panel.  The decisions come
back in *entry-blocked* order: a panel of ``k`` column groups of ``c``
objects (one per page pair of the join cascade) is laid out as
``(k, n, c)``, so its survivors are grouped by column group and
row-major within each.  Where squared norms or ``ε²`` overflow, or a
panel's squared norms are so small that its products are subnormal,
the Gram form decides nothing and every pair takes the difference form.
Other orders p evaluate the difference form in blocks of at most
``_BLOCK_CELL_BUDGET`` elements.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "minkowski_pairs",
    "minkowski_pair_arrays",
    "euclidean_augmented",
    "euclidean_gram_panel",
    "euclidean_panel_decisions",
    "minkowski_refine",
]

_DEFAULT_CHUNK_ROWS = 1024
# Refine stage gathers candidate pairs; bound its temporary the same way.
_CHUNK_PAIRS = 8192
# Mega-batch blocks stack many pages per side; bound the float
# temporaries (Gram blocks, difference tensors) by cells instead of a
# fixed row count so memory stays flat however wide the block is: 1 MiB
# of float64 each, which stays in cache and reuses the allocator's freed
# blocks.  A cascade panel (_PANEL_CELLS plus one page pair) fits one
# Gram block while its page pairs hold up to 2¹⁶ cells.
_BLOCK_CELL_BUDGET = 1 << 17
# Relative rounding slack s of the Gram form.  A panel's Gram values are
# one BLAS product, G = fl(L·R) with L = [l, a, 1] and R = [−2r, 1, b],
# a = fl(‖l‖²) and b = fl(‖r‖²); its margin is m = s·M with
# M = fl(max a + max b) over the panel's rows and columns, and a cell is
# rejected where G > fl(ε² + m).  With u = 2⁻⁵³, γ_k = ku/(1 − ku),
# exact D = ‖l − r‖² and B = ‖l‖² + ‖r‖², d ≤ 2²⁰ and no product
# subnormal:
#   (a) |G − D| ≤ (3d + 3)·u·B·(1 + 2⁻³¹) ≤ 0.376·m.  The exact value of
#       L·R is a + b − 2·l·r; its d + 2 terms total at most
#       2Σ|l_i·r_i| + a + b ≤ (2 + γ_d)·B in absolute value
#       (Σ|l_i·r_i| ≤ B/2), and in any summation order, with or without
#       FMA, each product term passes at most d + 2 roundings and the
#       exact terms a·1 and 1·b at most d + 1, so the sum errs by at most
#       γ_(d+2)·B + γ_(d+1)·(a + b); a and b add their own roundings,
#       |a − ‖l‖²| ≤ γ_d·‖l‖² and |b − ‖r‖²| ≤ γ_d·‖r‖².  M bounds every
#       cell of the panel: M ≥ (a + b)(1 − u) ≥ B·(1 − 2⁻³²), and
#       m = s·M is exact (s is a power of two and m is normal, see below);
#   (b) a pair the difference form accepts has D ≤ (1 + (d + 6)u)·ε², and
#       the reject limit is at least ε²(1 − 2u) + m(1 − u).  Where
#       B ≥ ε²/4, m ≥ s·ε²/4.01 and 0.62·m exceeds (d + 8)u·ε²; where
#       B < ε²/4, D ≤ 2B < ε²/2.  Either way G stays under the limit, so
#       the reject test never drops a pair the difference form keeps.
_GRAM_SLACK = 2.0**-30
# A cell is accepted outright when fl(G + m) ≤ fl(fl(ε·ε)·(1 − c)), with
# c = 2s (1 − c is exact):
#   (c) G + m ≥ D + 0.62·m > D by (a), so D ≤ h·(1 + 2u) for the computed
#       h = fl(G + m);
#   (d) the difference form's computed sum of d squares of rounded
#       differences is S ≤ D·(1 + u)^(d+2) ≤ D·(1 + (d + 3)u);
#   (e) the test's other two roundings, of ε² and of ε²·(1 − c), add
#       (1 + u)², so a cell accepted outright has
#       S ≤ (1 + (d + 8)u)·(1 − c)·ε² < ε², as (d + 8)u < 2⁻³² < c;
#   (f) ε is a double and rounding is monotone, so S ≤ ε² gives
#       fl(sqrt(S)) ≤ ε: the difference form accepts the cell too.
# fl(g + m) is monotone in g, so the test is G ≤ g*, the largest double
# g with fl(g + m) within the accept limit (_accept_bound); the kernel
# compares G with g* and gathers nothing to accept a cell.
# Subnormal products: a product (or an FMA) whose result is subnormal
# errs by up to 2⁻¹⁰⁷⁵ absolutely, not relatively, while additions stay
# exact there.  That adds at most (d + 2)·2⁻¹⁰⁷⁵ to G, d·2⁻¹⁰⁷⁵ to each
# of a and b and d·2⁻¹⁰⁷⁵ to S: under (4d + 4)·2⁻¹⁰⁷⁵ ≤ 2⁻¹⁰⁵² in all
# for d ≤ 2²⁰.  A panel whose margin is a normal double (m ≥ 2⁻¹⁰²², so
# M ≥ 2⁻⁹⁹²) covers that in the slack (b) and (c) leave, 0.1·m and more;
# below it the Gram value decides nothing for the panel and every cell
# takes the difference form (points at ~1e-150 and smaller).  Past 2²⁰
# dimensions, or below ε² = 2⁻⁹⁶⁰ (ε = 0 among them), nothing is
# accepted outright: every cell the reject test keeps takes the
# difference form.  The ε² floor keeps ε² and the accept limit normal,
# so the test's own two roundings are relative.
_GRAM_MIN_MARGIN = 2.0**-1022
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
    scalar path.  For p = 2 each chunk is one panel of
    :func:`euclidean_panel_decisions` — the L2 join cascade's decision
    routine — with a single column group, unless the Gram form
    overflows; every other pair is decided by the difference form.
    Either way the accepted set equals the difference form's.
    """
    left_arr = np.atleast_2d(np.asarray(left, dtype=np.float64))
    right_arr = np.atleast_2d(np.asarray(right, dtype=np.float64))
    row_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    col_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    candidates = 0
    augmented = euclidean_augmented(left_arr, right_arr, epsilon) if p == 2.0 else None
    for start in range(0, left_arr.shape[0], chunk_rows):
        stop = start + chunk_rows
        if augmented is None:
            within = _exact_decisions(left_arr[start:stop], right_arr, epsilon, p)
            candidates += within.size
        else:
            within, kept = euclidean_panel_decisions(
                augmented[0][start:stop], augmented[1], epsilon
            )
            candidates += kept
        rows, cols = np.divmod(np.flatnonzero(within), right_arr.shape[0])
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


def euclidean_augmented(
    left: np.ndarray, right: np.ndarray, epsilon: float
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Rows ``[l, ‖l‖², 1]`` of ``left`` and ``[−2r, 1, ‖r‖²]`` of
    ``right`` for :func:`euclidean_panel_decisions`, or ``None`` where
    the Gram form cannot decide.

    One product of the two yields every Gram value
    ``‖l‖² + ‖r‖² − 2·l·r``.  ``None`` is where ``ε²`` or
    ``4·(max ‖l‖² + max ‖r‖²)`` is not finite (values past ~1e153): the
    Gram value's terms would overflow into ``inf − inf``, and its
    comparisons with NaN would reject every cell.  Callers then run the
    difference form on every cell.
    """
    d = left.shape[1]
    with np.errstate(over="ignore"):
        left_sq = np.einsum("id,id->i", left, left)
        right_sq = np.einsum("jd,jd->j", right, right)
        bounded = np.isfinite(epsilon * epsilon) and np.isfinite(
            4.0 * (left_sq.max(initial=0.0) + right_sq.max(initial=0.0))
        )
    if not bounded:
        return None
    left_aug = np.empty((left.shape[0], d + 2))
    left_aug[:, :d] = left
    left_aug[:, d] = left_sq
    left_aug[:, d + 1] = 1.0
    right_aug = np.empty((right.shape[0], d + 2))
    np.multiply(right, -2.0, out=right_aug[:, :d])
    right_aug[:, d] = 1.0
    right_aug[:, d + 1] = right_sq
    return left_aug, right_aug


def euclidean_panel_decisions(
    left_aug: np.ndarray,
    right_aug: np.ndarray,
    epsilon: float,
    groups: int = 1,
) -> Tuple[np.ndarray, int]:
    """Exact ``‖l − r‖₂ <= ε`` decisions for a left block × right panel,
    in entry-blocked order.

    ``left_aug`` and ``right_aug`` are rows of :func:`euclidean_augmented`
    (which must not have returned ``None``); the panel's ``k·c`` columns
    are ``groups`` = ``k`` consecutive groups of ``c`` objects.  Each
    cell's Gram value is one entry of ``left_aug @ right_aug.T``; the
    cell is rejected where it exceeds ``ε²`` plus the panel's margin
    ``s·(max ‖l‖² + max ‖r‖²)``, accepted outright where it is at most
    the accept bound (the derivation is next to ``_GRAM_SLACK``), and
    otherwise — the band — decided by :func:`minkowski_refine`.  Returns
    the boolean ``(k, n, c)`` decision array, entry ``[g, i, j]`` for
    left row ``i`` and column ``g·c + j``, equal cell for cell to the
    difference form's, and how many cells the reject test kept (accepted
    outright plus band; every cell where the margin is below
    ``_GRAM_MIN_MARGIN``).  The product runs in blocks of at most
    ``_BLOCK_CELL_BUDGET`` cells, each written straight into the
    decision array.
    """
    n, d = left_aug.shape[0], left_aug.shape[1] - 2
    c = right_aug.shape[0] // groups
    out = np.empty((groups, n, c), dtype=bool)
    if not out.size:
        return out, 0
    margin = _GRAM_SLACK * (left_aug[:, d].max() + right_aug[:, d + 1].max())
    if not margin >= _GRAM_MIN_MARGIN:
        # Subnormal products: the Gram value decides nothing here.
        band = np.arange(out.size)
        _decide_band(out, left_aug, right_aug, band, epsilon)
        return out, out.size
    eps_sq = epsilon * epsilon
    reject_above = eps_sq + margin
    accepts = d <= _GRAM_ACCEPT_MAX_DIM and _GRAM_ACCEPT_MIN_EPS_SQ <= eps_sq < np.inf
    if accepts:
        accept_to = _accept_bound(margin, eps_sq * (1.0 - 2.0 * _GRAM_SLACK))
    kept = 0
    bands: List[np.ndarray] = []
    for g0, g1, i0, i1 in _gram_blocks(groups, n, c):
        gram = left_aug[i0:i1] @ right_aug[g0 * c : g1 * c].T
        cells = gram.reshape(i1 - i0, g1 - g0, c)
        decided = out[g0:g1, i0:i1]
        np.less_equal(cells, reject_above, out=decided.transpose(1, 0, 2))
        held = int(np.count_nonzero(decided))
        kept += held
        # Every kept cell starts accepted; where some kept cell lies
        # above the accept bound, those — the band — are re-decided.
        if held and (not accepts or np.count_nonzero(gram <= accept_to) < held):
            above = decided.copy()
            if accepts:
                above &= (cells > accept_to).transpose(1, 0, 2)
            bands.append(np.flatnonzero(above) + (g0 * n + i0) * c)
    if bands:
        _decide_band(out, left_aug, right_aug, np.concatenate(bands), epsilon)
    return out, kept


def _gram_blocks(groups: int, n: int, c: int) -> Iterator[Tuple[int, int, int, int]]:
    """``(g0, g1, i0, i1)`` blocks of a ``(groups, n, c)`` panel, in
    order, of at most ``_BLOCK_CELL_BUDGET`` cells where one row of one
    group fits: whole groups while a group fits, else row runs of one
    group.  Each block is contiguous in the blocked layout."""
    if n * c <= _BLOCK_CELL_BUDGET:
        step = _BLOCK_CELL_BUDGET // (n * c)
        for g0 in range(0, groups, step):
            yield g0, min(g0 + step, groups), 0, n
        return
    step = max(1, _BLOCK_CELL_BUDGET // c)
    for g in range(groups):
        for i0 in range(0, n, step):
            yield g, g + 1, i0, min(i0 + step, n)


def _accept_bound(margin: float, limit: float) -> float:
    """The largest double ``g`` with ``fl(g + margin) <= limit``.

    ``fl(g + margin)`` is monotone in ``g``, so the accept test
    ``fl(G + margin) <= limit`` is exactly ``G <= g``.  The difference
    ``limit − margin`` is within a few doubles of it.
    """
    bound = limit - margin
    while bound + margin > limit:
        bound = math.nextafter(bound, -math.inf)
    while math.nextafter(bound, math.inf) + margin <= limit:
        bound = math.nextafter(bound, math.inf)
    return bound


def _decide_band(
    out: np.ndarray,
    left_aug: np.ndarray,
    right_aug: np.ndarray,
    band: np.ndarray,
    epsilon: float,
) -> None:
    """The difference form's decisions on the flat ``(k, n, c)`` cells
    ``band`` of ``out``.  The objects come from the augmented rows:
    ``l`` as stored, ``r`` as ``−0.5·(−2r)``, which is exact."""
    _groups, n, c = out.shape
    d = left_aug.shape[1] - 2
    g, rest = np.divmod(band, n * c)
    i, j = np.divmod(rest, c)
    right = right_aug[g * c + j, :d] * -0.5
    out.reshape(-1)[band] = minkowski_refine(
        left_aug[:, :d], right, i, np.arange(band.shape[0]), epsilon, 2.0
    )


def _exact_decisions(
    left: np.ndarray, right: np.ndarray, epsilon: float, p: float
) -> np.ndarray:
    """Difference-form ``‖l − r‖_p <= ε`` for every cell (the scalar
    reference), as a boolean ``(len(left), len(right))`` matrix.

    The difference tensor is built a block of at most
    ``_BLOCK_CELL_BUDGET`` elements at a time (single objects wider
    than that aside) and transformed in place, so the temporaries stay
    flat however many cells there are.
    """
    n, m, d = left.shape[0], right.shape[0], max(1, left.shape[1])
    out = np.empty((n, m), dtype=bool)
    cols = max(1, min(m, _BLOCK_CELL_BUDGET // d))
    rows = max(1, _BLOCK_CELL_BUDGET // (cols * d))
    for i0 in range(0, n, rows):
        for j0 in range(0, m, cols):
            diff = left[i0 : i0 + rows, None, :] - right[None, j0 : j0 + cols, :]
            np.abs(diff, out=diff)
            if np.isinf(p):
                dist = diff.max(axis=2)
            elif p == 2.0:
                diff *= diff
                dist = np.sqrt(np.sum(diff, axis=2))
            else:
                diff **= p
                dist = np.sum(diff, axis=2) ** (1.0 / p)
            out[i0 : i0 + rows, j0 : j0 + cols] = dist <= epsilon
    return out


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
    cells whose Gram value ``fl(base − 2·fl(l·r))``,
    ``base = ‖l‖² + ‖r‖²``, is within ``ε²`` plus the per-cell margin
    ``s·base`` (``_GRAM_SLACK``); the panel is chunked along its columns
    so the float temporaries stay cell-budgeted.  The DTW cascade's
    centre–radius bounds call it (their margin is derived next to
    :func:`repro.kernels.dtw.lb_keogh_limit`); the L2 cascade decides
    its panels with :func:`euclidean_panel_decisions`.

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
    (``_exact_decisions``), so decisions are bit-identical per pair
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
