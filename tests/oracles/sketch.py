"""The sketch prefilter's scoring and signature builds before their fast forms.

:func:`rowwise_cdf` finds each target's position with one flat
``searchsorted`` over every row, each shifted by ``row · width`` so that
a target lands inside its own row; :func:`window_fraction` and
:func:`score_quantile_cells` are the quantile scoring built on it, in
chunks of ``(chunk · K, Q)`` rows under a 2²² byte budget.  This is how
:func:`repro.sketch.cascade.score_cells` scored quantile cells before it
counted each row's points below a target directly.  The shift rounds
away a gap smaller than ``ulp(row · width)`` between a target and a
quantile point, so near ties can land on the wrong side of a point;
away from such ties the fast scores equal these bit for bit
(``tests/sketch/test_scoring.py``).

:func:`quantile_rows` and :func:`minhash_rows` build signature rows one
page at a time, the way :func:`repro.sketch.signatures.build_sketch_rows`
did before it took the quantiles of all same-size pages in one call and
took minhash minima over one permuted gram span.  Their rows are the
reference the fast builds must equal bitwise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.sketch.signatures import (
    _gram_hashes,
    _page_bounds,
    _paa_coordinates,
    _unit_directions,
)

_SCORE_CELL_BUDGET = 1 << 22


def rowwise_cdf(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Interpolated empirical CDF of each sorted row of ``q`` at ``t``."""
    m, num_q = q.shape
    if num_q == 1:
        return (t >= q).astype(np.float64)
    lo_v = min(float(q.min()), float(t.min()))
    hi_v = max(float(q.max()), float(t.max()))
    width = (hi_v - lo_v) * 2.0 + 1.0
    shift = np.arange(m, dtype=np.float64)[:, None] * width
    idx = np.searchsorted((q + shift).ravel(), (t + shift).ravel()).reshape(
        m, -1
    ) - np.arange(m)[:, None] * num_q
    idx_c = np.clip(idx, 1, num_q - 1)
    left = np.take_along_axis(q, idx_c - 1, axis=1)
    right = np.take_along_axis(q, idx_c, axis=1)
    denom = right - left
    frac = np.where(denom > 0, (t - left) / np.where(denom > 0, denom, 1.0), 1.0)
    cdf = (idx_c - 1 + np.clip(frac, 0.0, 1.0)) / (num_q - 1)
    cdf[idx <= 0] = 0.0
    return np.clip(cdf, 0.0, 1.0)


def window_fraction(qa: np.ndarray, qb: np.ndarray, eff_eps: float) -> np.ndarray:
    """Symmetrized estimate of ``P(|X − Y| <= eff_eps)`` per row pair."""
    f_ab = (rowwise_cdf(qb, qa + eff_eps) - rowwise_cdf(qb, qa - eff_eps)).mean(
        axis=1
    )
    f_ba = (rowwise_cdf(qa, qb + eff_eps) - rowwise_cdf(qa, qb - eff_eps)).mean(
        axis=1
    )
    return 0.5 * (f_ab + f_ba)


def score_quantile_cells(
    r_signatures: np.ndarray,
    s_signatures: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    eff_eps: float,
) -> np.ndarray:
    """Minimum window fraction over projections of every quantile cell."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    num_cells = rows.shape[0]
    k = r_signatures.shape[1]
    q = r_signatures.shape[2]
    scores = np.empty(num_cells, dtype=np.float64)
    chunk = max(1, _SCORE_CELL_BUDGET // max(1, k * q * 8))
    for lo in range(0, num_cells, chunk):
        hi = min(lo + chunk, num_cells)
        qa = r_signatures[rows[lo:hi]].reshape(-1, q)
        qb = s_signatures[cols[lo:hi]].reshape(-1, q)
        fractions = window_fraction(qa, qb, eff_eps).reshape(hi - lo, k)
        scores[lo:hi] = fractions.min(axis=1)
    return scores


def quantile_rows(dataset, config, pages) -> Tuple[np.ndarray, np.ndarray]:
    """Quantile signature rows of ``pages``, one ``np.quantile`` per page."""
    pages = np.asarray(list(pages), dtype=np.int64)
    if dataset.kind == "vector":
        objects = np.asarray(dataset.paged.vectors, dtype=np.float64)
    else:
        objects = _paa_coordinates(
            np.asarray(dataset.paged.windows_matrix(), dtype=np.float64),
            config.paa_segments,
        )
    rng = np.random.default_rng(config.seed)
    dirs = _unit_directions(rng, config.num_hashes, objects.shape[1])
    lo, hi = _page_bounds(dataset)
    qs = np.linspace(0.0, 1.0, config.num_quantiles)
    signatures = np.empty(
        (pages.shape[0], config.num_hashes, config.num_quantiles), dtype=np.float64
    )
    for row, p in enumerate(pages):
        proj = objects[lo[p] : hi[p]] @ dirs.T
        signatures[row] = np.quantile(proj, qs, axis=0).T
    return signatures, (hi[pages] - lo[pages]).astype(np.int64)


def minhash_rows(dataset, config, pages) -> Tuple[np.ndarray, np.ndarray]:
    """Minhash signature rows of ``pages``, hashing each page's span alone."""
    pages = np.asarray(list(pages), dtype=np.int64)
    paged = dataset.paged
    w = paged.window_length
    n = min(config.ngram_length, w)
    codes = np.frombuffer(paged.sequence.encode("latin-1"), dtype=np.uint8).astype(
        np.uint64
    )
    num_grams = codes.shape[0] - n + 1
    rng = np.random.default_rng(config.seed)
    k = config.minhash_hashes
    mult = rng.integers(0, np.iinfo(np.uint64).max, size=k, dtype=np.uint64) | np.uint64(1)
    add = rng.integers(0, np.iinfo(np.uint64).max, size=k, dtype=np.uint64)
    signatures = np.empty((pages.shape[0], k), dtype=np.uint64)
    counts = np.empty(pages.shape[0], dtype=np.int64)
    for row, p in enumerate(pages):
        ws, we = paged.window_range(p)
        counts[row] = we - ws
        gs = ws
        ge = min(we + w - n, num_grams)
        grams = _gram_hashes(codes[gs : ge + n - 1], n)
        permuted = grams[:, None] * mult[None, :] + add[None, :]
        signatures[row] = permuted.min(axis=0)
    return signatures, counts
