"""Independent correctness checks for the end-to-end benchmark.

Every check compares the program's output with a result computed here
without the join engine: scipy's k-d tree for L2 joins, a pigeonhole
Hamming index for edit distance 1 on equal-length windows, and a
vectorised banded DTW.  Checks run outside the timed region and return a
:class:`Check` rather than raising, so the runner can count failures.

Pairs travel as ``(n, 2)`` int64 arrays of object ids.  A pair whose true
distance lies within ``tol`` of ε may be reported or not: the engine and
the oracle compute distances in different floating-point orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "Check",
    "TOL",
    "as_pair_array",
    "banded_dtw",
    "check_dtw_pairs",
    "check_l2_pairs",
    "check_prefilter",
    "check_text_self_join",
    "count_l2_pairs",
    "hamming1_pairs",
]

TOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def as_pair_array(pairs) -> np.ndarray:
    """A pair list (or array) as an ``(n, 2)`` int64 array."""
    arr = np.asarray(pairs, dtype=np.int64)
    return arr.reshape(-1, 2)


def _keys(pairs: np.ndarray, width: int) -> np.ndarray:
    return pairs[:, 0] * np.int64(width) + pairs[:, 1]


def _compare(
    name: str, reported: np.ndarray, must: np.ndarray, may: np.ndarray, width: int
) -> Check:
    """``must ⊆ reported ⊆ may``, with no pair reported twice."""
    rep = _keys(reported, width)
    uniq = np.unique(rep)
    if uniq.size != rep.size:
        return Check(name, False, f"{rep.size - uniq.size} duplicate pairs reported")
    missing = np.setdiff1d(np.unique(_keys(must, width)), uniq, assume_unique=True)
    extra = np.setdiff1d(uniq, np.unique(_keys(may, width)), assume_unique=True)
    if missing.size or extra.size:
        sample = [(int(k // width), int(k % width)) for k in np.concatenate([missing, extra])[:3]]
        return Check(
            name, False,
            f"{missing.size} missing, {extra.size} extra of {uniq.size} reported "
            f"(e.g. {sample})",
        )
    return Check(name, True, f"{uniq.size} pairs")


# -- L2 ----------------------------------------------------------------------------


def check_l2_pairs(
    left: np.ndarray, right: np.ndarray, pairs, epsilon: float, tol: float = TOL
) -> Check:
    """Cross join of two point sets under L2, against a k-d tree."""
    found = cKDTree(left).sparse_distance_matrix(
        cKDTree(right), epsilon + tol, output_type="ndarray"
    )
    may = np.stack([found["i"], found["j"]], axis=1).astype(np.int64)
    must = may[found["v"] <= epsilon - tol]
    return _compare("l2_pairs", as_pair_array(pairs), must, may, right.shape[0])


def count_l2_pairs(
    left: np.ndarray, right: np.ndarray, epsilon: float, tol: float = TOL
) -> Tuple[int, int]:
    """Bounds ``(lo, hi)`` on the L2 cross-join cardinality."""
    lo, hi = cKDTree(left).count_neighbors(cKDTree(right), [epsilon - tol, epsilon + tol])
    return int(lo), int(hi)


# -- edit distance on equal-length windows ------------------------------------------


def _text_windows(text: str, window: int) -> np.ndarray:
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.lib.stride_tricks.sliding_window_view(data, window)


def hamming1_pairs(text: str, window: int) -> np.ndarray:
    """All window pairs ``i < j`` at Hamming distance <= 1.

    For equal-length strings edit distance <= 1 holds exactly when
    Hamming distance <= 1 (one edit that keeps the length is a
    substitution).  Two windows one substitution apart agree on at least
    one half, so bucketing by each half finds every candidate; each is
    then verified.
    """
    wins = _text_windows(text, window)
    half = window // 2
    found: set = set()
    for lo, hi in ((0, half), (half, window)):
        buckets: Dict[bytes, List[int]] = {}
        part = np.ascontiguousarray(wins[:, lo:hi])
        for idx in range(part.shape[0]):
            buckets.setdefault(part[idx].tobytes(), []).append(idx)
        for members in buckets.values():
            if len(members) < 2:
                continue
            ids = np.asarray(members, dtype=np.int64)
            a, b = np.triu_indices(ids.size, k=1)
            a, b = ids[a], ids[b]
            close = np.count_nonzero(wins[a] != wins[b], axis=1) <= 1
            found.update(zip(a[close].tolist(), b[close].tolist()))
    return as_pair_array(sorted(found))


def check_text_self_join(text: str, window: int, pairs) -> Check:
    """Self join of a string's windows at edit distance 1.

    Compares the full pair set with :func:`hamming1_pairs`, then re-checks
    each reported pair with the scalar edit distance.
    """
    from repro.distance.edit import edit_distance

    reported = as_pair_array(pairs)
    truth = hamming1_pairs(text, window)
    check = _compare("text_pairs", reported, truth, truth, len(text))
    if not check.ok:
        return check
    for a, b in reported.tolist():
        if edit_distance(text[a : a + window], text[b : b + window], max_dist=1) > 1:
            return Check("text_pairs", False, f"pair {(a, b)} exceeds edit distance 1")
    return check


# -- banded DTW ----------------------------------------------------------------------


def banded_dtw(x: np.ndarray, y: np.ndarray, band: int) -> np.ndarray:
    """Row-wise Sakoe-Chiba DTW (sqrt of the summed squared gaps).

    ``x`` and ``y`` are ``(n, w)`` arrays; returns ``n`` distances.  The
    dynamic programme is the textbook recurrence, vectorised over rows.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    rows, w = x.shape
    prev = np.full((rows, w + 1), np.inf)
    prev[:, 0] = 0.0
    for i in range(1, w + 1):
        cur = np.full((rows, w + 1), np.inf)
        for j in range(max(1, i - band), min(w, i + band) + 1):
            best = np.minimum(np.minimum(prev[:, j], prev[:, j - 1]), cur[:, j - 1])
            gap = x[:, i - 1] - y[:, j - 1]
            cur[:, j] = gap * gap + best
        prev = cur
    return np.sqrt(prev[:, w])


def check_dtw_pairs(
    left_seq: np.ndarray,
    right_seq: np.ndarray,
    window: int,
    band: int,
    pairs,
    epsilon: float,
    sample_rows: Sequence[int],
    tol: float = TOL,
) -> Check:
    """Window cross join under banded DTW.

    Every reported pair is re-measured; completeness is exact for the
    left windows in ``sample_rows`` (all right windows are measured).
    """
    left = np.lib.stride_tricks.sliding_window_view(np.asarray(left_seq, float), window)
    right = np.lib.stride_tricks.sliding_window_view(np.asarray(right_seq, float), window)
    reported = as_pair_array(pairs)
    if reported.size:
        dists = banded_dtw(left[reported[:, 0]], right[reported[:, 1]], band)
        bad = np.flatnonzero(dists > epsilon + tol)
        if bad.size:
            a, b = reported[bad[0]]
            return Check(
                "dtw_pairs", False,
                f"{bad.size} reported pairs exceed epsilon, e.g. {(int(a), int(b))} "
                f"at {dists[bad[0]]:.6f}",
            )
    must: List[np.ndarray] = []
    may: List[np.ndarray] = []
    for row in sample_rows:
        dists = banded_dtw(np.repeat(left[row][None, :], right.shape[0], axis=0), right, band)
        cols = np.arange(right.shape[0], dtype=np.int64)
        rows = np.full(right.shape[0], row, dtype=np.int64)
        within = np.stack([rows, cols], axis=1)
        must.append(within[dists <= epsilon - tol])
        may.append(within[dists <= epsilon + tol])
    in_sample = np.isin(reported[:, 0], np.asarray(sample_rows, dtype=np.int64))
    check = _compare(
        "dtw_pairs", reported[in_sample],
        np.concatenate(must) if must else reported[:0],
        np.concatenate(may) if may else reported[:0],
        right.shape[0],
    )
    if not check.ok:
        return check
    return Check(
        "dtw_pairs", True,
        f"{reported.shape[0]} pairs re-measured, {len(sample_rows)} rows complete",
    )


# -- approximate mode ------------------------------------------------------------------


def check_prefilter(
    reference, candidate, width: int, target: float
) -> Tuple[Check, float]:
    """Approximate pairs must be a subset of the exact ones, recall >= target."""
    ref = np.unique(_keys(as_pair_array(reference), width))
    cand = _keys(as_pair_array(candidate), width)
    uniq = np.unique(cand)
    if uniq.size != cand.size:
        return Check("prefilter", False, "duplicate pairs reported"), 0.0
    extra = np.setdiff1d(uniq, ref, assume_unique=True)
    recall = 1.0 if ref.size == 0 else (uniq.size - extra.size) / ref.size
    if extra.size:
        return Check("prefilter", False, f"{extra.size} pairs not in the exact result"), recall
    if recall < target:
        return Check("prefilter", False, f"recall {recall:.4f} < {target}"), recall
    return Check("prefilter", True, f"recall {recall:.4f}"), recall
