"""Frequency vectors and the frequency distance (MRS-index machinery).

The MRS-index (Kahveci & Singh, VLDB'01 — Table 1 of the join paper) maps
every string window to its *frequency vector* — symbol counts over the
alphabet — and bounds edit distance from below by the *frequency distance*:

    FD(u, v) = max( sum of positive components of v − u,
                    sum of negative components of v − u in magnitude )

One edit operation changes at most one count up and one down, so
``FD(f(s), f(t)) <= ED(s, t)``; the prediction matrix built over frequency
MBRs therefore never misses a joining window pair (Theorem 1).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

__all__ = [
    "DNA_ALPHABET",
    "frequency_vector",
    "frequency_vectors_sliding",
    "frequency_distance",
]

DNA_ALPHABET = "ACGT"


def _symbol_index(alphabet: str) -> Dict[str, int]:
    if len(set(alphabet)) != len(alphabet) or not alphabet:
        raise ValueError(f"alphabet must be non-empty with unique symbols, got {alphabet!r}")
    return {symbol: k for k, symbol in enumerate(alphabet)}


def frequency_vector(s: str, alphabet: str = DNA_ALPHABET) -> np.ndarray:
    """Symbol-count vector of ``s`` over ``alphabet``.

    Symbols outside the alphabet are rejected — the MRS-index requires a
    closed alphabet.
    """
    index = _symbol_index(alphabet)
    vec = np.zeros(len(alphabet), dtype=np.float64)
    for ch in s:
        try:
            vec[index[ch]] += 1.0
        except KeyError:
            raise ValueError(f"symbol {ch!r} is not in alphabet {alphabet!r}") from None
    return vec


def frequency_vectors_sliding(
    s: str,
    window_length: int,
    alphabet: str = DNA_ALPHABET,
) -> np.ndarray:
    """Frequency vectors of every length-``window_length`` window of ``s``.

    Computed incrementally (slide one symbol: one count down, one up), so
    the whole sequence costs O(len(s)) instead of O(len(s) * window).
    Returns an ``(len(s) - window_length + 1, |alphabet|)`` array.
    Symbols outside the alphabet are rejected, as in
    :func:`frequency_vector`.
    """
    if window_length <= 0:
        raise ValueError(f"window_length must be positive, got {window_length}")
    if len(s) < window_length:
        raise ValueError(
            f"sequence of length {len(s)} is shorter than window_length {window_length}"
        )
    index = _symbol_index(alphabet)
    try:
        codes = np.fromiter((index[ch] for ch in s), dtype=np.int64, count=len(s))
    except KeyError as exc:
        raise ValueError(
            f"symbol {exc.args[0]!r} is not in alphabet {alphabet!r}"
        ) from None
    num_windows = len(s) - window_length + 1
    out = np.zeros((num_windows, len(alphabet)), dtype=np.float64)
    # One-hot cumulative counts: counts of symbol a in s[:i] for every i.
    onehot = np.zeros((len(s) + 1, len(alphabet)), dtype=np.float64)
    onehot[np.arange(1, len(s) + 1), codes] = 1.0
    cumulative = np.cumsum(onehot, axis=0)
    out[:] = cumulative[window_length:] - cumulative[:num_windows]
    return out


def frequency_distance(u: np.ndarray, v: np.ndarray) -> float:
    """The MRS frequency distance between two frequency vectors.

    Lower-bounds the edit distance between any two strings having these
    frequency vectors (see module docstring).
    """
    diff = np.asarray(v, dtype=np.float64) - np.asarray(u, dtype=np.float64)
    positive = diff[diff > 0].sum()
    negative = -diff[diff < 0].sum()
    return float(max(positive, negative))
