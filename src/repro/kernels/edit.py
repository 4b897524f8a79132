"""Batched banded edit-distance kernel over byte-encoded window pairs.

The scalar reference ``repro.distance.edit.edit_distance`` runs a banded
Ukkonen DP per string pair — pure Python, and the CPU bottleneck of
sequence joins.  ``edit_batch`` runs the identical DP once for a whole
candidate block, one anti-diagonal at a time across every alive pair
(:mod:`repro.kernels.wavefront`, int32 states), and pairs whose band
row-minimum exceeds the shared threshold retire with the
``max_dist + 1`` sentinel.  Integer arithmetic makes bit-
identity with the scalar DP unconditional.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.wavefront import edit_chunk_wavefront
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["edit_batch", "encode_strings"]

_CHUNK_PAIRS = 4096


def encode_strings(strings: Sequence[str]) -> np.ndarray:
    """Equal-length strings as a ``(n, w)`` uint8 code matrix.

    Uses latin-1 so every code point below 256 maps to one byte — the
    same convention as the text joiner's strided window view.
    """
    if not strings:
        return np.empty((0, 0), dtype=np.uint8)
    w = len(strings[0])
    if any(len(s) != w for s in strings):
        raise ValueError("encode_strings expects equal-length strings")
    flat = "".join(strings).encode("latin-1")
    return np.frombuffer(flat, dtype=np.uint8).reshape(len(strings), w)


def edit_batch(
    a: np.ndarray,
    b: np.ndarray,
    max_dist: int,
    recorder: Recorder = NULL_RECORDER,
) -> np.ndarray:
    """Banded edit distance of ``K`` aligned equal-length string pairs.

    ``a`` and ``b`` are ``(K, w)`` uint8 code matrices (see
    :func:`encode_strings`).  Returns a ``(K,)`` float64 array equal to
    calling :func:`repro.distance.edit.edit_distance` per pair with
    ``max_dist`` as the threshold, sentinel included.  Each chunk runs
    the anti-diagonal DP of
    :func:`repro.kernels.wavefront.edit_chunk_wavefront`.
    """
    a_arr = np.atleast_2d(np.asarray(a))
    b_arr = np.atleast_2d(np.asarray(b))
    if a_arr.shape != b_arr.shape:
        raise ValueError(
            f"edit_batch expects aligned equal-shape pair blocks, got "
            f"{a_arr.shape} vs {b_arr.shape}"
        )
    if max_dist < 0:
        raise ValueError(f"max_dist must be non-negative, got {max_dist}")
    if a_arr.shape[0] == 0:
        return np.empty(0)
    out = np.empty(a_arr.shape[0])
    abandoned = 0
    for start in range(0, a_arr.shape[0], _CHUNK_PAIRS):
        stop = start + _CHUNK_PAIRS
        out[start:stop], retired = edit_chunk_wavefront(
            a_arr[start:stop], b_arr[start:stop], max_dist
        )
        abandoned += retired
    if recorder.enabled:
        recorder.count("kernel.edit.invocations")
        recorder.count("kernel.edit.pairs", int(a_arr.shape[0]))
        recorder.count("kernel.edit.abandoned", abandoned)
    return out
