"""Sampling-based estimators for join selectivity and matrix density.

Building the full prediction matrix is cheap but not free (it touches
every intersecting node pair); a query optimizer often wants a faster,
rougher answer first.  Two estimators:

* :func:`estimate_matrix_density` — samples random page pairs and applies
  the exact lower-bound box test to each: an unbiased estimate of the
  marked fraction, with a standard-error report;
* :func:`estimate_join_selectivity` — samples random object pairs and
  evaluates the exact distance: an unbiased estimate of the result size.

Both respect the same predicates the real pipeline uses, so their
expectations match what :func:`repro.core.join.join` will encounter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.join import IndexedDataset

__all__ = ["Estimate", "estimate_matrix_density", "estimate_join_selectivity"]


@dataclass(frozen=True)
class Estimate:
    """A sampled proportion with its standard error."""

    proportion: float
    standard_error: float
    samples: int

    def scaled(self, population: int) -> float:
        """The proportion projected onto a population count."""
        return self.proportion * population

    def __str__(self) -> str:
        return (
            f"{self.proportion:.4f} ± {self.standard_error:.4f} "
            f"({self.samples} samples)"
        )


def estimate_matrix_density(
    r: IndexedDataset,
    s: IndexedDataset,
    epsilon: float,
    samples: int = 1000,
    seed: int = 0,
) -> Estimate:
    """Estimate the prediction matrix's marked fraction from page samples.

    Applies the exact leaf-box test (L∞ mindist ≤ ε, i.e. the ε/2-extended
    intersection) to uniformly sampled page pairs.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    boxes_r = r.index.leaf_bounds()
    boxes_s = s.index.leaf_bounds()
    rows = rng.integers(0, len(boxes_r), size=samples)
    cols = rng.integers(0, len(boxes_s), size=samples)
    gap = np.maximum(
        boxes_s.lo[cols] - boxes_r.hi[rows], boxes_r.lo[rows] - boxes_s.hi[cols]
    )
    hits = int(np.count_nonzero(np.maximum(gap.max(axis=1), 0.0) <= epsilon))
    return _proportion(hits, samples)


def estimate_join_selectivity(
    r: IndexedDataset,
    s: IndexedDataset,
    epsilon: float,
    samples: int = 2000,
    seed: int = 0,
) -> Estimate:
    """Estimate the fraction of object pairs within ``epsilon``.

    Samples object pairs uniformly and evaluates the exact join distance
    (vector norm, DTW, or edit distance with the standard banded early
    abandon).  ``estimate.scaled(n_r * n_s)`` approximates the result
    cardinality.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    ids_r = rng.integers(0, r.num_objects, size=samples)
    ids_s = rng.integers(0, s.num_objects, size=samples)
    hits = 0
    if r.kind == "text":
        from repro.distance.edit import edit_distance

        text_r = r.paged.sequence
        text_s = s.paged.sequence
        w = r.paged.window_length
        limit = int(epsilon)
        for a, b in zip(ids_r.tolist(), ids_s.tolist()):
            d = edit_distance(text_r[a : a + w], text_s[b : b + w], max_dist=limit)
            if d <= epsilon:
                hits += 1
    else:
        windows_r = _object_matrix(r)
        windows_s = _object_matrix(s)
        distance = r.distance
        for a, b in zip(ids_r.tolist(), ids_s.tolist()):
            if distance.distance(windows_r[a], windows_s[b]) <= epsilon:
                hits += 1
    return _proportion(hits, samples)


def _object_matrix(dataset: IndexedDataset) -> np.ndarray:
    if dataset.kind == "vector":
        return dataset.paged.vectors
    seq = np.asarray(dataset.paged.sequence)
    return np.lib.stride_tricks.sliding_window_view(
        seq, dataset.paged.window_length
    )


def _proportion(hits: int, samples: int) -> Estimate:
    p = hits / samples
    stderr = math.sqrt(max(p * (1.0 - p), 1e-12) / samples)
    return Estimate(proportion=p, standard_error=stderr, samples=samples)
