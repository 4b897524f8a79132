"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.join import IndexedDataset
from repro.costmodel import CostModel
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def cost_model():
    """A cost model with easily-distinguished seek and transfer costs."""
    return CostModel(seek_s=0.010, transfer_s=0.001, cpu_compare_s=1e-6)


@pytest.fixture
def disk(cost_model):
    return SimulatedDisk(cost_model)


@pytest.fixture
def pool(disk):
    return BufferPool(disk, capacity=8)


@pytest.fixture
def small_points(rng):
    """A few hundred clustered 2-d points."""
    centers = rng.random((5, 2))
    labels = rng.integers(0, 5, size=300)
    return np.clip(centers[labels] + rng.normal(scale=0.05, size=(300, 2)), 0, 1)


@pytest.fixture
def vector_pair(small_points, rng):
    """Two small indexed vector datasets."""
    other = np.clip(small_points[:200] + rng.normal(scale=0.02, size=(200, 2)), 0, 1)
    r = IndexedDataset.from_points(small_points, page_capacity=16)
    s = IndexedDataset.from_points(other, page_capacity=16)
    return r, s


@pytest.fixture
def dna_dataset():
    from repro.datasets import markov_dna

    return IndexedDataset.from_string(
        markov_dna(1500, seed=3), window_length=10, windows_per_page=32
    )


@pytest.fixture
def fingerprint_twins():
    """Two vector datasets with equal fingerprints and different points.

    A fingerprint covers page boxes and object counts, not every point:
    moving an interior point of the first page to the middle of that
    page's box keeps it.
    """
    twin = IndexedDataset.from_points(
        np.random.default_rng(0).uniform(0, 1, (512, 2)), page_capacity=64
    )
    points = twin.paged.vectors.copy()
    lo, hi = points[:64].min(axis=0), points[:64].max(axis=0)
    inner = next(
        i for i in range(64) if (points[i] > lo).all() and (points[i] < hi).all()
    )
    points[inner] = (lo + hi) / 2
    return twin, IndexedDataset.from_points(points, page_capacity=64)
