"""Road-intersection-like 2-D point generator (LBeach / MCounty stand-in).

Real road intersections cluster along a street grid: dense urban cores,
arterial lines, and sparse rural scatter.  The generator mixes those three
components so the R-tree leaf MBRs — and hence the prediction matrix —
show the skewed density the paper's spatial experiments rely on.
Coordinates are normalised to the unit square, matching the paper's ε
values (e.g. ε = 0.1 yields ≈10 % selectivity on LBeach × MCounty).
"""

from __future__ import annotations

import numpy as np

__all__ = ["road_intersections", "LBEACH_SIZE", "MCOUNTY_SIZE"]

LBEACH_SIZE = 53_145
MCOUNTY_SIZE = 39_231

_URBAN_SHARE = 0.55
_GRID_SHARE = 0.35  # remainder is uniform rural scatter


def road_intersections(
    n: int,
    seed: int = 0,
    num_cores: int = 12,
    num_streets: int = 40,
) -> np.ndarray:
    """``(n, 2)`` clustered points in the unit square.

    Parameters
    ----------
    n:
        Number of intersections.
    seed:
        RNG seed; equal seeds give identical datasets.
    num_cores:
        Urban cores (Gaussian blobs).
    num_streets:
        Grid lines (axis-parallel streets points snap to).
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = np.random.default_rng(seed)
    n_urban = int(n * _URBAN_SHARE)
    n_grid = int(n * _GRID_SHARE)
    n_rural = n - n_urban - n_grid

    cores = rng.random((num_cores, 2))
    core_weights = rng.dirichlet(np.ones(num_cores))
    assignments = rng.choice(num_cores, size=n_urban, p=core_weights)
    urban = cores[assignments] + rng.normal(scale=0.025, size=(n_urban, 2))

    # Streets: half horizontal, half vertical lines with jitter.
    street_pos = rng.random(num_streets)
    street_idx = rng.integers(num_streets, size=n_grid)
    along = rng.random(n_grid)
    jitter = rng.normal(scale=0.004, size=n_grid)
    horizontal = street_idx % 2 == 0
    grid = np.empty((n_grid, 2))
    grid[horizontal, 0] = along[horizontal]
    grid[horizontal, 1] = street_pos[street_idx[horizontal]] + jitter[horizontal]
    grid[~horizontal, 0] = street_pos[street_idx[~horizontal]] + jitter[~horizontal]
    grid[~horizontal, 1] = along[~horizontal]

    rural = rng.random((n_rural, 2))
    points = np.concatenate([urban, grid, rural])
    rng.shuffle(points)
    return np.clip(points, 0.0, 1.0)
