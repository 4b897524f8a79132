#!/usr/bin/env python
"""Quickstart: join two small spatial datasets with every available method.

Demonstrates the core workflow:

1. generate (or load) point data,
2. wrap each dataset in an :class:`IndexedDataset` — this builds the
   R-tree and lays the data out leaf-contiguously on the simulated disk,
3. call :func:`join` with a distance threshold and a method,
4. read the cost breakdown off the returned report.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import JOIN_METHODS, IndexedDataset, join

def main() -> None:
    rng = np.random.default_rng(42)
    left = IndexedDataset.from_points(rng.random((2_000, 2)), page_capacity=32)
    right = IndexedDataset.from_points(rng.random((1_500, 2)), page_capacity=32)
    epsilon = 0.02
    buffer_pages = 16

    print(f"joining {left.num_objects} x {right.num_objects} points, "
          f"eps={epsilon}, buffer={buffer_pages} pages\n")
    print(f"{'method':>8}  {'pairs':>7}  {'reads':>6}  {'seeks':>5}  "
          f"{'io(s)':>8}  {'cpu(s)':>8}  {'total(s)':>8}")
    for method in JOIN_METHODS:
        result = join(left, right, epsilon, method=method, buffer_pages=buffer_pages)
        r = result.report
        print(f"{method:>8}  {result.num_pairs:>7}  {r.page_reads:>6}  "
              f"{r.seeks:>5}  {r.io_seconds:>8.3f}  {r.cpu_seconds:>8.3f}  "
              f"{r.total_seconds:>8.3f}")

    print("\nAll methods return identical pair sets; they differ only in how"
          "\nmany pages they read and in what order — which is the paper's point.")


if __name__ == "__main__":
    main()
