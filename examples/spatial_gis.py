#!/usr/bin/env python
"""The paper's motivating GIS query: hotels near recreation areas.

"Find all hotels in California that are within three miles of a
recreation area" (Section 1).  We synthesise hotels (clustered along
roads and towns) and recreation areas, index both with R-trees, and
compare the prediction-matrix join against block NLJ across buffer sizes
— the regime where the paper's technique pays off is a buffer much
smaller than the data.

Run:  python examples/spatial_gis.py
"""

import numpy as np

from repro import IndexedDataset, join
from repro.datasets import road_intersections

# Unit square ~ 500 miles across => 3 miles ~ 0.006.
THREE_MILES = 0.006


def main() -> None:
    hotels = IndexedDataset.from_points(
        road_intersections(20_000, seed=11), page_capacity=64,
    )
    parks = IndexedDataset.from_points(
        road_intersections(5_000, seed=23, num_cores=6), page_capacity=64,
    )
    print(f"hotels: {hotels.num_objects} points / {hotels.num_pages} pages")
    print(f"recreation areas: {parks.num_objects} points / {parks.num_pages} pages")

    reference = None
    print(f"\n{'buffer':>6}  {'method':>7}  {'pairs':>6}  {'page reads':>10}  {'total(s)':>9}")
    for buffer_pages in (8, 16, 32, 64):
        for method in ("nlj", "sc"):
            result = join(
                hotels, parks, THREE_MILES, method=method, buffer_pages=buffer_pages
            )
            if reference is None:
                reference = result.num_pairs
            assert result.num_pairs == reference, "methods must agree"
            print(f"{buffer_pages:>6}  {method:>7}  {result.num_pairs:>6}  "
                  f"{result.report.page_reads:>10}  {result.report.total_seconds:>9.3f}")

    sample = join(hotels, parks, THREE_MILES, method="sc", buffer_pages=32)
    print(f"\n{sample.num_pairs} hotel/park pairs within three miles; first five:")
    for hotel_id, park_id in sample.pairs[:5]:
        print(f"  hotel #{hotel_id} <-> recreation area #{park_id}")


if __name__ == "__main__":
    main()
