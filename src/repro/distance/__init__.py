"""Distance measures and their lower bounds.

The paper targets joins "when the similarity measure can be any metric";
Table 1 lists the concrete instantiations, all implemented here:

* vector norms (L1 / L2 / L∞) for point, spatial and time-series data —
  :class:`MinkowskiDistance`;
* banded DTW for time-series windows — :class:`DTWDistance`,
  :func:`dtw_distance` and the Keogh :func:`envelope`;
* edit distance for string data — :func:`edit_distance`;
* frequency distance, the lower bound of edit distance the MRS-index uses —
  :func:`frequency_distance` / :func:`frequency_vector`.

The classes name a join's measure and its per-comparison CPU weight and
evaluate one pair exactly.  Page pairs are joined only by the
filter-and-refine cascade of
:meth:`repro.core.joiners.PagePairJoiner.join_cluster`.
"""

from repro.distance.dtw import DTWDistance, dtw_distance, envelope
from repro.distance.edit import edit_distance
from repro.distance.frequency import (
    DNA_ALPHABET,
    frequency_distance,
    frequency_vector,
    frequency_vectors_sliding,
)
from repro.distance.vector import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
)

__all__ = [
    "DTWDistance",
    "dtw_distance",
    "envelope",
    "MinkowskiDistance",
    "EuclideanDistance",
    "ManhattanDistance",
    "ChebyshevDistance",
    "edit_distance",
    "frequency_vector",
    "frequency_vectors_sliding",
    "frequency_distance",
    "DNA_ALPHABET",
]
