"""The subsequence-join operator (Section 3).

Given two sequences (strings or numeric arrays), a window length ``w`` and
a threshold ε, return every pair of start offsets ``(p, q)`` whose
length-``w`` windows are within ε — edit distance for strings, an L_p norm
for numeric sequences.  This is the paper's new join type; it wraps the
generic :func:`repro.core.join.join` machinery over sequence-paged
datasets and their MR/MRS indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.join import IndexedDataset, join
from repro.core.pairs import ResultPairs
from repro.costmodel import CostModel
from repro.distance.frequency import DNA_ALPHABET
from repro.obs.recorder import Recorder
from repro.storage.stats import CostReport

__all__ = ["subsequence_join", "SubsequenceJoinResult"]

SequenceInput = Union[str, np.ndarray]


@dataclass
class SubsequenceJoinResult:
    """Offset pairs plus the cost report of the underlying page join.

    ``offsets`` is the page join's :class:`~repro.core.pairs.ResultPairs`:
    ``(p, q)`` start offsets that read like a list of ``(int, int)``
    tuples, over one read-only ``(n, 2)`` int64 array
    (``np.asarray(result.offsets)``, no copy).
    """

    offsets: ResultPairs
    report: CostReport
    window_length: int

    @property
    def num_pairs(self) -> int:
        return len(self.offsets)


def subsequence_join(
    first: SequenceInput,
    second: Optional[SequenceInput],
    window_length: int,
    epsilon: float,
    method: str = "sc",
    buffer_pages: int = 100,
    windows_per_page: int = 256,
    cost_model: Optional[CostModel] = None,
    alphabet: str = DNA_ALPHABET,
    p: float = 2.0,
    dtw_band: Optional[int] = None,
    seed: int = 0,
    workers: int = 1,
    recorder: Optional[Recorder] = None,
    prefilter=None,
    explain: bool = False,
) -> SubsequenceJoinResult:
    """Find all window pairs of length ``window_length`` within ``epsilon``.

    Pass ``second=None`` (or the same object) for a self join; the result
    then contains each unordered offset pair once, self matches excluded.
    For numeric sequences, ``dtw_band`` switches the distance from the
    L_p norm to banded dynamic time warping.  ``workers > 1`` shards
    cluster execution across worker processes for the clustering
    methods (see :func:`repro.core.join.join`); results and simulated
    I/O are identical to the serial run.  ``recorder`` forwards a
    :class:`repro.obs.Recorder` to the underlying page join for span
    traces and metrics.  ``prefilter`` forwards ``"approximate"`` or a
    :class:`repro.sketch.PrefilterConfig` (the sketch cascade prunes under
    a recall target — see :func:`repro.core.join.join`).  ``explain=True``
    attaches the plan/reconciliation artifact as
    ``result.report.extra["explain"]`` (see
    :class:`repro.obs.explain.JoinExplain`).

    Examples
    --------
    >>> result = subsequence_join("ACGTACGTAC", None, window_length=4,
    ...                           epsilon=0, buffer_pages=4,
    ...                           windows_per_page=2)
    >>> (0, 4) in result.offsets
    True
    """
    if dtw_band is not None and isinstance(first, str):
        raise TypeError("DTW applies to numeric sequences, not strings")
    r = _indexed(first, window_length, windows_per_page, alphabet, p, dtw_band)
    if second is None or second is first:
        s = r
    else:
        if isinstance(first, str) != isinstance(second, str):
            raise TypeError("cannot subsequence-join a string with a numeric sequence")
        s = _indexed(second, window_length, windows_per_page, alphabet, p, dtw_band)
    result = join(
        r, s, epsilon,
        method=method,
        buffer_pages=buffer_pages,
        cost_model=cost_model,
        seed=seed,
        workers=workers,
        recorder=recorder,
        prefilter=prefilter,
        explain=explain,
    )
    return SubsequenceJoinResult(
        offsets=result.pairs,
        report=result.report,
        window_length=window_length,
    )


def _indexed(
    sequence: SequenceInput,
    window_length: int,
    windows_per_page: int,
    alphabet: str,
    p: float,
    dtw_band: Optional[int] = None,
) -> IndexedDataset:
    if isinstance(sequence, str):
        return IndexedDataset.from_string(
            sequence,
            window_length=window_length,
            windows_per_page=windows_per_page,
            alphabet=alphabet,
        )
    return IndexedDataset.from_time_series(
        np.asarray(sequence, dtype=np.float64),
        window_length=window_length,
        windows_per_page=windows_per_page,
        p=p,
        dtw_band=dtw_band,
    )
