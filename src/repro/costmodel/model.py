"""The disk and CPU cost model.

The paper reports seconds of I/O, join CPU, and preprocessing on a 400 MHz
Pentium II with a real disk.  We do not have that testbed, so (per
DESIGN.md §3) the reproduction charges *deterministic, counted* costs:

* **I/O time** — a linear disk model: every page transfer costs
  ``transfer_s``; a read whose page is not physically adjacent to the last
  page read additionally costs ``seek_s``.  This is exactly the model the
  paper assumes ("a linear disk model", Section 4) and preserves the
  random-vs-sequential distinction that the CC clustering and the
  scheduling optimisation exploit.
* **CPU time** — counted object-pair comparisons times a per-comparison
  cost.  Vector comparisons charge ``cpu_compare_s`` each; sequence (edit
  distance) comparisons are quadratic in window length, which callers
  express through :meth:`CostModel.cpu_cost`'s ``weight`` argument.

All costs are plain floats in seconds, so experiment output reads like the
paper's tables.  The defaults approximate a year-2002 commodity disk doing
1 KB page I/O: ~3 ms effective seek (amortised over OS readahead) and
~1 ms per-page transfer including request overhead.  The seek:transfer
ratio (3:1) matters more than the absolute values — it controls how much
the random-access penalty rewards the paper's locality optimisations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

__all__ = ["CostModel", "DEFAULT_COST_MODEL", "fit_cost_model"]


@dataclass(frozen=True)
class CostModel:
    """Parameters of the simulated machine.

    Attributes
    ----------
    seek_s:
        Cost of one random seek (head movement + rotational delay).
    transfer_s:
        Cost of transferring one page sequentially.  For a different page
        size, scale this linearly (the constructor helper
        :meth:`for_page_size` does so).
    cpu_compare_s:
        Cost of one object-pair distance evaluation of unit weight
        (one d-dimensional vector norm).
    """

    seek_s: float = 0.003
    transfer_s: float = 0.001
    cpu_compare_s: float = 2.0e-7

    def __post_init__(self) -> None:
        if self.seek_s < 0 or self.transfer_s <= 0 or self.cpu_compare_s < 0:
            raise ValueError(
                "seek_s and cpu_compare_s must be >= 0 and transfer_s > 0, got "
                f"seek_s={self.seek_s}, transfer_s={self.transfer_s}, "
                f"cpu_compare_s={self.cpu_compare_s}"
            )

    @classmethod
    def for_page_size(cls, page_kb: float, base: "CostModel | None" = None) -> "CostModel":
        """Cost model with transfer time scaled for a ``page_kb``-KB page.

        The default ``transfer_s`` corresponds to a 1 KB page at ~25 MB/s
        plus per-request overhead; larger pages transfer proportionally
        longer but amortise seeks better — which is why the paper uses 4 KB
        pages for the genome experiments.
        """
        if page_kb <= 0:
            raise ValueError(f"page_kb must be positive, got {page_kb}")
        base = base or DEFAULT_COST_MODEL
        return cls(
            seek_s=base.seek_s,
            transfer_s=base.transfer_s * page_kb,
            cpu_compare_s=base.cpu_compare_s,
        )

    def io_cost(self, transfers: int, seeks: int) -> float:
        """Seconds charged for ``transfers`` page reads with ``seeks`` seeks."""
        if transfers < 0 or seeks < 0:
            raise ValueError("transfers and seeks must be non-negative")
        return transfers * self.transfer_s + seeks * self.seek_s

    def cpu_cost(
        self, comparisons: "float | np.ndarray", weight: float = 1.0
    ) -> "float | np.ndarray":
        """Seconds charged for ``comparisons`` comparisons of given weight.

        ``weight`` expresses how expensive one comparison is relative to a
        plain vector norm (e.g. a banded edit distance over windows of
        length ``w`` with band ``k`` passes ``weight ≈ w * k``).  An array
        of counts gives one charge per element, each the float a scalar
        call on that count returns.
        """
        if weight < 0 or np.min(comparisons, initial=0) < 0:
            raise ValueError("comparisons and weight must be non-negative")
        return comparisons * weight * self.cpu_compare_s


DEFAULT_COST_MODEL = CostModel()


def fit_cost_model(
    samples: Iterable[Mapping[str, float]],
    base: CostModel | None = None,
) -> CostModel:
    """Regress observed stage seconds onto counted ops to suggest parameters.

    Each sample is a mapping with counted ops and the seconds charged for
    them — the shape :class:`repro.obs.explain.JoinExplain` exports as its
    ``calibration`` section::

        {"transfers": int, "seeks": int, "io_seconds": float,
         "comparisons": float, "cpu_seconds": float}

    Two independent least-squares fits are solved:

    * ``io_seconds ~ transfers * transfer_s + seeks * seek_s``
    * ``cpu_seconds ~ comparisons * cpu_compare_s``

    A parameter whose system is degenerate (no samples, all-zero ops, or
    collinear transfer/seek columns) falls back to the corresponding value
    of ``base`` (default :data:`DEFAULT_COST_MODEL`), so calibration never
    fails — it just declines to update what the data cannot identify.
    Fitted values are clamped to the :class:`CostModel` validity domain
    (``transfer_s > 0``, others ``>= 0``).

    On deterministic simulated runs the fit recovers ``seek_s`` and
    ``transfer_s`` exactly (up to float rounding) from two samples with
    independent transfer/seek mixes.
    """
    import numpy as np

    base = base or DEFAULT_COST_MODEL
    rows = list(samples)

    seek_s, transfer_s = base.seek_s, base.transfer_s
    io_rows = [
        r for r in rows
        if float(r.get("transfers", 0)) > 0 or float(r.get("seeks", 0)) > 0
    ]
    if io_rows:
        a = np.array(
            [[float(r.get("transfers", 0)), float(r.get("seeks", 0))] for r in io_rows],
            dtype=np.float64,
        )
        b = np.array([float(r.get("io_seconds", 0.0)) for r in io_rows], dtype=np.float64)
        if np.linalg.matrix_rank(a) == 2:
            fitted, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
            transfer_s = float(fitted[0])
            seek_s = float(fitted[1])
        elif np.any(a[:, 0] > 0) and not np.any(a[:, 1] > 0):
            # Pure-sequential samples identify only the transfer rate.
            transfer_s = float(np.sum(a[:, 0] * b) / np.sum(a[:, 0] ** 2))

    cpu_compare_s = base.cpu_compare_s
    cpu_rows = [r for r in rows if float(r.get("comparisons", 0)) > 0]
    if cpu_rows:
        c = np.array([float(r["comparisons"]) for r in cpu_rows], dtype=np.float64)
        t = np.array([float(r.get("cpu_seconds", 0.0)) for r in cpu_rows], dtype=np.float64)
        cpu_compare_s = float(np.sum(c * t) / np.sum(c * c))

    return CostModel(
        seek_s=max(seek_s, 0.0),
        transfer_s=transfer_s if transfer_s > 0 else base.transfer_s,
        cpu_compare_s=max(cpu_compare_s, 0.0),
    )
