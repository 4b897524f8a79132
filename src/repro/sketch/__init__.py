"""Probabilistic prefilter sketches for the prediction matrix.

The paper's MBR lower bounds go flat as dimensionality grows: in high
dimensions almost every page-pair bound falls below ε, so the prediction
matrix marks cells whose true hit probability is negligible — and every
marked cell pays the full filter-and-refine cost downstream.  This
package adds a *sketch cascade* between matrix construction and
clustering:

1. :func:`build_sketches` summarises each page of a dataset once —
   random-projection quantile signatures for vector pages and (PAA-domain)
   sequence windows, minhash signatures over n-gram sets for text pages
   (:mod:`repro.sketch.signatures`).  A join given a
   :class:`~repro.serve.store.ResidentStore` caches them there next to
   the prediction matrix, keyed by the dataset's id and fingerprint plus
   the sketch parameters (:func:`repro.storage.persist.sketch_cache_key`).
2. :func:`plan_prefilter` scores every marked cell with an estimated
   collision probability and selects cells to *unmark*, calibrated
   against ``recall_target`` — :mod:`repro.sketch.cascade`.

``join(..., prefilter=...)`` is the user-facing entry point; see
``docs/architecture.md`` ("Prefilter cascade") for the estimation and
calibration details.
"""

from repro.sketch.config import PrefilterConfig, resolve_prefilter
from repro.sketch.cascade import (
    PrefilterPlan,
    measured_recall,
    plan_prefilter,
    score_cells,
    select_unmark,
)
from repro.sketch.signatures import PageSketches, build_sketches, sketch_params_fingerprint

__all__ = [
    "PrefilterConfig",
    "resolve_prefilter",
    "PageSketches",
    "build_sketches",
    "sketch_params_fingerprint",
    "PrefilterPlan",
    "plan_prefilter",
    "score_cells",
    "select_unmark",
    "measured_recall",
]
