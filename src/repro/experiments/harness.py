"""Generic experiment execution: run methods, sweep buffers, collect reports."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.join import IndexedDataset, join
from repro.costmodel import CostModel
from repro.errors import InfeasibleBufferError
from repro.obs.recorder import Recorder
from repro.storage.stats import CostReport

__all__ = ["MethodRun", "run_methods", "sweep_buffer_sizes"]


@dataclass
class MethodRun:
    """One method's outcome on one configuration (``report=None`` ⇒ infeasible)."""

    method: str
    buffer_pages: int
    report: Optional[CostReport]
    num_pairs: Optional[int]

    @property
    def feasible(self) -> bool:
        return self.report is not None

    @property
    def total_seconds(self) -> Optional[float]:
        return self.report.total_seconds if self.report else None

    @property
    def stage_seconds(self) -> Optional[Dict[str, float]]:
        """Wall-clock seconds per pipeline stage (matrix / clustering /
        scheduling / execution), as measured by :func:`repro.core.join.join`."""
        if self.report is None:
            return None
        return self.report.extra.get("stage_seconds")

    @property
    def explain(self):
        """The run's :class:`~repro.obs.explain.JoinExplain`, when requested."""
        if self.report is None:
            return None
        return self.report.extra.get("explain")


def run_methods(
    r: IndexedDataset,
    s: IndexedDataset,
    epsilon: float,
    methods: Sequence[str],
    buffer_pages: int,
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    matrix_cache: "str | None" = None,
    recorder: Optional[Recorder] = None,
    prefilter=None,
    explain: bool = False,
) -> Dict[str, MethodRun]:
    """Run each method once; infeasible methods yield ``report=None``.

    All runs share the datasets but get a fresh simulated disk and buffer,
    so their cost reports are independent and comparable.  With
    ``matrix_cache`` set, the matrix-based methods share one cached
    prediction matrix instead of rebuilding it per method — the first
    method pays the sweep, the rest load (their ``matrix_seconds`` drop
    to zero, which is the honest accounting: they ran no sweep).  A
    ``recorder`` is shared by every method's join, so its trace carries
    one span tree per method run back to back.

    ``prefilter`` is forwarded to :func:`repro.core.join.join` for the
    matrix-clustering methods (sc/rand-sc/cc); competitor baselines
    (nlj and the index variants) ignore it, matching ``join``'s own
    validation.  The prefilter may legitimately drop result pairs, so
    the cross-method agreement check is skipped when it is on — recall
    is then a measured quantity
    (:func:`repro.sketch.cascade.measured_recall`), not an invariant.

    ``explain=True`` requests the plan/reconciliation artifact from
    every run; read it back via :attr:`MethodRun.explain`.
    """
    from repro.sketch.config import resolve_prefilter

    pf_config = resolve_prefilter(prefilter)
    runs: Dict[str, MethodRun] = {}
    for method in methods:
        try:
            result = join(
                r, s, epsilon,
                method=method,
                buffer_pages=buffer_pages,
                cost_model=cost_model,
                seed=seed,
                count_only=True,
                matrix_cache=matrix_cache,
                recorder=recorder,
                prefilter=(
                    pf_config if method in ("sc", "rand-sc", "cc") else None
                ),
                explain=explain,
            )
        except InfeasibleBufferError:
            runs[method] = MethodRun(method, buffer_pages, None, None)
            continue
        runs[method] = MethodRun(method, buffer_pages, result.report, result.num_pairs)
    if pf_config is None:
        _check_result_agreement(runs)
    return runs


def sweep_buffer_sizes(
    r: IndexedDataset,
    s: IndexedDataset,
    epsilon: float,
    methods: Sequence[str],
    buffer_sizes: Sequence[int],
    cost_model: Optional[CostModel] = None,
    seed: int = 0,
    matrix_cache: "str | None" = None,
    recorder: Optional[Recorder] = None,
    prefilter=None,
    explain: bool = False,
) -> Dict[str, List[MethodRun]]:
    """One :func:`run_methods` per buffer size, grouped per method.

    The prediction matrix does not depend on the buffer size, so a
    ``matrix_cache`` makes the whole sweep build it exactly once (and
    the sketch cache makes any ``prefilter`` sketches build once too).
    """
    per_method: Dict[str, List[MethodRun]] = {method: [] for method in methods}
    for buffer_pages in buffer_sizes:
        runs = run_methods(
            r, s, epsilon, methods, buffer_pages, cost_model=cost_model, seed=seed,
            matrix_cache=matrix_cache, recorder=recorder, prefilter=prefilter,
            explain=explain,
        )
        for method in methods:
            per_method[method].append(runs[method])
    return per_method


def _check_result_agreement(runs: Dict[str, MethodRun]) -> None:
    """All feasible methods must report the same result cardinality.

    Every join method answers the same query, so a disagreement means a
    correctness bug — the harness refuses to report costs built on wrong
    answers.
    """
    counts = {run.num_pairs for run in runs.values() if run.feasible}
    if len(counts) > 1:
        detail = {m: run.num_pairs for m, run in runs.items() if run.feasible}
        raise AssertionError(f"join methods disagree on result size: {detail}")
