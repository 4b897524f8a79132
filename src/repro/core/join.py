"""The top-level similarity-join API.

Build an :class:`IndexedDataset` per input (this is the paper's "datasets
are indexed prior to join operation" step), then call :func:`join` with a
threshold and a method:

``"nlj"``
    Block nested-loop join — the no-information baseline.
``"pm-nlj"``
    NLJ restricted to the prediction matrix's marked page pairs
    (Optimization 1).
``"rand-sc"``
    Square clustering, clusters processed in seeded-random order
    (Optimizations 1–2 — the ablation arm of Figures 10/11).
``"sc"``
    Square clustering with sharing-graph scheduling (Optimizations 1–3 —
    the paper's headline method).
``"cc"``
    Cost-based clustering with sharing-graph scheduling (the approximate
    I/O lower bound of Table 2).
``"ego"``
    Epsilon grid ordering (Böhm et al.), competing technique.
``"bfrj"``
    Breadth-first R-tree join (Huang et al.), competing technique.
``"ekdb"``
    ε-kdB tree join (Shim et al.), extra baseline — point data only.
``"zorder"``
    Z-order sort-merge join (Orenstein), extra baseline — point data only.

Example
-------
>>> import numpy as np
>>> from repro.core.join import IndexedDataset, join
>>> rng = np.random.default_rng(0)
>>> r = IndexedDataset.from_points(rng.random((200, 2)), page_capacity=8)
>>> s = IndexedDataset.from_points(rng.random((150, 2)), page_capacity=8)
>>> result = join(r, s, epsilon=0.05, method="sc", buffer_pages=12)
>>> result.report.method
'sc'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.clusters import Cluster
from repro.core.costcluster import LinearDiskModelCost, cost_clustering
from repro.core.executor import (
    ExecutionOutcome,
    execute_clusters,
    execute_clusters_sharded,
)
from repro.core.joiners import make_numeric_joiner, make_text_joiner, text_dp_weight
from repro.core.pairs import ResultPairs
from repro.core.pm_nlj import pm_nlj_join
from repro.core.prediction import PredictionMatrix
from repro.core.schedule import greedy_cluster_order
from repro.core.square import square_clustering
from repro.core.sweep import SweepStats, build_prediction_matrix, check_matrix_arguments
from repro.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.distance.dtw import DTWDistance
from repro.distance.frequency import DNA_ALPHABET
from repro.distance.vector import MinkowskiDistance
from repro.index.mr import MRIndex
from repro.index.mrs import MRSIndex
from repro.index.node import PageIndex
from repro.index.rstar import build_spatial_page_index
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sketch.cascade import plan_prefilter
from repro.sketch.config import PrefilterConfig, resolve_prefilter
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SequencePagedDataset, VectorPagedDataset
from repro.storage.persist import dataset_fingerprint, matrix_cache_key
from repro.storage.stats import CostReport

if TYPE_CHECKING:
    from repro.serve.store import ResidentStore

__all__ = ["IndexedDataset", "JoinResult", "join", "JOIN_METHODS"]

JOIN_METHODS = ("nlj", "pm-nlj", "rand-sc", "sc", "cc", "ego", "bfrj", "ekdb", "zorder")


@dataclass
class IndexedDataset:
    """A dataset prepared for joining: paged on disk, indexed in memory.

    Use the ``from_*`` constructors; the raw constructor is for advanced
    composition (e.g. custom indexes in tests).
    """

    kind: str  # "vector", "series" or "text"
    paged: "VectorPagedDataset | SequencePagedDataset"
    index: PageIndex
    # Any JoinDistance (Minkowski or DTW); None for text (edit distance is
    # wired through the frequency-filtered text joiner).
    distance: object = None
    features: Optional[np.ndarray] = None
    alphabet: str = DNA_ALPHABET

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        vectors: np.ndarray,
        page_capacity: int = 64,
        p: float = 2.0,
        dataset_id: Optional[str] = None,
    ) -> "IndexedDataset":
        """Point/spatial data under an L_p norm, indexed by an STR-packed R-tree.

        The tree's leaf order defines the on-disk layout (Section 5.1).
        Raises ``ValueError`` on NaN or infinite coordinates.
        """
        page_index, reordered = build_spatial_page_index(
            require_finite(vectors, "point coordinates"), page_capacity
        )
        paged = VectorPagedDataset(
            reordered, page_offsets=page_index.page_offsets, dataset_id=dataset_id
        )
        return cls(
            kind="vector",
            paged=paged,
            index=page_index,
            distance=MinkowskiDistance(p),
        )

    @classmethod
    def from_time_series(
        cls,
        values: np.ndarray,
        window_length: int,
        windows_per_page: int = 256,
        p: float = 2.0,
        feature: str = "raw",
        paa_segments: int = 8,
        fanout: int = 16,
        dtw_band: Optional[int] = None,
        dataset_id: Optional[str] = None,
    ) -> "IndexedDataset":
        """A numeric sequence joined on sliding windows (MR-index).

        With ``dtw_band`` set, the join distance becomes banded dynamic
        time warping: page boxes are widened by the band envelope (so the
        prediction matrix stays complete for DTW) and window pairs are
        verified with an LB_Keogh filter plus the banded DP.  Both sides
        of a join must use the same band.  Raises ``ValueError`` on NaN or
        infinite values.
        """
        paged = SequencePagedDataset(
            require_finite(values, "series values"),
            symbols_per_page=windows_per_page,
            window_length=window_length,
            dataset_id=dataset_id,
        )
        mr = MRIndex(
            paged, feature=feature, paa_segments=paa_segments, fanout=fanout,
            dtw_band=dtw_band,
        )
        if feature == "paa" and p != 2.0:
            raise ValueError("PAA features lower-bound only the Euclidean distance (p=2)")
        if dtw_band is not None:
            distance = DTWDistance(dtw_band)
        else:
            distance = MinkowskiDistance(p)
        return cls(
            kind="series",
            paged=paged,
            index=mr.to_page_index(),
            distance=distance,
            features=mr.features if feature != "raw" else None,
        )

    @classmethod
    def from_string(
        cls,
        text: str,
        window_length: int,
        windows_per_page: int = 256,
        alphabet: str = DNA_ALPHABET,
        fanout: int = 16,
        mrs_base_window: Optional[int] = None,
        dataset_id: Optional[str] = None,
    ) -> "IndexedDataset":
        """A string joined on sliding windows under edit distance (MRS-index).

        With ``mrs_base_window`` set (a divisor of ``window_length``), the
        page boxes are *derived* from an MRS index built at that base
        resolution instead of being computed at ``window_length`` — the
        multi-resolution mode where one persistent index serves many
        window lengths (see :meth:`MRSIndex.derived_boxes`).  Derived
        boxes are looser, so the prediction matrix may mark more pages;
        the result set is unchanged.
        """
        paged = SequencePagedDataset(
            text,
            symbols_per_page=windows_per_page,
            window_length=window_length,
            dataset_id=dataset_id,
        )
        if mrs_base_window is None:
            mrs = MRSIndex(paged, alphabet=alphabet, fanout=fanout)
            index, features = mrs.to_page_index(), mrs.features
        else:
            if mrs_base_window < 1 or window_length % mrs_base_window != 0:
                raise ValueError(
                    f"mrs_base_window ({mrs_base_window}) must divide "
                    f"window_length ({window_length})"
                )
            base_paged = SequencePagedDataset(
                text,
                symbols_per_page=windows_per_page,
                window_length=mrs_base_window,
            )
            base_mrs = MRSIndex(base_paged, alphabet=alphabet, fanout=fanout)
            leaf_boxes = base_mrs.derived_boxes(window_length // mrs_base_window)
            assert len(leaf_boxes) == paged.num_pages
            index = PageIndex.pack(
                leaf_boxes, fanout, np.arange(paged.num_windows, dtype=np.int64)
            )
            # The object-level filter always uses exact window-length
            # frequency vectors (cheap to compute, tight to filter with).
            from repro.distance.frequency import frequency_vectors_sliding

            features = frequency_vectors_sliding(text, window_length, alphabet)
        return cls(
            kind="text",
            paged=paged,
            index=index,
            features=features,
            alphabet=alphabet,
        )

    # -- helpers ------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return self.paged.num_pages

    @property
    def num_objects(self) -> int:
        return self.paged.num_objects

    def full_comparison_weight(self, epsilon: float) -> float:
        """CPU weight of one unfiltered object comparison (NLJ's currency)."""
        if self.kind == "text":
            assert isinstance(self.paged, SequencePagedDataset)
            return text_dp_weight(self.paged.window_length, epsilon)
        assert self.distance is not None
        return self.distance.comparison_weight


@dataclass
class JoinResult:
    """Join output: the matching object-id pairs plus the cost breakdown.

    ``pairs`` is a :class:`~repro.core.pairs.ResultPairs`: it reads like
    a list of ``(int, int)`` tuples, in the executor's order, but holds
    one read-only ``(n, 2)`` int64 array (``np.asarray(result.pairs)``,
    no copy) and builds a tuple only when a pair is read.  With
    ``count_only=True`` it is empty while ``num_pairs`` still reports
    the exact result cardinality.
    """

    pairs: ResultPairs
    report: CostReport
    matrix: Optional[PredictionMatrix] = None
    clusters: Optional[List[Cluster]] = None

    @property
    def num_pairs(self) -> int:
        return self.report.result_pairs


def require_finite(values, what: str) -> np.ndarray:
    """``values`` as a float64 array; ``ValueError`` if any is NaN or ±inf.

    One non-finite coordinate poisons the page boxes it lands in, and the
    prediction matrix then silently drops every pair of those pages.
    """
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite (got NaN or infinity)")
    return arr


def require_positive_int(name: str, value) -> None:
    """``ValueError`` unless ``value`` is a positive int.

    A ``bool`` is not a count; numpy integers are.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < 1
    ):
        raise ValueError(f"{name} must be a positive int, got {value!r}")


def require_same_shape(r: IndexedDataset, s: IndexedDataset) -> None:
    """``ValueError`` unless ``r`` and ``s`` hold objects of one shape.

    The kinds must match, and so must the distance with the feature
    space its boxes live in, the vector dimension, the window length and,
    for text, the alphabet.  The join runs under one distance, the
    kernels compare objects coordinate by coordinate, and the text
    filter's ``FD = L1/2`` identity needs equal window lengths on both
    sides.
    """
    if r.kind != s.kind:
        raise ValueError(f"cannot join datasets of kinds {r.kind!r} and {s.kind!r}")
    metric_r, metric_s = _metric(r), _metric(s)
    if metric_r != metric_s:
        raise ValueError(
            f"cannot join {r.kind} data under {metric_r} with data under {metric_s}"
        )
    if r.kind == "vector":
        if r.paged.dim != s.paged.dim:
            raise ValueError(
                f"cannot join vectors of dimension {r.paged.dim} and {s.paged.dim}"
            )
        return
    if r.paged.window_length != s.paged.window_length:
        raise ValueError(
            f"cannot join windows of length {r.paged.window_length} and "
            f"{s.paged.window_length}"
        )
    if r.kind == "text" and r.alphabet != s.alphabet:
        raise ValueError(
            f"cannot join text over alphabets {r.alphabet!r} and {s.alphabet!r}"
        )


def _check_execution_arguments(buffer_pages, workers, shard_strategy) -> None:
    """``ValueError`` unless ``buffer_pages`` and ``workers`` are positive
    ints and ``shard_strategy`` is ``None``, ``"affinity"`` or a
    ``ShardPlan``.
    """
    # Lazy import: the planner imports this module.
    from repro.core.planner import ShardPlan

    require_positive_int("buffer_pages", buffer_pages)
    require_positive_int("workers", workers)
    if not (
        shard_strategy in (None, "affinity")
        or isinstance(shard_strategy, ShardPlan)
    ):
        raise ValueError(
            "shard_strategy must be None, 'affinity' or a ShardPlan, "
            f"got {shard_strategy!r}"
        )


def _metric(dataset: IndexedDataset) -> str:
    """The distance ``dataset`` joins under, and the space of its boxes."""
    if dataset.kind == "text":
        return "edit distance"
    distance = dataset.distance
    if isinstance(distance, DTWDistance):
        metric = f"DTW with band {distance.band}"
    else:
        metric = f"L{distance.p:g}"
    if dataset.kind == "vector":
        return metric
    if dataset.features is None:
        return f"{metric} over raw windows"
    return f"{metric} over {dataset.features.shape[1]}-segment PAA features"


def join(
    r: IndexedDataset,
    s: IndexedDataset,
    epsilon: float,
    method: str = "sc",
    buffer_pages: int = 100,
    cost_model: Optional[CostModel] = None,
    max_filter_rounds: int = 5,
    seed: int = 0,
    keep_details: bool = False,
    sc_target_aspect: float = 1.0,
    cc_histogram_bins: int = 32,
    count_only: bool = False,
    buffer_policy: str = "lru",
    workers: int = 1,
    matrix_cache: "Optional[ResidentStore]" = None,
    recorder: Optional[Recorder] = None,
    shard_strategy=None,
    prefilter: "None | str | PrefilterConfig" = None,
    explain: bool = False,
    explain_meta: Optional[dict] = None,
) -> JoinResult:
    """Join two indexed datasets: all object pairs within ``epsilon``.

    Pass the same object twice for a self join (the result is then the set
    of unordered pairs with distinct ids).  Raises ``ValueError`` before
    any work for an unknown method, a negative or NaN ``epsilon`` (or an
    infinite one on text), a ``max_filter_rounds`` that is not a
    non-negative int, ``buffer_pages`` or ``workers`` that is not a
    positive int, an unknown ``shard_strategy`` (on every method), or
    sides that :func:`require_same_shape` rejects, and ``TypeError`` for
    a ``matrix_cache`` that is not a store.

    Parameters of note
    ------------------
    method:
        One of :data:`JOIN_METHODS`.
    buffer_pages:
        The simulated buffer size ``B``.
    seed:
        Drives ``rand-sc``'s shuffle and CC's seed-entry choice.
    keep_details:
        Attach the prediction matrix and cluster list to the result.
    count_only:
        Report the result cardinality without materialising the id pairs
        (large experiments produce millions of pairs; the costs are the
        object of study, not the listing).
    buffer_policy:
        Buffer replacement policy; the paper (and the default) is LRU.
        ``"fifo"`` and ``"mru"`` exist for the replacement-policy ablation.
    workers:
        Worker processes for cluster execution (``sc``/``rand-sc``/``cc``
        only; other methods check it, then ignore it).  ``workers > 1``
        runs the process-sharded executor
        (:func:`repro.core.executor.execute_clusters_sharded`): the
        schedule is partitioned into ``workers`` shard-local sets,
        worker processes join them against shared-memory dataset views,
        and the parent replays the full simulated I/O serially — the
        result pairs (in order), every simulated counter, and the Lemma audits
        are bit-identical to ``workers=1``.  See
        ``docs/execution_modes.md``.
    shard_strategy:
        How the sharded executor partitions the schedule.  ``None``
        (default) and ``"affinity"`` both mean the planner's plan
        (:func:`repro.core.planner.plan_shards`); a prepared
        :class:`~repro.core.planner.ShardPlan` is used as given.  Any
        value other than ``None`` shards, even at ``workers=1``.
    matrix_cache:
        A :class:`repro.serve.store.ResidentStore`, or ``None`` (the
        default) to build every matrix.  With a store, the matrix is
        loaded from it when a build keyed by (both datasets' page-box
        fingerprints, ε, ``max_filter_rounds``) was saved before —
        skipping the sweep entirely, with zero sweep operations charged —
        and saved into it after a fresh build otherwise.  Competitor
        methods (which build no matrix) ignore it.  The serving layer
        passes its session's store; anything else that is not ``None``,
        a directory path included, raises ``TypeError``.
    recorder:
        A :class:`repro.obs.Recorder` collecting span traces and metrics
        for this join (see :mod:`repro.obs`).  ``None`` (the default)
        uses the zero-overhead null recorder.  Every stage of the join —
        matrix build, filtering, clustering, scheduling, execution,
        refinement — appears as a named span, and the reported
        ``extra["stage_seconds"]`` values are exactly the top-level stage
        span durations.
    prefilter:
        The sketch-based prefilter cascade (``sc``/``rand-sc``/``cc``
        only; see :mod:`repro.sketch` and ``docs/architecture.md``).
        ``None`` (default) is off.  ``"approximate"`` (or a
        ``PrefilterConfig(recall_target=...)``) scores every marked cell
        with cheap per-page sketches and *unmarks* cells whose estimated
        collision mass falls under a calibrated budget, shrinking the
        work matrix before clustering; the measured recall contract is
        probabilistic and reported through ``prefilter.*`` counters.
        With a ``matrix_cache`` store, each side's sketches are loaded
        from it (keyed by the dataset's id, fingerprint and the sketch
        parameters) or built and saved into it.
    explain:
        When ``True``, assemble a :class:`~repro.obs.explain.JoinExplain`
        artifact — per-stage plan snapshots (matrix, prefilter, cluster
        disk-cost predictions, schedule savings, shard loads) reconciled
        against the observed counters after execution, with signed
        residuals and ``explain.residual.*`` counters — and attach it as
        ``report.extra["explain"]``.  The predicted-vs-observed I/O
        reconciliation closes *exactly* (zero residual) on the simulated
        disk.  Works with every method (competitors get a reduced
        artifact: meta + I/O reconciliation) and any recorder, including
        the default null one.  Off by default and entirely skipped then —
        the explain-off hot path stays under the NullRecorder overhead
        gate.
    explain_meta:
        Extra key/value pairs merged into the EXPLAIN artifact's meta
        block (ignored when ``explain`` is off).  The serving layer tags
        artifacts with the request id and resident-dataset fingerprints
        this way.
    """
    if method not in JOIN_METHODS:
        raise ValueError(f"unknown join method {method!r}; expected one of {JOIN_METHODS}")
    check_matrix_arguments(epsilon, max_filter_rounds)
    _check_execution_arguments(buffer_pages, workers, shard_strategy)
    if matrix_cache is not None:
        from repro.serve.store import ResidentStore  # local: repro.serve imports join

        if not isinstance(matrix_cache, ResidentStore):
            raise TypeError(
                "matrix_cache must be a repro.serve.ResidentStore or None, "
                f"got {type(matrix_cache).__name__}"
            )
    require_same_shape(r, s)
    if r.kind == "text" and np.isinf(epsilon):
        # The banded edit-distance DP takes int(epsilon) as its band.
        raise ValueError(f"text joins need a finite epsilon, got {epsilon}")
    pf_config = resolve_prefilter(prefilter)
    if pf_config is not None and method not in ("sc", "rand-sc", "cc"):
        raise ValueError(
            f"prefilter requires a clustering method (sc, rand-sc, cc), "
            f"got method={method!r}"
        )

    model = cost_model or DEFAULT_COST_MODEL
    rec = recorder if recorder is not None else NULL_RECORDER
    self_join = r is s
    sharded = workers > 1 or shard_strategy is not None
    # None and "affinity" both mean the planner's plan.
    shard_plan = None if shard_strategy in (None, "affinity") else shard_strategy
    disk = SimulatedDisk(model, recorder=rec)
    pool = BufferPool(disk, buffer_pages, policy=buffer_policy)
    pool.attach(r.paged)
    pool.attach(s.paged)
    collector = None
    if explain:
        # Attach before any accounted read so the replayed prediction
        # covers every I/O event of the join (pool.attach reads nothing).
        from repro.obs.explain import ExplainCollector

        collector = ExplainCollector(method, model, recorder=rec)
        collector.watch_disk(disk)
        collector.set_meta(
            epsilon=epsilon,
            buffer_pages=buffer_pages,
            workers=workers,
            shard_strategy=(
                None if not sharded
                else "affinity" if shard_plan is None
                else "custom-plan"
            ),
            self_join=self_join,
            kind=r.kind,
            r_pages=r.num_pages,
            s_pages=s.num_pages,
        )
        if explain_meta:
            collector.set_meta(**explain_meta)
    joiner = _make_joiner(r, s, epsilon, model, self_join, not count_only, rec)

    if method in ("ego", "bfrj", "ekdb", "zorder"):
        return _run_competitor(
            method, r, s, epsilon, pool, joiner, model, self_join, not count_only,
            rec, collector,
        )

    # Wall-clock per stage (host seconds, not simulated-model seconds);
    # the harness report prints these next to the modelled costs.  Spans
    # time even under the null recorder, so stage_seconds always equals
    # the stage span durations exactly.
    stage_seconds = {
        "matrix": 0.0, "prefilter": 0.0, "clustering": 0.0,
        "scheduling": 0.0, "execution": 0.0,
    }
    with rec.span("join.matrix") as matrix_span:
        matrix, sweep_stats, cache_state = _build_or_load_matrix(
            r, s, epsilon, max_filter_rounds, matrix_cache, rec
        )
        if self_join:
            matrix.keep_upper_triangle()
    stage_seconds["matrix"] = matrix_span.duration
    matrix_seconds = model.cpu_cost(sweep_stats.total_operations)
    if collector is not None:
        collector.snapshot_matrix(matrix, sweep_stats, cache_state, matrix_seconds)

    prefilter_info = None
    if pf_config is not None:
        # The cascade scores marked cells against cheap per-page
        # sketches and prunes the matrix before clustering, so the
        # savings compound through scheduling and execution.  No modeled
        # CPU is charged for sketch work — the sketches are an
        # engine-side accelerator outside the paper's cost model; the
        # host cost shows up in ``stage_seconds["prefilter"]``.
        with rec.span("join.prefilter") as pf_span:
            plan = plan_prefilter(
                r, s, matrix, epsilon, pf_config, store=matrix_cache,
                recorder=rec,
            )
            if plan.num_unmarked:
                matrix.unmark_many(plan.unmark_rows, plan.unmark_cols)
        stage_seconds["prefilter"] = pf_span.duration
        prefilter_info = {
            "mode": "approximate",  # the only mode; kept for report readers
            "cells_scored": plan.num_cells,
            "cells_unmarked": plan.num_unmarked,
            "est_recall": plan.est_recall,
        }
        if collector is not None:
            collector.snapshot_prefilter(plan)

    preprocess_seconds = 0.0
    clusters: Optional[List[Cluster]] = None
    if method == "nlj":
        from repro.baselines.nlj import block_nlj

        with rec.span("join.execution") as exec_span:
            outcome = block_nlj(matrix, pool, r, s, joiner, epsilon, model)
        stage_seconds["execution"] = exec_span.duration
    elif method == "pm-nlj":
        with rec.span("join.execution") as exec_span:
            outcome = pm_nlj_join(matrix, pool, r.paged, s.paged, joiner)
        stage_seconds["execution"] = exec_span.duration
    else:  # sc, rand-sc, cc
        with rec.span("join.clustering") as cluster_span:
            clusters, cluster_ops = _build_clusters(
                method, matrix, buffer_pages, disk, r, s, seed,
                sc_target_aspect, cc_histogram_bins, rec,
            )
        stage_seconds["clustering"] = cluster_span.duration
        with rec.span("join.scheduling") as schedule_span:
            ordered, ordering_ops = _order_clusters(method, clusters, r, s, seed, rec)
        stage_seconds["scheduling"] = schedule_span.duration
        preprocess_seconds = model.cpu_cost(cluster_ops + ordering_ops)
        if collector is not None:
            disk_cost = LinearDiskModelCost.from_disk(
                disk, r.paged.dataset_id, s.paged.dataset_id,
                matrix.num_rows, matrix.num_cols,
            )
            collector.snapshot_clusters(
                ordered, disk_cost, r.paged.dataset_id, s.paged.dataset_id
            )
            collector.snapshot_schedule(
                "random" if method == "rand-sc" else "greedy-sharing",
                ordered, r.paged.dataset_id, s.paged.dataset_id,
            )
        explain_auditor = collector.auditor if collector is not None else None
        with rec.span("join.execution") as exec_span:
            if sharded:
                outcome = execute_clusters_sharded(
                    ordered, pool, r.paged, s.paged, joiner, workers=workers,
                    recorder=rec, plan=shard_plan,
                    auditor=explain_auditor, explain=collector,
                )
            else:
                outcome = execute_clusters(
                    ordered, pool, r.paged, s.paged, joiner,
                    recorder=rec, auditor=explain_auditor,
                )
        stage_seconds["execution"] = exec_span.duration
        clusters = ordered

    explain_artifact = None
    if collector is not None:
        explain_artifact = collector.finalize(disk.stats, outcome, stage_seconds)
    report = _assemble_report(
        method, preprocess_seconds, outcome, disk, matrix_seconds=matrix_seconds,
        extra={
            "marked_entries": matrix.num_marked,
            "matrix_density": matrix.density(),
            "matrix_cache": cache_state,
            "num_clusters": len(clusters) if clusters is not None else 0,
            "stage_seconds": stage_seconds,
            **({"prefilter": prefilter_info} if prefilter_info is not None else {}),
            **({"explain": explain_artifact} if explain_artifact is not None else {}),
        },
    )
    return JoinResult(
        pairs=outcome.pairs,
        report=report,
        matrix=matrix if keep_details else None,
        clusters=clusters if keep_details else None,
    )


# -- internals --------------------------------------------------------------------


def _build_or_load_matrix(
    r: IndexedDataset,
    s: IndexedDataset,
    epsilon: float,
    max_filter_rounds: int,
    store: "Optional[ResidentStore]",
    recorder: Recorder = NULL_RECORDER,
):
    """The prediction matrix plus its sweep stats and cache disposition.

    A store hit returns an all-zero ``SweepStats`` — no sweep ran, so no
    sweep operations may be charged to the CPU cost model.  The stored
    matrix is the raw build output; self-join triangle reduction is the
    caller's responsibility (so one entry serves self- and cross-joins).
    """
    key = None
    if store is not None:
        key = matrix_cache_key(
            dataset_fingerprint(r), dataset_fingerprint(s), epsilon, max_filter_rounds
        )
        matrix = store.load_matrix(key)
        if matrix is not None:
            if recorder.enabled:
                recorder.count("matrix.cache_hits")
            return matrix, SweepStats(), "hit"
    matrix, sweep_stats = build_prediction_matrix(
        r.index, s.index, epsilon, max_filter_rounds=max_filter_rounds,
        recorder=recorder,
    )
    if key is None:
        return matrix, sweep_stats, "off"
    store.save_matrix(matrix, key)
    return matrix, sweep_stats, "miss"


def _make_joiner(r, s, epsilon, model, self_join, collect_pairs,
                 recorder: Recorder = NULL_RECORDER):
    if r.kind == "text":
        assert r.features is not None and s.features is not None
        return make_text_joiner(
            r.paged, s.paged, r.features, s.features, epsilon, model, self_join,
            collect_pairs=collect_pairs, recorder=recorder,
        )
    assert r.distance is not None
    return make_numeric_joiner(
        r.paged, s.paged, r.distance, epsilon, model, self_join,
        collect_pairs=collect_pairs, recorder=recorder,
    )


def _build_clusters(
    method: str,
    matrix: PredictionMatrix,
    buffer_pages: int,
    disk: SimulatedDisk,
    r: IndexedDataset,
    s: IndexedDataset,
    seed: int,
    sc_target_aspect: float,
    cc_histogram_bins: int,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[List[Cluster], int]:
    if method == "cc":
        # The incremental cost specialisation of the disk's contiguous
        # extents; computes the same io_cost floats as a
        # disk.cost_of_read_set closure would, without re-sorting the
        # page set per candidate move.
        page_set_cost = LinearDiskModelCost.from_disk(
            disk, r.paged.dataset_id, s.paged.dataset_id,
            matrix.num_rows, matrix.num_cols,
        )
        clusters, stats = cost_clustering(
            matrix,
            buffer_pages,
            page_set_cost,
            histogram_bins=cc_histogram_bins,
            rng=np.random.default_rng(seed),
            recorder=recorder,
        )
        return clusters, stats.total_operations
    clusters, stats = square_clustering(
        matrix, buffer_pages, target_aspect=sc_target_aspect, recorder=recorder
    )
    return clusters, stats.total_operations


def _order_clusters(
    method: str,
    clusters: List[Cluster],
    r: IndexedDataset,
    s: IndexedDataset,
    seed: int,
    recorder: Recorder = NULL_RECORDER,
) -> Tuple[List[Cluster], int]:
    """Schedule clusters; returns (ordered, op count for CPU accounting)."""
    if method == "rand-sc":
        rng = np.random.default_rng(seed)
        ordered = [clusters[k] for k in rng.permutation(len(clusters))]
        return ordered, len(clusters)
    ordered = greedy_cluster_order(
        clusters, r.paged.dataset_id, s.paged.dataset_id, recorder=recorder
    )
    # Sharing-graph construction inspects every cluster pair's page sets.
    return ordered, len(clusters) * max(1, len(clusters) - 1) // 2


def _run_competitor(
    method, r, s, epsilon, pool, joiner, model, self_join, collect_pairs,
    recorder: Recorder = NULL_RECORDER, collector=None,
) -> JoinResult:
    with recorder.span("join.execution") as exec_span:
        if method == "ego":
            from repro.baselines.ego import ego_join

            outcome, preprocess_seconds, extra = ego_join(
                r, s, epsilon, pool, joiner, model, self_join,
                collect_pairs=collect_pairs,
            )
        elif method == "ekdb":
            from repro.baselines.ekdb import ekdb_join

            if r.kind != "vector":
                raise ValueError(
                    "method 'ekdb' joins point data only (the epsilon-kdB tree "
                    "cannot tile sequence windows without replicating them)"
                )
            outcome, preprocess_seconds, extra = ekdb_join(
                r, s, epsilon, pool, model, self_join,
                collect_pairs=collect_pairs,
            )
        elif method == "zorder":
            from repro.baselines.zorder import zorder_join

            if r.kind != "vector":
                raise ValueError(
                    "method 'zorder' joins point data only (sequence windows "
                    "cannot be re-sorted along the curve)"
                )
            outcome, preprocess_seconds, extra = zorder_join(
                r, s, epsilon, pool, model, self_join,
                collect_pairs=collect_pairs,
            )
        else:
            from repro.baselines.bfrj import bfrj_join

            outcome, preprocess_seconds, extra = bfrj_join(
                r, s, epsilon, pool, joiner, model, self_join
            )
    # Competitors interleave their preprocessing with execution, so the
    # whole run is charged to the execution stage.
    extra = dict(extra)
    stage_seconds = {
        "matrix": 0.0,
        "prefilter": 0.0,
        "clustering": 0.0,
        "scheduling": 0.0,
        "execution": exec_span.duration,
    }
    extra["stage_seconds"] = stage_seconds
    if collector is not None:
        # Competitors plan nothing the cost model predicts up front, so
        # the artifact reduces to meta + the I/O reconciliation (which
        # still closes exactly — stream charges are replayed too).
        extra["explain"] = collector.finalize(
            pool.disk.stats, outcome, stage_seconds
        )
    report = _assemble_report(
        method, preprocess_seconds, outcome, pool.disk, matrix_seconds=0.0, extra=extra
    )
    return JoinResult(pairs=outcome.pairs, report=report)


def _assemble_report(
    method: str,
    preprocess_seconds: float,
    outcome: ExecutionOutcome,
    disk: SimulatedDisk,
    matrix_seconds: float,
    extra: dict,
) -> CostReport:
    merged = dict(extra)
    merged["matrix_seconds"] = matrix_seconds
    merged["pages_reused"] = outcome.pages_reused
    return CostReport(
        method=method,
        preprocess_seconds=preprocess_seconds,
        cpu_seconds=outcome.cpu_seconds,
        io_seconds=disk.stats.io_seconds,
        page_reads=disk.stats.transfers,
        seeks=disk.stats.seeks,
        buffer_hits=disk.stats.buffer_hits,
        comparisons=outcome.comparisons,
        result_pairs=outcome.num_pairs,
        extra=merged,
    )
