"""Micro-benchmarks of the individual components.

Not tied to a paper exhibit; these track the wall-clock cost of the
building blocks so performance regressions are visible in isolation.
Kernel and executor benches additionally fold their measurements into
``BENCH_micro.json`` (see ``conftest.record_json_result``) so the perf
trajectory is machine-readable across PRs.

Set ``REPRO_BENCH_QUICK=1`` to shrink workloads for CI smoke runs.
"""

import os
import time

import numpy as np
import pytest

from repro.core.costcluster import cost_clustering
from repro.core.join import IndexedDataset, join
from repro.core.square import square_clustering
from repro.core.sweep import build_prediction_matrix
from repro.datasets import markov_dna, road_intersections
from repro.datasets.landsat import landsat_like
from repro.distance.dtw import dtw_distance
from repro.distance.edit import edit_distance
from repro.distance.frequency import frequency_vectors_sliding
from repro.experiments.figures import (
    GENOME_BUFFER,
    GENOME_COST_MODEL,
    GENOME_EPSILON,
    LANDSAT_COST_MODEL,
    LANDSAT_EPSILON,
    PAPER_PAGES,
    SPATIAL_BUFFER,
    SPATIAL_EPSILON,
    buffers_from_fractions,
    hchr18,
    landsat_pair,
    lbeach_mcounty,
)
from repro.index.rstar import RStarTree, build_spatial_page_index
from repro.kernels import dtw_batch, edit_batch, encode_strings, minkowski_pairs
from repro.obs import NULL_RECORDER
from tests.oracles.sweep_reference import build_prediction_matrix_reference

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"


def _best_of(fn, repeats=2):
    """Best-of-N wall clock (first call also warms caches)."""
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_rstar_bulk_load(benchmark):
    points = road_intersections(20_000, seed=0)
    tree = benchmark(RStarTree.bulk_load_points, points, 64)
    assert len(tree) == 20_000


def test_rstar_insertion(benchmark):
    points = road_intersections(2_000, seed=0)

    def build():
        tree = RStarTree(max_entries=32)
        for k in range(points.shape[0]):
            tree.insert_point(points[k], k)
        return tree

    tree = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(tree) == 2_000


def test_prediction_matrix_build(benchmark):
    r, s = lbeach_mcounty(0.25)
    matrix, _stats = benchmark(
        build_prediction_matrix,
        r.index.root, s.index.root, SPATIAL_EPSILON, r.num_pages, s.num_pages,
    )
    assert matrix.num_marked > 0


def test_square_clustering_speed(benchmark):
    r, s = lbeach_mcounty(0.25)
    matrix, _ = build_prediction_matrix(
        r.index.root, s.index.root, SPATIAL_EPSILON, r.num_pages, s.num_pages
    )
    clusters, _stats = benchmark(square_clustering, matrix, 12)
    assert clusters


def test_cost_clustering_speed(benchmark):
    r, s = lbeach_mcounty(0.25)
    matrix, _ = build_prediction_matrix(
        r.index.root, s.index.root, SPATIAL_EPSILON, r.num_pages, s.num_pages
    )
    clusters, _stats = benchmark.pedantic(
        lambda: cost_clustering(
            matrix, 12, lambda rows, cols: float(len(rows) + len(cols))
        ),
        rounds=1, iterations=1,
    )
    assert clusters


def test_sliding_frequency_vectors(benchmark):
    dna = markov_dna(200_000, seed=0)
    features = benchmark(frequency_vectors_sliding, dna, 192)
    assert features.shape[1] == 4


def test_spatial_page_index(benchmark):
    points = road_intersections(20_000, seed=0)
    page_index, reordered = benchmark(build_spatial_page_index, points, 64)
    assert reordered.shape == points.shape


# -- batched kernel layer (ISSUE 1) ------------------------------------------------
#
# The sequence-join refinement micro-benchmark: candidate window pairs
# pushed through the scalar reference DPs one pair at a time versus one
# batched kernel call.  The acceptance bar is a >= 3x speedup; the
# batched DP amortises the interpreted loop over the whole block, so the
# observed factor is typically an order of magnitude.


def test_refinement_kernel_speedup(record_json):
    rng = np.random.default_rng(0)
    pairs = 400 if QUICK else 4_000
    w, band, eps = 64, 4, 3.0

    a = rng.normal(size=(pairs, w)).cumsum(axis=1)
    b = a + rng.normal(scale=0.2, size=(pairs, w))
    scalar_s, scalar_dtw = _best_of(
        lambda: np.array(
            [dtw_distance(a[k], b[k], band, max_dist=eps) for k in range(pairs)]
        )
    )
    batch_s, batch_dtw = _best_of(lambda: dtw_batch(a, b, band, max_dist=eps))
    assert np.array_equal(scalar_dtw, batch_dtw)
    dtw_speedup = scalar_s / batch_s

    dna = markov_dna(pairs + w, seed=1)
    left = [dna[k : k + w] for k in range(pairs)]
    mutated = list(dna)
    for pos in rng.choice(len(mutated), size=len(mutated) // 12, replace=False):
        mutated[pos] = "ACGT"[rng.integers(4)]
    right = ["".join(mutated[k : k + w]) for k in range(pairs)]
    limit = 4
    edit_scalar_s, scalar_ed = _best_of(
        lambda: np.array(
            [edit_distance(s, t, max_dist=limit) for s, t in zip(left, right)]
        )
    )
    lc, rc = encode_strings(left), encode_strings(right)
    edit_batch_s, batch_ed = _best_of(lambda: edit_batch(lc, rc, limit))
    assert np.array_equal(scalar_ed, batch_ed)
    edit_speedup = edit_scalar_s / edit_batch_s

    record_json(
        "refinement_kernels",
        {
            "pairs": pairs,
            "window_length": w,
            "dtw": {
                "band": band,
                "scalar_seconds": scalar_s,
                "batched_seconds": batch_s,
                "speedup": dtw_speedup,
            },
            "edit": {
                "threshold": limit,
                "scalar_seconds": edit_scalar_s,
                "batched_seconds": edit_batch_s,
                "speedup": edit_speedup,
            },
        },
    )
    assert dtw_speedup >= 3.0
    assert edit_speedup >= 3.0


# -- wavefront kernels -----------------------------------------------------------------
#
# The wavefront DTW/edit chunk kernels against the row-by-row oracle
# they replaced (tests/oracles/kernels.py), called directly on two
# workloads: *survivor-heavy* (perturbed pairs — what the DP actually
# sees after LB_Keogh / frequency-distance filtering, where most pairs
# run the full band) and *abandon-heavy* (distant pairs that die within
# a few rows — recorded for honesty, not gated: a row is only provably
# complete once ~band further anti-diagonals have been swept, so on
# instant-abandon input the wavefront can trail the row kernel's
# immediate exit).  Distances and abandon counts must be bitwise equal
# to the oracle's; the wavefront's combined survivor-heavy speedup is
# the gated contract (>= 3x).  Quick mode keeps the full workload —
# shrinking the batch changes the interpreter-overhead balance and
# makes the recorded ratios incomparable with the committed full-run
# baseline.


def test_wavefront_kernel_speedup(record_json):
    from repro.kernels.wavefront import dtw_chunk_wavefront, edit_chunk_wavefront
    from tests.oracles.kernels import _dtw_chunk, _edit_chunk

    rng = np.random.default_rng(8)
    pairs, w, band = 4_000, 64, 4
    repeats = 2 if QUICK else 3

    a = rng.normal(size=(pairs, w)).cumsum(axis=1)
    survivors_b = a + rng.normal(scale=0.3, size=(pairs, w))
    abandon_b = a + rng.normal(loc=8.0, scale=2.0, size=(pairs, w))
    eps = 3.0

    dna = markov_dna(pairs + w, seed=9)
    left = [dna[k : k + w] for k in range(pairs)]
    mutated = list(dna)
    for pos in rng.choice(len(mutated), size=len(mutated) // 12, replace=False):
        mutated[pos] = "ACGT"[rng.integers(4)]
    lc = encode_strings(left)
    survivors_rc = encode_strings(["".join(mutated[k : k + w]) for k in range(pairs)])
    abandon_rc = encode_strings(
        ["".join("ACGT"[c] for c in rng.integers(4, size=w)) for _ in range(pairs)]
    )
    limit = 8

    workloads = {
        "survivor_heavy": (survivors_b, survivors_rc),
        "abandon_heavy": (abandon_b, abandon_rc),
    }
    section = {"pairs": pairs, "window_length": w, "band": band,
               "dtw_epsilon": eps, "edit_threshold": limit}
    for workload, (b, rc) in workloads.items():
        base_dtw_s, base_dtw = _best_of(
            lambda b=b: _dtw_chunk(a, b, band, eps), repeats=repeats
        )
        base_edit_s, base_edit = _best_of(
            lambda rc=rc: _edit_chunk(lc, rc, limit), repeats=repeats
        )
        dtw_s, dtw_out = _best_of(
            lambda b=b: dtw_chunk_wavefront(a, b, band, eps), repeats=repeats
        )
        edit_s, edit_out = _best_of(
            lambda rc=rc: edit_chunk_wavefront(lc, rc, limit), repeats=repeats
        )
        for got, want in ((dtw_out, base_dtw), (edit_out, base_edit)):
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        section[workload] = {
            "row_oracle": {"dtw_seconds": base_dtw_s, "edit_seconds": base_edit_s},
            "wavefront": {
                "dtw_seconds": dtw_s,
                "edit_seconds": edit_s,
                "dtw": {"speedup": base_dtw_s / dtw_s},
                "edit": {"speedup": base_edit_s / edit_s},
                "combined": {
                    "speedup": (base_dtw_s + base_edit_s) / (dtw_s + edit_s)
                },
            },
        }

    record_json("wavefront_kernels", section)
    gated = section["survivor_heavy"]["wavefront"]["combined"]["speedup"]
    assert gated >= 3.0


def test_minkowski_gram_filter_speedup(record_json):
    """Gram prefilter + gathered refine vs the difference-tensor reference."""
    rng = np.random.default_rng(2)
    # Quick mode keeps the full workload (shrinking n changes the
    # matmul-vs-broadcast balance and makes the recorded speedup
    # incomparable with the committed full-run baseline).
    n = 4_000
    d, eps = 16, 1.0  # ~0.6% selectivity: the refine stage does real work
    left = rng.random((n, d))
    right = rng.random((n, d))

    def reference():
        found = []
        for start in range(0, n, 1024):
            chunk = left[start : start + 1024]
            diff = chunk[:, None, :] - right[None, :, :]
            dist = np.sqrt(np.sum(diff * diff, axis=2))
            rows, cols = np.nonzero(dist <= eps)
            found.extend(zip((rows + start).tolist(), cols.tolist()))
        return found

    repeats = 3 if QUICK else 5
    ref_s, ref_pairs = _best_of(reference, repeats=repeats)
    kern_s, kern_pairs = _best_of(
        lambda: minkowski_pairs(left, right, eps, 2.0), repeats=repeats
    )
    assert kern_pairs == ref_pairs
    record_json(
        "minkowski_gram_filter",
        {
            "points": n,
            "dim": d,
            "epsilon": eps,
            "result_pairs": len(ref_pairs),
            "reference_seconds": ref_s,
            "kernel_seconds": kern_s,
            "speedup": ref_s / kern_s,
        },
    )
    assert ref_s / kern_s > 1.0


# -- matrix construction (ISSUE 2) -------------------------------------------------
#
# The prediction-matrix build: the scalar reference pipeline (per-Rect
# event sweep + Rect-list iterative filter, frozen in
# ``tests/oracles/sweep_reference.py``) versus the struct-of-arrays block
# sweep, on identical hierarchies.  Marks and stats must agree exactly;
# the acceptance bar is a >= 5x speedup on the 64-page/16-dim workload.
# Quick mode shrinks repeats, never the workload, so the recorded
# speedups stay comparable across runs.


def test_matrix_build_speedup(record_json):
    repeats = 1 if QUICK else 3
    pages, capacity = 64, 32
    # 2-d: uniform points (roads regime); 16/64-d: landsat-like correlated
    # features — high-d uniform data saturates the matrix (curse of
    # dimensionality), which would benchmark a degenerate all-pairs case.
    workloads = [
        (2, 0.05, "uniform"),
        (16, 0.25, "landsat"),
        (64, 0.45, "landsat"),
    ]
    rng = np.random.default_rng(7)
    rows = {}
    for dim, epsilon, generator in workloads:
        if generator == "uniform":
            pts_r = rng.random((pages * capacity, dim))
            pts_s = rng.random((pages * capacity, dim))
        else:
            pts_r = landsat_like(pages * capacity, dim=dim, seed=1)
            pts_s = landsat_like(pages * capacity, dim=dim, seed=2)
        r = IndexedDataset.from_points(pts_r, page_capacity=capacity)
        s = IndexedDataset.from_points(pts_s, page_capacity=capacity)
        args = (r.index.root, s.index.root, epsilon, r.num_pages, s.num_pages)
        ref_s, (ref_matrix, ref_stats) = _best_of(
            lambda: build_prediction_matrix_reference(*args), repeats
        )
        vec_s, (vec_matrix, vec_stats) = _best_of(
            lambda: build_prediction_matrix(*args), repeats
        )
        assert vec_matrix == ref_matrix
        assert vec_stats == ref_stats
        rows[str(dim)] = {
            "dim": dim,
            "epsilon": epsilon,
            "generator": generator,
            "marked": vec_matrix.num_marked,
            "density": vec_matrix.density(),
            "sweep_operations": vec_stats.total_operations,
            "reference_seconds": ref_s,
            "vectorized_seconds": vec_s,
            "speedup": ref_s / vec_s,
        }
    record_json(
        "matrix_build",
        {"pages_per_side": pages, "page_capacity": capacity, "rows": rows},
    )
    # Acceptance: >= 5x on the 64-page/16-dim workload; the others must
    # at least clearly beat the scalar pipeline.
    assert rows["16"]["speedup"] >= 5.0
    assert rows["2"]["speedup"] >= 2.0
    assert rows["64"]["speedup"] >= 2.0


def test_parallel_cluster_execution(record_json):
    """Serial vs 2-worker cluster execution on a multi-cluster DTW join.

    The contract is determinism first: identical pairs and identical
    simulated page reads.  Wall-clock speedup depends on the host's core
    count (this container may expose a single CPU, capping it at ~1x);
    the measured factor is recorded either way.
    """
    rng = np.random.default_rng(3)
    seq = rng.normal(size=2_000 if QUICK else 8_000).cumsum()
    ds = IndexedDataset.from_time_series(
        seq, window_length=24, windows_per_page=64, dtw_band=3
    )

    serial_s, serial = _best_of(
        lambda: join(ds, ds, 1.0, method="sc", buffer_pages=16, workers=1)
    )
    parallel_s, parallel = _best_of(
        lambda: join(ds, ds, 1.0, method="sc", buffer_pages=16, workers=2)
    )
    assert parallel.pairs == serial.pairs
    assert parallel.report.page_reads == serial.report.page_reads
    assert parallel.report.seeks == serial.report.seeks
    record_json(
        "parallel_cluster_execution",
        {
            "windows": int(ds.num_objects),
            "clusters": serial.report.extra["num_clusters"],
            "workers": 2,
            "cpu_count": os.cpu_count(),
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s,
            "page_reads_serial": serial.report.page_reads,
            "page_reads_parallel": parallel.report.page_reads,
            "result_pairs": serial.num_pairs,
        },
    )


# -- end-to-end join: mega-batch vs per-pair execution (ISSUE 5) -------------------
#
# Full join() wall clock on Figure-10/11-style configs, cluster-granular
# mega-batch (the default) against the classic per-page-pair path
# (batch_pairs=1).  Both paths produce bit-identical pairs and simulated
# accounting — pinned by tests/core/test_megabatch_equivalence.py — so
# the only difference the bench can see is wall clock.


def _join_e2e_runs(r, s, epsilon, buffer_pages, workers, batch_pairs, repeats):
    """Best-of-N wall clock and execution-stage seconds, plus one result."""
    best_total, best_exec, result = float("inf"), float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = join(
            r, s, epsilon, method="sc", buffer_pages=buffer_pages,
            workers=workers, batch_pairs=batch_pairs,
        )
        best_total = min(best_total, time.perf_counter() - t0)
        best_exec = min(
            best_exec, result.report.extra["stage_seconds"]["execution"]
        )
    return best_total, best_exec, result


def _join_e2e_row(r, s, epsilon, buffer_pages, workers, repeats):
    per_s, per_exec, per = _join_e2e_runs(
        r, s, epsilon, buffer_pages, workers, 1, repeats
    )
    mega_s, mega_exec, mega = _join_e2e_runs(
        r, s, epsilon, buffer_pages, workers, None, repeats
    )
    assert mega.pairs == per.pairs
    assert mega.report.page_reads == per.report.page_reads
    assert mega.report.seeks == per.report.seeks
    return {
        "workers": workers,
        "per_pair_seconds": per_s,
        "megabatch_seconds": mega_s,
        "speedup": per_s / mega_s,
        "per_pair_exec_seconds": per_exec,
        "megabatch_exec_seconds": mega_exec,
        "exec_speedup": per_exec / mega_exec,
        "result_pairs": mega.num_pairs,
    }


def test_join_e2e_speedup(record_json):
    """Mega-batch vs per-pair full-join wall clock, Figure 10/11 style.

    The spatial row is the Figure 10 shape (LBeach × MCounty stand-ins,
    B preserving the paper's buffer-to-page ratio) at a reduced scale
    with ε chosen for a comparable join density; the genome row is the
    Figure 11 shape (HChr18 self join).  The spatial mega-batch win is
    the headline gate; the genome join is frequency-filter-bound (equal
    FLOPs on both paths), so its expected factor is smaller.
    """
    repeats = 1 if QUICK else 2
    r, s = lbeach_mcounty(0.5, seed=0)
    buffer_pages = buffers_from_fractions(
        r.num_pages, [25 / PAPER_PAGES["lbeach"]], minimum=SPATIAL_BUFFER
    )[0]
    spatial_eps = 2 * SPATIAL_EPSILON
    spatial = {
        f"workers_{w}": _join_e2e_row(r, s, spatial_eps, buffer_pages, w, repeats)
        for w in (1, 2)
    }

    genome = hchr18(0.005, seed=0)
    genome_row = _join_e2e_row(
        genome, genome, GENOME_EPSILON, GENOME_BUFFER, 1, repeats
    )

    record_json(
        "join_e2e",
        {
            "spatial": {
                "pages": [int(r.num_pages), int(s.num_pages)],
                "buffer_pages": int(buffer_pages),
                "epsilon": spatial_eps,
                **spatial,
            },
            "genome": {
                "pages": int(genome.num_pages),
                "buffer_pages": int(GENOME_BUFFER),
                "epsilon": GENOME_EPSILON,
                "workers_1": genome_row,
            },
        },
    )
    assert spatial["workers_1"]["speedup"] >= (2.0 if QUICK else 3.0)
    assert spatial["workers_2"]["speedup"] >= (1.5 if QUICK else 2.0)
    assert genome_row["speedup"] >= (1.0 if QUICK else 1.2)


# -- sharded process execution (ISSUE 6) -------------------------------------------
#
# Process-parallel sharded join vs serial, on the Figure-10/11-style
# configs.  Correctness is asserted unconditionally — the merged pairs
# list and the summed simulated counters are bit-identical to serial at
# every worker count.  The wall-clock speedup is recorded honestly at
# workers = 1, 2, 4; the >= 2x acceptance gate only applies where it is
# physically possible (hosts with >= 4 CPUs — this container may expose
# a single core, which caps any process pool at ~1x).


def _sharded_row(r, s, epsilon, buffer_pages, workers, repeats):
    strategy = "affinity" if workers > 1 else None
    best, result = _best_of(
        lambda: join(
            r, s, epsilon, method="sc", buffer_pages=buffer_pages,
            workers=workers, shard_strategy=strategy,
        ),
        repeats,
    )
    return best, result


def test_sharded_join_speedup(record_json):
    repeats = 1 if QUICK else 2
    r, s = lbeach_mcounty(0.5, seed=0)
    buffer_pages = buffers_from_fractions(
        r.num_pages, [25 / PAPER_PAGES["lbeach"]], minimum=SPATIAL_BUFFER
    )[0]
    spatial_eps = 2 * SPATIAL_EPSILON
    genome = hchr18(0.005, seed=0)

    sections = {}
    for name, (jr, js, eps, buf) in {
        "spatial": (r, s, spatial_eps, buffer_pages),
        "genome": (genome, genome, GENOME_EPSILON, GENOME_BUFFER),
    }.items():
        rows = {}
        serial_s, serial = _sharded_row(jr, js, eps, buf, 1, repeats)
        rows["workers_1"] = {
            "seconds": serial_s,
            "speedup": 1.0,
            "result_pairs": serial.num_pairs,
        }
        for workers in (2, 4):
            sharded_s, sharded = _sharded_row(jr, js, eps, buf, workers, repeats)
            assert sharded.pairs == serial.pairs
            assert sharded.report.page_reads == serial.report.page_reads
            assert sharded.report.seeks == serial.report.seeks
            rows[f"workers_{workers}"] = {
                "seconds": sharded_s,
                "speedup": serial_s / sharded_s,
                "result_pairs": sharded.num_pairs,
            }
        sections[name] = {
            "pages": [int(jr.num_pages), int(js.num_pages)],
            "buffer_pages": int(buf),
            "epsilon": eps,
            "strategy": "affinity",
            **rows,
        }

    record_json(
        "sharding",
        {"cpu_count": os.cpu_count(), **sections},
    )
    # The parallel gate needs parallel hardware; correctness asserts above
    # ran unconditionally.
    if (os.cpu_count() or 1) >= 4 and not QUICK:
        assert sections["spatial"]["workers_4"]["speedup"] >= 2.0


# -- sketch prefilter cascade (ISSUE 7) --------------------------------------------
#
# The approximate prefilter unmarks cells whose estimated collision
# mass is negligible; the headline gate is the genome self join
# (192-symbol windows, d >= 16): >= 1.5x end to end at measured recall
# >= the 0.99 target.  The landsat and spatial rows are recorded
# honestly: their pages are index-localised, so the marginal
# (per-projection) sketches can rarely rule a cell out and the cascade
# mostly pays its scoring cost for nothing.


def _prefilter_row(r, s, eps, buf, cost_model, cache, repeats):
    from repro.sketch.cascade import measured_recall
    from repro.sketch.config import PrefilterConfig

    def run(prefilter):
        return join(
            r, s, eps, method="sc", buffer_pages=buf, cost_model=cost_model,
            matrix_cache=cache, prefilter=prefilter,
        )

    approx_config = PrefilterConfig(recall_target=0.99)
    run(approx_config)  # warm the matrix + sketch caches for every arm
    base_s, base = _best_of(lambda: run(None), repeats)
    approx_s, approx = _best_of(lambda: run(approx_config), repeats)
    recall = measured_recall(base, approx)
    info = approx.report.extra["prefilter"]
    return {
        "base_seconds": base_s,
        "approximate_seconds": approx_s,
        "speedup": base_s / approx_s,
        "recall_target": 0.99,
        "recall_measured": recall,
        "est_recall": info["est_recall"],
        "cells_scored": info["cells_scored"],
        "cells_unmarked": info["cells_unmarked"],
        "result_pairs": base.num_pairs,
    }


def test_prefilter_cascade(record_json, tmp_path):
    repeats = 1 if QUICK else 2
    genome = hchr18(0.005 if QUICK else 0.008, seed=0)
    genome_row = _prefilter_row(
        genome, genome, GENOME_EPSILON, GENOME_BUFFER, GENOME_COST_MODEL,
        tmp_path / "genome", repeats,
    )

    r, s = lbeach_mcounty(0.3, seed=0)
    spatial_row = _prefilter_row(
        r, s, SPATIAL_EPSILON, SPATIAL_BUFFER, None, tmp_path / "spatial", repeats
    )

    lr, ls = landsat_pair(0.1, seed=0)
    landsat_row = _prefilter_row(
        lr, ls, LANDSAT_EPSILON, 100, LANDSAT_COST_MODEL,
        tmp_path / "landsat", repeats,
    )

    record_json(
        "prefilter",
        {
            "genome": {
                "pages": int(genome.num_pages),
                "window_length": 192,
                **genome_row,
            },
            "spatial": {"pages": [int(r.num_pages), int(s.num_pages)], **spatial_row},
            "landsat": {
                "pages": [int(lr.num_pages), int(ls.num_pages)],
                "dim": 60,
                **landsat_row,
            },
        },
    )
    # Recall is a correctness-style contract: gate on every config.
    for row in (genome_row, spatial_row, landsat_row):
        assert row["recall_measured"] >= 0.99
    # Headline perf gates on the genome config (d >= 16, execution-bound).
    assert genome_row["speedup"] >= (1.2 if QUICK else 1.5)


# -- observability overhead (ISSUE 4) ----------------------------------------------
#
# The telemetry contract: the default NullRecorder must cost < 2% of a
# standard SC join.  A no-op call is too cheap to resolve by differencing
# two join timings (run-to-run noise swamps it), so the overhead is
# measured directly: count every recorder invocation the join makes (via
# a counting recorder whose ``enabled`` flag matches the null path), then
# multiply by the measured per-call cost of the null methods.  The
# recording implementations are timed honestly, as whole-join runs.


class _CountingNullRecorder:
    """Counts protocol invocations with the null recorder's call profile.

    ``enabled`` stays False so every ``if recorder.enabled:`` site skips
    its work exactly as under :data:`NULL_RECORDER`; what remains — and
    what this class tallies — are the unconditional no-op calls.
    """

    enabled = False

    def __init__(self):
        self.span_calls = 0
        self.cheap_calls = 0

    def span(self, name, **attrs):
        self.span_calls += 1
        return NULL_RECORDER.span(name, **attrs)

    def count(self, name, value=1):
        self.cheap_calls += 1

    def observe(self, name, value):
        self.cheap_calls += 1

    def event(self, name, **fields):
        self.cheap_calls += 1

    def counter(self, name):
        return 0

    def close(self):
        pass


def _per_call_seconds(fn, calls=200_000):
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def test_observability_overhead(record_json, tmp_path):
    from repro.obs import InMemoryRecorder, JsonlRecorder

    repeats = 1 if QUICK else 2
    r, s = lbeach_mcounty(0.25)
    buffer_pages = 12

    def run(recorder=None, explain=False):
        return join(
            r, s, SPATIAL_EPSILON, method="sc", buffer_pages=buffer_pages,
            count_only=True, recorder=recorder, explain=explain,
        )

    join_s, result = _best_of(run, repeats)

    counting = _CountingNullRecorder()
    counted = run(recorder=counting)
    assert counted.num_pairs == result.num_pairs

    def one_null_span():
        with NULL_RECORDER.span("bench"):
            pass

    span_cost = _per_call_seconds(one_null_span)
    cheap_cost = _per_call_seconds(lambda: NULL_RECORDER.count("bench"))
    overhead_s = counting.span_calls * span_cost + counting.cheap_calls * cheap_cost
    overhead_pct = 100.0 * overhead_s / join_s

    memory_s, memory_result = _best_of(lambda: run(InMemoryRecorder()), repeats)
    assert memory_result.num_pairs == result.num_pairs

    def jsonl_run():
        rec = JsonlRecorder(tmp_path / "bench_trace.jsonl")
        try:
            return run(rec)
        finally:
            rec.close()

    jsonl_s, jsonl_result = _best_of(jsonl_run, repeats)
    assert jsonl_result.num_pairs == result.num_pairs

    # EXPLAIN overhead (ISSUE 9).  Off is the default path — its "cost"
    # is the plumbed-but-dormant collector branches — so it must stay
    # inside the same 2% budget as the NullRecorder.  On pays for plan
    # snapshots, the disk-replay subscription and reconciliation; it is
    # recorded for honesty but not gated.  The three timings interleave
    # (baseline/off/on per round, best-of over rounds) because sequential
    # measurement phases drift by more than the effect being measured.
    explain_repeats = max(repeats, 3)
    base_times, off_times, on_times = [], [], []
    for _ in range(explain_repeats):
        for times, kwargs in (
            (base_times, {}),
            (off_times, {"explain": False}),
            (on_times, {"explain": True}),
        ):
            t0 = time.perf_counter()
            timed_result = run(**kwargs)
            times.append(time.perf_counter() - t0)
            assert timed_result.num_pairs == result.num_pairs
            if kwargs.get("explain"):
                explain = timed_result.report.extra["explain"]
                assert explain.io_residual_seconds == 0.0
    baseline_s = min(base_times)
    explain_off_s = min(off_times)
    explain_on_s = min(on_times)
    explain_off_pct = 100.0 * (explain_off_s - baseline_s) / baseline_s
    explain_on_pct = 100.0 * (explain_on_s - baseline_s) / baseline_s

    record_json(
        "observability",
        {
            "workload": "lbeach_mcounty(0.25) sc join",
            "buffer_pages": buffer_pages,
            "join_seconds": join_s,
            "null": {
                "span_calls": counting.span_calls,
                "cheap_calls": counting.cheap_calls,
                "span_call_seconds": span_cost,
                "cheap_call_seconds": cheap_cost,
                "overhead_seconds": overhead_s,
                "overhead_pct": overhead_pct,
                # Gate-compatible ratio: how many times the instrumented
                # join's cost the no-op telemetry layer could pay for.
                "speedup": join_s / overhead_s,
            },
            "in_memory": {
                "join_seconds": memory_s,
                "overhead_pct": 100.0 * (memory_s - join_s) / join_s,
            },
            "jsonl": {
                "join_seconds": jsonl_s,
                "overhead_pct": 100.0 * (jsonl_s - join_s) / join_s,
            },
            "explain": {
                "off_seconds": explain_off_s,
                "off_overhead_pct": explain_off_pct,
                "on_seconds": explain_on_s,
                "on_overhead_pct": explain_on_pct,
            },
        },
    )
    # Acceptance: the default recorder costs < 2% of a standard SC join,
    # and so does the dormant explain plumbing (ISSUE 9).
    assert overhead_pct < 2.0
    assert explain_off_pct < 2.0


def _dense_prediction_matrix(pages, density, seed):
    from repro.core.prediction import PredictionMatrix

    matrix = PredictionMatrix(pages, pages)
    if density >= 1.0:
        rows, cols = np.nonzero(np.ones((pages, pages), dtype=bool))
    else:
        rng = np.random.default_rng(seed)
        mask = rng.random((pages, pages)) < density
        mask[0, 0] = True  # never empty
        rows, cols = np.nonzero(mask)
    matrix.mark_many(rows, cols)
    return matrix


def _set_based_closure(row_blocks, col_blocks, model):
    """The per-candidate page-set cost the frozen reference CC evaluates."""

    def page_set_cost(rows, cols):
        blocks = sorted(
            {int(row_blocks[r]) for r in rows} | {int(col_blocks[c]) for c in cols}
        )
        if not blocks:
            return 0.0
        seeks = 1 + sum(1 for prev, cur in zip(blocks, blocks[1:]) if cur != prev + 1)
        return model.io_cost(transfers=len(blocks), seeks=seeks)

    return page_set_cost


def test_clustering_pipeline_speedup(record_json):
    """Vectorised clustering pipeline vs the frozen scalar references.

    Every timed pair also asserts bit-identical output (cluster entries,
    stats counters, schedule order), so the speedups compare equivalent
    work.  The headline metric is the CC-pipeline composite (cost
    clustering + greedy scheduling, the paper's flagship path) on a dense
    matrix; SC speedups are gated too: the density/size crossover in
    ``square_clustering`` dispatches tiny-cluster workloads to a scalar
    sweep, so small-B SC must no longer regress below parity.
    """
    from tests.oracles.clusters_reference import (
        cost_clustering_reference,
        greedy_cluster_order_reference,
        square_clustering_reference,
    )
    from repro.core.costcluster import LinearDiskModelCost
    from repro.core.schedule import greedy_cluster_order
    from repro.costmodel import DEFAULT_COST_MODEL

    # Same workload in QUICK mode (fewer repeats only): the regression
    # gate compares CI's QUICK speedups against the committed full-run
    # baseline, so the workload must match for the ratios to be stable.
    pages = 128
    repeats = 1 if QUICK else 2
    buffer_pages = 8
    row_blocks = np.arange(pages, dtype=np.int64)
    col_blocks = pages + np.arange(pages, dtype=np.int64)
    fast_cost = LinearDiskModelCost(row_blocks, col_blocks, DEFAULT_COST_MODEL)
    slow_cost = _set_based_closure(row_blocks, col_blocks, DEFAULT_COST_MODEL)

    def _assert_identical(got, want, got_stats, want_stats):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.entries == w.entries
        assert got_stats == want_stats

    cc_rows = {}
    dense_clusters = None
    for density in (0.3, 1.0):
        matrix = _dense_prediction_matrix(pages, density, seed=11)
        ref_s, (want, want_stats) = _best_of(
            lambda: cost_clustering_reference(matrix, buffer_pages, slow_cost),
            repeats,
        )
        vec_s, (got, got_stats) = _best_of(
            lambda: cost_clustering(matrix, buffer_pages, fast_cost), repeats
        )
        _assert_identical(got, want, got_stats, want_stats)
        cc_rows[f"{density}"] = {
            "density": density,
            "buffer_pages": buffer_pages,
            "clusters": len(got),
            "reference_seconds": ref_s,
            "vectorized_seconds": vec_s,
            "speedup": ref_s / vec_s,
        }
        if density == 1.0:
            dense_clusters = got
            cc_dense = (ref_s, vec_s)

    sched_ref_s, want_order = _best_of(
        lambda: greedy_cluster_order_reference(dense_clusters, "R", "S"), repeats
    )
    sched_vec_s, got_order = _best_of(
        lambda: greedy_cluster_order(dense_clusters, "R", "S"), repeats
    )
    assert [c.cluster_id for c in got_order] == [c.cluster_id for c in want_order]

    sc_rows = {}
    for density, sc_buffer in ((0.3, buffer_pages), (1.0, 64)):
        matrix = _dense_prediction_matrix(pages, density, seed=11)
        ref_s, (want, want_stats) = _best_of(
            lambda: square_clustering_reference(matrix, sc_buffer), repeats
        )
        vec_s, (got, got_stats) = _best_of(
            lambda: square_clustering(matrix, sc_buffer), repeats
        )
        _assert_identical(got, want, got_stats, want_stats)
        sc_rows[f"{density}"] = {
            "density": density,
            "buffer_pages": sc_buffer,
            "clusters": len(got),
            "reference_seconds": ref_s,
            "vectorized_seconds": vec_s,
            "speedup": ref_s / vec_s,
        }

    composite = (cc_dense[0] + sched_ref_s) / (cc_dense[1] + sched_vec_s)
    record_json(
        "clustering",
        {
            "pages_per_side": pages,
            "cost_clustering": cc_rows,
            "scheduling": {
                "clusters": len(dense_clusters),
                "reference_seconds": sched_ref_s,
                "vectorized_seconds": sched_vec_s,
                "speedup": sched_ref_s / sched_vec_s,
            },
            "square_clustering": sc_rows,
            "cc_pipeline": {
                "reference_seconds": cc_dense[0] + sched_ref_s,
                "vectorized_seconds": cc_dense[1] + sched_vec_s,
                "speedup": composite,
            },
        },
    )
    # Acceptance: >= 5x on the full-size CC pipeline (clustering +
    # scheduling); the QUICK CI workload is smaller, so only a looser
    # floor is asserted there (the regression gate still tracks drift).
    assert composite >= (2.0 if QUICK else 5.0)
    assert cc_rows["1.0"]["speedup"] >= (1.5 if QUICK else 3.0)
    # The density-0.3/small-B configuration used to regress below 1x
    # before the scalar crossover; hold the line at parity.
    assert sc_rows["0.3"]["speedup"] >= (0.8 if QUICK else 1.0)


# -- resident join service (ISSUE 10) ----------------------------------------------
#
# The serving section tracks the three contracts of the resident-state
# join service on the Figure-11 genome configuration: a warm repeat join
# (resident matrix + fingerprint-keyed result memo) beats the full cold
# request (dataset build + register + cold join) by >= 5x; an
# incremental append (delta sweep over the new/dirty pages only) beats
# cold-rebuilding the appended state by >= 3x; and concurrent warm
# serving scales, recorded as requests/second (throughput_rps —
# deliberately not a "speedup" key, so the host-dependent thread scaling
# never trips the ratio gate).  The matrix-warm execution latency is
# recorded honestly alongside (warm_exec_seconds, un-gated): it is the
# latency of a warm join whose result is not yet memoised.


def test_serving_resident_state(record_json):
    import threading

    from repro.datasets.genome import HCHR18_SIZE
    from repro.experiments.figures import (
        GENOME_REPEAT_SHARE,
        GENOME_WINDOW_LENGTH,
        GENOME_WINDOWS_PER_PAGE,
    )
    from repro.serve import JoinSession

    repeats = 2 if QUICK else 3
    length = max(4096, int(HCHR18_SIZE * 0.005))
    text = markov_dna(length, seed=0, repeat_share=GENOME_REPEAT_SHARE)

    def make_dataset(symbols):
        return IndexedDataset.from_string(
            symbols,
            window_length=GENOME_WINDOW_LENGTH,
            windows_per_page=GENOME_WINDOWS_PER_PAGE,
        )

    def serve_join(sess, **kwargs):
        return sess.join(
            "g", "g", epsilon=GENOME_EPSILON, include_pairs=False, **kwargs
        )

    def make_session():
        return JoinSession(
            shared_buffer_frames=4 * GENOME_BUFFER,
            request_buffer_pages=GENOME_BUFFER,
            cost_model=GENOME_COST_MODEL,
        )

    # Cold request: what a client pays the first time — ship + index the
    # dataset, register it, sweep the prediction matrix, execute.
    t0 = time.perf_counter()
    sess = make_session()
    sess.register("g", make_dataset(text))
    cold = serve_join(sess)
    cold_s = time.perf_counter() - t0
    assert cold["matrix_cache"] == "miss"

    # First repeat: resident matrix, so execution only (and the
    # matrix-warm payload enters the result memo).
    t0 = time.perf_counter()
    warm_exec = serve_join(sess)
    warm_exec_s = time.perf_counter() - t0
    assert warm_exec["matrix_cache"] == "hit"
    assert warm_exec["matrix_seconds"] == 0.0

    # Warm repeat request: identical shape, served from the result memo.
    warm_s, warm = _best_of(lambda: serve_join(sess), repeats)
    assert warm["result_cache"] == "hit"
    assert warm["matrix_cache"] == "hit"
    assert warm["matrix_seconds"] == 0.0
    warm_speedup = cold_s / warm_s

    # Incremental append vs cold rebuild of the appended state.  The
    # suffix adds ~8 pages of windows; the append path pays a delta
    # sweep of those pages against the resident bounds, while the
    # rebuild baseline re-indexes every page and re-sweeps everything.
    suffix = markov_dna(8 * GENOME_WINDOWS_PER_PAGE, seed=7)

    def rebuild():
        rebuilt = make_dataset(text + suffix)
        return build_prediction_matrix(
            rebuilt.index.root,
            rebuilt.index.root,
            GENOME_EPSILON,
            rebuilt.num_pages,
            rebuilt.num_pages,
            max_filter_rounds=5,
        )

    rebuild_s, _ = _best_of(rebuild, repeats)
    t0 = time.perf_counter()
    appended = sess.append("g", suffix)
    append_s = time.perf_counter() - t0
    assert appended["matrices_patched"] == 1
    append_speedup = rebuild_s / append_s

    # Concurrent warm serving throughput (admission-controlled; the pool
    # holds 4 request budgets, so threads_4 saturates it exactly).  The
    # workers opt out of the result memo so every request genuinely
    # executes against the resident matrix.
    serve_join(sess)  # re-warm the post-append state

    def throughput(num_threads, per_thread):
        barrier = threading.Barrier(num_threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                serve_join(sess, memoize=False)

        threads = [
            threading.Thread(target=worker) for _ in range(num_threads)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        return num_threads * per_thread / elapsed

    per_thread = 2 if QUICK else 4
    concurrency = {
        f"threads_{n}": {"throughput_rps": throughput(n, per_thread)}
        for n in (1, 4)
    }

    record_json(
        "serving",
        {
            "config": {
                "pages": appended["pages_after"],
                "epsilon": GENOME_EPSILON,
                "buffer_pages": int(GENOME_BUFFER),
                "shared_buffer_frames": 4 * int(GENOME_BUFFER),
            },
            "cold_seconds": cold_s,
            "warm_exec_seconds": warm_exec_s,
            "warm_seconds": warm_s,
            "speedup": warm_speedup,
            "append": {
                "pages_appended": appended["pages_after"]
                - appended["pages_before"],
                "append_seconds": append_s,
                "rebuild_seconds": rebuild_s,
                "speedup": append_speedup,
            },
            "concurrency": concurrency,
        },
    )
    # Acceptance (mirrored absolutely in check_bench_regression.py):
    # warm serving >= 5x over the cold request, incremental append >= 3x
    # over a cold rebuild, on the genome config.
    assert warm_speedup >= 5.0
    assert append_speedup >= 3.0
