"""EXPLAIN artifact tests: exact reconciliation and the acceptance bar.

The tentpole contract (ISSUE 9): ``join(..., explain=True)`` attaches a
:class:`repro.obs.explain.JoinExplain` whose predicted-vs-observed I/O
reconciliation closes *exactly* (residual 0.0, not merely small) on
every deterministic simulated run, whose Lemma audits report zero
violations, and whose prefilter recall fields match
``report.extra["prefilter"]``.  The sharded tests cover satellite 3:
merged ``explain.residual.*`` and ``prefilter.*`` counters equal the
serial totals.
"""

import json

import numpy as np
import pytest

from repro.core.join import IndexedDataset, join
from repro.datasets import random_walks
from repro.experiments.figures import (
    GENOME_BUFFER,
    GENOME_COST_MODEL,
    GENOME_EPSILON,
    LANDSAT_COST_MODEL,
    LANDSAT_EPSILON,
    SPATIAL_EPSILON,
    hchr18,
    landsat_pair,
    lbeach_mcounty,
)
from repro.obs import (
    BATCHING_VARIANT_COUNTERS,
    SHARDING_VARIANT_COUNTER_PREFIXES,
    EXPLAIN_SCHEMA_VERSION,
    InMemoryRecorder,
    JoinExplain,
    validate_explain,
    validate_explain_file,
)
from repro.sketch.cascade import measured_recall
from repro.sketch.config import PrefilterConfig
from repro.storage.shm import shm_available


def _explain_of(result):
    ex = result.report.extra.get("explain")
    assert ex is not None, "explain=True must attach the artifact"
    return ex


def _assert_exact(ex):
    """The acceptance-critical invariants every artifact must satisfy."""
    io = ex.data["reconciliation"]["io"]
    assert io["residual_seconds"] == 0.0  # bitwise, not approx
    assert io["transfer_residual"] == 0
    assert io["seek_residual"] == 0
    assert ex.lemma_violations == 0
    validate_explain(json.loads(ex.to_json()))


class TestExplainBasics:
    def test_zero_residual_and_valid_schema(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10, explain=True)
        ex = _explain_of(result)
        _assert_exact(ex)
        assert ex.data["schema_version"] == EXPLAIN_SCHEMA_VERSION
        # The closed-form check reorders float additions: tiny, not zero.
        assert abs(ex.data["reconciliation"]["io"]["closed_form_residual_seconds"]) < 1e-9
        # Observed section mirrors the cost report.
        assert ex.data["observed"]["io"]["io_seconds"] == result.report.io_seconds
        assert ex.data["observed"]["execution"]["comparisons"] == result.report.comparisons

    def test_off_by_default(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10)
        assert "explain" not in result.report.extra

    def test_plan_sections_present(self, vector_pair):
        r, s = vector_pair
        ex = _explain_of(join(r, s, 0.05, method="sc", buffer_pages=10, explain=True))
        plan = ex.data["plan"]
        assert plan["matrix"]["marked_entries"] > 0
        assert plan["clusters"]["num_clusters"] >= 1
        assert plan["clusters"]["predicted_cold_reads"] >= plan["clusters"]["predicted_warm_reads"]
        assert plan["schedule"]["policy"] == "greedy-sharing"
        # Per-cluster detail rows reconcile against the audit.
        clusters = ex.data["reconciliation"]["clusters"]
        assert clusters["audited"] == plan["clusters"]["num_clusters"]
        for row in clusters["per_cluster"]:
            assert row["observed"] <= row["bound"]
            assert row["headroom"] == row["bound"] - row["observed"]

    def test_warm_read_prediction_reconciles(self, vector_pair):
        """The Lemma 4 warm prediction prices the schedule exactly on a
        deterministic run: the executor stages precisely the cluster's
        page set minus what the previous cluster left resident."""
        r, s = vector_pair
        ex = _explain_of(join(r, s, 0.05, method="sc", buffer_pages=10, explain=True))
        clusters = ex.data["reconciliation"]["clusters"]
        assert clusters["warm_read_residual"] == 0
        assert clusters["observed_reads"] == clusters["predicted_warm_reads"]

    def test_text_report(self, vector_pair):
        r, s = vector_pair
        ex = _explain_of(join(r, s, 0.05, method="sc", buffer_pages=10, explain=True))
        text = ex.to_text()
        assert "[EXACT]" in text
        assert "plan.clusters" in text and "recon.io" in text
        assert "0 Lemma violations" in text

    def test_save_and_validate_file(self, tmp_path, vector_pair):
        r, s = vector_pair
        ex = _explain_of(join(r, s, 0.05, method="sc", buffer_pages=10, explain=True))
        json_path = tmp_path / "explain.json"
        ex.save(json_path)
        assert validate_explain_file(json_path)["meta"]["method"] == "sc"
        text_path = tmp_path / "explain.txt"
        ex.save(text_path, format="text")
        assert "EXPLAIN join" in text_path.read_text()
        with pytest.raises(ValueError, match="format"):
            ex.save(tmp_path / "x", format="yaml")

    @pytest.mark.parametrize("method", ["nlj", "pm-nlj", "ego"])
    def test_competitors_get_io_reconciliation(self, vector_pair, method):
        """Non-clustering methods have no cluster plan, but their I/O
        accounting reconciles exactly all the same."""
        r, s = vector_pair
        result = join(r, s, 0.05, method=method, buffer_pages=10, explain=True)
        ex = _explain_of(result)
        assert ex.io_residual_seconds == 0.0
        assert ex.data["meta"]["method"] == method
        validate_explain(json.loads(ex.to_json()))

    def test_residual_counters_emitted(self, vector_pair):
        r, s = vector_pair
        rec = InMemoryRecorder()
        join(r, s, 0.05, method="sc", buffer_pages=10, recorder=rec, explain=True)
        counters = rec.metrics_snapshot()["counters"]
        assert counters["explain.residual.io_us"] == 0
        assert counters["explain.residual.cluster_reads"] == 0

    def test_subsequence_join_forwards_explain(self):
        from repro.sequence.subjoin import subsequence_join

        result = subsequence_join(
            "ACGTACGTACGTACGTACGT", None, window_length=4, epsilon=0,
            buffer_pages=4, windows_per_page=2, explain=True,
        )
        _assert_exact(_explain_of(result))

    def test_harness_exposes_explain(self, vector_pair):
        from repro.experiments.harness import run_methods

        r, s = vector_pair
        runs = run_methods(
            r, s, 0.05, ["nlj", "sc"], buffer_pages=10, explain=True
        )
        for run in runs.values():
            assert run.explain is not None
            assert run.explain.io_residual_seconds == 0.0

    def test_calibration_suggests_cpu_rate(self, vector_pair, cost_model):
        """The single-sample fit recovers the simulated CPU rate exactly
        and declines to move the I/O parameters (rank-deficient system)."""
        r, s = vector_pair
        ex = _explain_of(
            join(r, s, 0.05, method="sc", buffer_pages=10,
                 cost_model=cost_model, explain=True)
        )
        suggested = ex.data["calibration"]["suggested"]
        assert suggested["cpu_compare_s"] == pytest.approx(cost_model.cpu_compare_s)
        assert suggested["seek_s"] == cost_model.seek_s
        assert suggested["transfer_s"] == cost_model.transfer_s


class TestFourFigureConfigs:
    """Acceptance: on the paper's four configs the reconciliation closes
    exactly, Lemma audits are clean, and the artifact's recall fields
    match ``report.extra["prefilter"]``."""

    def _run(self, r, s, epsilon, **kwargs):
        base = join(r, s, epsilon, **kwargs)
        rec = InMemoryRecorder()
        approx = join(
            r, s, epsilon,
            prefilter=PrefilterConfig(recall_target=0.99),
            recorder=rec,
            explain=True,
            **kwargs,
        )
        ex = _explain_of(approx)
        _assert_exact(ex)
        info = approx.report.extra["prefilter"]
        assert ex.est_recall == info["est_recall"]
        assert ex.data["plan"]["prefilter"]["cells_unmarked"] == info["cells_unmarked"]
        # Measuring against the reference run fills the artifact in place.
        recall = measured_recall(base, approx, recorder=rec, explain=ex)
        assert ex.measured_recall == recall
        counters = rec.metrics_snapshot()["counters"]
        assert counters["explain.residual.prefilter_recall_ppm"] == int(
            round((recall - info["est_recall"]) * 1e6)
        )
        return ex

    def test_spatial(self):
        r, s = lbeach_mcounty(0.05)
        self._run(r, s, SPATIAL_EPSILON, method="sc", buffer_pages=20)

    def test_landsat(self):
        r, s = landsat_pair(0.02)
        self._run(
            r, s, LANDSAT_EPSILON, method="sc", buffer_pages=30,
            cost_model=LANDSAT_COST_MODEL,
        )

    def test_genome(self):
        genome = hchr18(0.002)
        self._run(
            genome, genome, GENOME_EPSILON, method="sc",
            buffer_pages=GENOME_BUFFER, cost_model=GENOME_COST_MODEL,
        )

    def test_series(self):
        walk = random_walks(1, 2000, seed=5)[0]
        series = IndexedDataset.from_time_series(
            walk, window_length=64, windows_per_page=32
        )
        self._run(series, series, 1.5, method="sc", buffer_pages=20)


@pytest.mark.skipif(
    not shm_available(), reason="platform without usable shared memory"
)
class TestExplainSharded:
    """Satellite 3: merged shard counters — ``explain.residual.*`` and
    ``prefilter.*`` included — equal the serial totals."""

    @pytest.fixture
    def spatial(self):
        rng = np.random.default_rng(12345)
        r = IndexedDataset.from_points(
            rng.random((400, 2)), page_capacity=16, dataset_id="PR"
        )
        s = IndexedDataset.from_points(
            rng.random((300, 2)), page_capacity=16, dataset_id="PS"
        )
        return r, s

    @staticmethod
    def _stable_counters(recorder):
        return {
            name: value
            for name, value in recorder.metrics_snapshot()["counters"].items()
            if name not in BATCHING_VARIANT_COUNTERS
            and not name.startswith(SHARDING_VARIANT_COUNTER_PREFIXES)
        }

    def test_counters_match_serial(self, spatial):
        r, s = spatial
        serial_rec, sharded_rec = InMemoryRecorder(), InMemoryRecorder()
        kwargs = dict(
            method="sc", buffer_pages=10, explain=True,
            prefilter=PrefilterConfig(),
        )
        serial = join(r, s, 0.05, recorder=serial_rec, **kwargs)
        sharded = join(
            r, s, 0.05, recorder=sharded_rec,
            workers=2, shard_strategy="affinity", **kwargs,
        )
        assert sharded.pairs == serial.pairs
        serial_stable = self._stable_counters(serial_rec)
        sharded_stable = self._stable_counters(sharded_rec)
        assert serial_stable == sharded_stable
        # The new counter families must actually be in the comparison.
        assert any(n.startswith("explain.residual.") for n in serial_stable)
        assert any(n.startswith("prefilter.") for n in serial_stable)

    def test_shard_reconciliation_closes(self, spatial):
        r, s = spatial
        sharded = join(
            r, s, 0.05, method="sc", buffer_pages=10,
            workers=2, shard_strategy="affinity", explain=True,
        )
        ex = _explain_of(sharded)
        _assert_exact(ex)
        shards = ex.data["reconciliation"]["shards"]
        per_shard = shards["per_shard"]
        assert len(per_shard) == ex.data["plan"]["shards"]["num_shards"]
        # Shard loads are exact cell counts, so prediction closes too.
        for row in per_shard:
            assert row["cell_residual"] == 0
            assert row["wall_seconds"] >= 0.0
        assert sum(row["observed_cells"] for row in per_shard) == (
            sharded.report.comparisons
        )
        assert shards["observed_cell_imbalance"] == shards["predicted_cell_imbalance"]


class TestAttachMeasuredRecall:
    def test_creates_section_when_absent(self):
        ex = JoinExplain({"reconciliation": {}})
        ex.attach_measured_recall(0.5)
        pf = ex.data["reconciliation"]["prefilter"]
        assert pf == {"est_recall": None, "measured_recall": 0.5}

    def test_residual_and_counter_when_estimated(self):
        rec = InMemoryRecorder()
        ex = JoinExplain({"reconciliation": {"prefilter": {"est_recall": 0.99}}})
        ex.attach_measured_recall(1.0, recorder=rec)
        pf = ex.data["reconciliation"]["prefilter"]
        assert pf["recall_residual"] == pytest.approx(0.01)
        counters = rec.metrics_snapshot()["counters"]
        assert counters["explain.residual.prefilter_recall_ppm"] == 10000


class TestValidation:
    def _valid(self):
        return {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "meta": {
                "method": "sc", "epsilon": 0.05, "buffer_pages": 10,
                "workers": 1, "cost_model": {},
            },
            "plan": {},
            "observed": {},
            "reconciliation": {
                "io": {
                    key: 0
                    for key in (
                        "predicted_io_seconds", "observed_io_seconds",
                        "residual_seconds", "closed_form_io_seconds",
                        "closed_form_residual_seconds", "predicted_transfers",
                        "observed_transfers", "transfer_residual",
                        "predicted_seeks", "observed_seeks", "seek_residual",
                    )
                }
            },
            "calibration": {"samples": []},
        }

    def test_valid_passes(self):
        validate_explain(self._valid())

    def test_wrong_version_rejected(self):
        data = self._valid()
        data["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_explain(data)

    def test_missing_section_rejected(self):
        data = self._valid()
        del data["calibration"]
        with pytest.raises(ValueError, match="calibration"):
            validate_explain(data)

    def test_missing_io_key_rejected(self):
        data = self._valid()
        del data["reconciliation"]["io"]["residual_seconds"]
        with pytest.raises(ValueError, match="residual_seconds"):
            validate_explain(data)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_explain([])
