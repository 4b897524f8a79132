"""Failure injection: the system must *detect* broken invariants, not
silently produce wrong answers or wrong accounting."""

import numpy as np
import pytest

from repro.core.clusters import Cluster
from repro.core.executor import execute_clusters
from repro.core.join import IndexedDataset, join
from repro.core.pm_nlj import pm_nlj_join
from repro.core.prediction import PredictionMatrix
from repro.errors import InfeasibleBufferError
from repro.experiments.harness import run_methods
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from tests.oracles.joiners import NoopJoiner


class TestLossyPredictorIsObservable:
    def test_dropped_matrix_entry_loses_results(self, vector_pair):
        """A faulty (non-complete) predictor visibly changes the result —
        the agreement check in the harness exists to catch exactly this."""
        r, s = vector_pair
        full = join(r, s, 0.05, method="pm-nlj", buffer_pages=8,
                    keep_details=True)
        matrix = full.matrix
        assert matrix is not None
        # Drop a marked entry that actually carries results.
        productive = None
        for row, col in matrix.entries():
            joiner_pairs = [
                (a, b) for a, b in full.pairs
                if r.paged.page_of_object(a) == row and s.paged.page_of_object(b) == col
            ]
            if joiner_pairs:
                productive = (row, col)
                break
        assert productive is not None
        matrix.unmark(*productive)

        disk = SimulatedDisk()
        pool = BufferPool(disk, 8)
        from repro.core.joiners import NumericPagePairJoiner
        from repro.costmodel import DEFAULT_COST_MODEL

        joiner = NumericPagePairJoiner(
            r.paged, s.paged, r.distance, 0.05, DEFAULT_COST_MODEL, False
        )
        outcome = pm_nlj_join(matrix, pool, r.paged, s.paged, joiner)
        assert outcome.num_pairs < full.num_pairs

    def test_harness_flags_disagreeing_methods(self, vector_pair, monkeypatch):
        r, s = vector_pair

        import repro.experiments.harness as harness_module

        original_join = harness_module.join

        def corrupted_join(*args, **kwargs):
            result = original_join(*args, **kwargs)
            if kwargs.get("method", args[3] if len(args) > 3 else None) == "sc":
                object.__setattr__(result.report, "result_pairs",
                                   result.report.result_pairs + 1)
            return result

        monkeypatch.setattr(harness_module, "join", corrupted_join)
        with pytest.raises(AssertionError, match="disagree"):
            run_methods(r, s, 0.05, ["nlj", "sc"], buffer_pages=8)


class TestResourceViolationsRaise:
    def test_oversized_cluster_rejected_by_executor(self, vector_pair):
        r, s = vector_pair
        disk = SimulatedDisk()
        pool = BufferPool(disk, 3)
        huge = Cluster(0, tuple((row, 0) for row in range(5)))
        with pytest.raises(ValueError, match="exceeds the available buffer"):
            execute_clusters([huge], pool, r.paged, s.paged, NoopJoiner())

    def test_bfrj_raises_not_thrashes(self, rng):
        r = IndexedDataset.from_points(rng.random((500, 2)), page_capacity=4)
        with pytest.raises(InfeasibleBufferError):
            join(r, r, 0.5, method="bfrj", buffer_pages=2)

    def test_matrix_bounds_violation_raises(self):
        matrix = PredictionMatrix(4, 4)
        with pytest.raises(IndexError):
            matrix.mark(4, 0)

    def test_buffer_never_exceeds_capacity_under_load(self, vector_pair):
        """Even under adversarial access patterns, the frame count is bounded."""
        r, s = vector_pair
        disk = SimulatedDisk()
        pool = BufferPool(disk, 5)
        pool.attach(r.paged)
        rng = np.random.default_rng(0)
        for _ in range(500):
            pool.fetch(r.paged.dataset_id, int(rng.integers(0, r.num_pages)))
            assert len(pool.resident_pages()) <= 5
