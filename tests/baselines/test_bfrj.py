"""Unit tests for the BFRJ baseline."""

import pytest

from repro.core.join import IndexedDataset, join
from repro.errors import InfeasibleBufferError


class TestBfrj:
    def test_results_match_sc(self, vector_pair):
        r, s = vector_pair
        bfrj = join(r, s, 0.05, method="bfrj", buffer_pages=12)
        sc = join(r, s, 0.05, method="sc", buffer_pages=12)
        assert sorted(bfrj.pairs) == sorted(sc.pairs)

    def test_self_join_matches_sc(self, rng):
        ds = IndexedDataset.from_points(rng.random((120, 2)), page_capacity=8)
        bfrj = join(ds, ds, 0.08, method="bfrj", buffer_pages=12)
        sc = join(ds, ds, 0.08, method="sc", buffer_pages=12)
        assert sorted(bfrj.pairs) == sorted(sc.pairs)

    def test_text_matches_sc(self, dna_dataset):
        bfrj = join(dna_dataset, dna_dataset, 1, method="bfrj", buffer_pages=12)
        sc = join(dna_dataset, dna_dataset, 1, method="sc", buffer_pages=12)
        assert sorted(bfrj.pairs) == sorted(sc.pairs)

    def test_charges_index_node_reads(self, vector_pair, cost_model):
        r, s = vector_pair
        result = join(r, s, 0.05, method="bfrj", buffer_pages=12,
                      cost_model=cost_model, count_only=True)
        leaf_pairs = result.report.extra["bfrj_leaf_pairs"]
        assert leaf_pairs > 0
        # Index traversal reads at least the two roots.
        assert result.report.page_reads > leaf_pairs * 0  # reads happened
        assert result.report.extra["bfrj_intersection_tests"] > 0

    def test_infeasible_when_join_index_exceeds_buffer(self, rng):
        """Figure 13(a): BFRJ has no data points at small buffers."""
        pts = rng.random((600, 2))
        r = IndexedDataset.from_points(pts, page_capacity=4)
        s = IndexedDataset.from_points(rng.random((600, 2)), page_capacity=4)
        with pytest.raises(InfeasibleBufferError):
            # Tiny buffer + tiny join-index pages => the level list overflows.
            join(r, s, 0.3, method="bfrj", buffer_pages=2)

    def test_join_index_reservation_reported(self, vector_pair, cost_model):
        r, s = vector_pair
        result = join(r, s, 0.05, method="bfrj", buffer_pages=12,
                      cost_model=cost_model, count_only=True)
        assert result.report.extra["bfrj_join_index_pages"] >= 1


class TestBfrjAccounting:
    """The full cost accounting, pinned: BFRJ is the one method that walks
    the index hierarchy itself, so node ids, node reads and the join-index
    reservation must not drift when the index representation changes."""

    @staticmethod
    def accounting(result):
        rep = result.report
        return (
            rep.page_reads, rep.seeks, rep.io_seconds, rep.comparisons,
            rep.cpu_seconds, rep.preprocess_seconds, rep.result_pairs,
            {k: v for k, v in rep.extra.items() if k.startswith("bfrj_")},
        )

    def test_cross_join_of_unequal_heights(self, rng, cost_model):
        r = IndexedDataset.from_points(rng.random((600, 2)), page_capacity=4)
        s = IndexedDataset.from_points(rng.random((150, 2)), page_capacity=8)
        extra = {
            "bfrj_intersection_tests": 1074,
            "bfrj_leaf_pairs": 316,
            "bfrj_join_index_pages": 2,
        }
        got = join(r, s, 0.05, method="bfrj", buffer_pages=40, cost_model=cost_model)
        assert self.accounting(got) == (
            230, 54, 0.7700000000000006, 10024, 0.010024000000000026,
            0.003697994716423964, 694, extra,
        )
        swapped = join(s, r, 0.05, method="bfrj", buffer_pages=40, cost_model=cost_model)
        assert self.accounting(swapped) == (
            243, 88, 1.1229999999999993, 10024, 0.010024000000000026,
            0.003697994716423964, 694, extra,
        )

    def test_text_self_join(self, dna_dataset, cost_model):
        got = join(dna_dataset, dna_dataset, 1, method="bfrj", buffer_pages=12,
                   cost_model=cost_model)
        assert self.accounting(got) == (
            1088, 60, 1.6879999999999515, 1113577, 1.1946382500000023,
            0.012665916051279586, 982,
            {
                "bfrj_intersection_tests": 1483,
                "bfrj_leaf_pairs": 1106,
                "bfrj_join_index_pages": 5,
            },
        )
