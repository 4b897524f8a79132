"""Unit tests for the top-level join API."""

import numpy as np
import pytest

from repro.core.join import JOIN_METHODS, IndexedDataset, join
from repro.core.sweep import build_prediction_matrix, marked_box_pairs
from repro.costmodel import CostModel
from repro.obs import InMemoryRecorder


class TestIndexedDatasetConstruction:
    def test_from_points(self, rng):
        ds = IndexedDataset.from_points(rng.random((100, 3)), page_capacity=16)
        assert ds.kind == "vector"
        assert ds.num_objects == 100
        assert ds.num_pages == ds.index.num_pages

    def test_from_string(self):
        ds = IndexedDataset.from_string("ACGT" * 100, window_length=8, windows_per_page=16)
        assert ds.kind == "text"
        assert ds.features is not None
        assert ds.num_objects == 400 - 8 + 1

    def test_from_time_series(self, rng):
        ds = IndexedDataset.from_time_series(
            rng.normal(size=200).cumsum(), window_length=8, windows_per_page=16
        )
        assert ds.kind == "series"
        assert ds.distance is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, rng, bad):
        points = rng.random((100, 3))
        points[37, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            IndexedDataset.from_points(points, page_capacity=16)

    @pytest.mark.parametrize("dtw_band", [None, 2])
    def test_non_finite_series_rejected(self, rng, dtw_band):
        values = rng.normal(size=200).cumsum()
        values[120] = np.nan
        with pytest.raises(ValueError, match="finite"):
            IndexedDataset.from_time_series(
                values, window_length=8, windows_per_page=16, dtw_band=dtw_band
            )

    def test_paa_requires_euclidean(self, rng):
        with pytest.raises(ValueError):
            IndexedDataset.from_time_series(
                rng.normal(size=200), window_length=8, feature="paa", p=1.0
            )

    def test_full_comparison_weight(self, rng):
        vec = IndexedDataset.from_points(rng.random((50, 2)), page_capacity=16)
        assert vec.full_comparison_weight(0.1) == 1.0
        text = IndexedDataset.from_string("ACGT" * 50, window_length=8, windows_per_page=16)
        assert text.full_comparison_weight(1.0) > 1.0


class TestJoinValidation:
    def test_unknown_method(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError, match="unknown join method"):
            join(r, s, 0.1, method="hash")

    def test_negative_epsilon(self, vector_pair):
        r, s = vector_pair
        with pytest.raises(ValueError):
            join(r, s, -1.0)

    def test_kind_mismatch(self, vector_pair, dna_dataset):
        r, _ = vector_pair
        with pytest.raises(ValueError, match="kinds"):
            join(r, dna_dataset, 0.1)

    @pytest.mark.parametrize("self_join", [False, True])
    def test_nan_epsilon(self, vector_pair, dna_dataset, self_join):
        r, s = vector_pair
        for left, right in ((r, r if self_join else s), (dna_dataset, dna_dataset)):
            with pytest.raises(ValueError, match="epsilon must be non-negative, got nan"):
                join(left, right, float("nan"))

    def test_matrix_builders_reject_nan_epsilon(self, rng):
        """The public matrix builders used to return an empty matrix at NaN."""
        r = IndexedDataset.from_points(rng.random((300, 2)), page_capacity=16)
        s = IndexedDataset.from_points(rng.random((300, 2)), page_capacity=16)
        matrix, _ = build_prediction_matrix(r.index, s.index, 0.05)
        assert matrix.num_marked > 0
        leaves_r, leaves_s = r.index.leaf_bounds(), s.index.leaf_bounds()
        assert marked_box_pairs(leaves_r, leaves_s, 0.05)[0].size == matrix.num_marked
        with pytest.raises(ValueError, match="epsilon must be non-negative, got nan"):
            build_prediction_matrix(r.index, s.index, float("nan"))
        with pytest.raises(ValueError, match="epsilon must be non-negative, got nan"):
            marked_box_pairs(leaves_r, leaves_s, float("nan"))

    @pytest.mark.parametrize("rounds", [-1, -7, 1.0, "5", True, None])
    def test_max_filter_rounds_must_be_a_non_negative_int(self, vector_pair, rounds):
        """A negative count used to run silently as 0, a string as a TypeError."""
        r, s = vector_pair
        with pytest.raises(ValueError, match="max_filter_rounds must be a non-negative int"):
            join(r, s, 0.1, max_filter_rounds=rounds)
        with pytest.raises(ValueError, match="max_filter_rounds must be a non-negative int"):
            build_prediction_matrix(r.index, s.index, 0.1, max_filter_rounds=rounds)

    def test_max_filter_rounds_accepts_numpy_ints(self, vector_pair):
        r, s = vector_pair
        want = join(r, s, 0.1, max_filter_rounds=3)
        assert join(r, s, 0.1, max_filter_rounds=np.int64(3)).pairs == want.pairs

    def test_infinite_epsilon_on_text(self, vector_pair, dna_dataset):
        with pytest.raises(ValueError, match="finite epsilon, got inf"):
            join(dna_dataset, dna_dataset, float("inf"))
        r, s = vector_pair
        assert join(r, s, float("inf")).report.result_pairs == r.num_objects * s.num_objects

    def test_vector_dimension_mismatch(self, rng):
        r = IndexedDataset.from_points(rng.random((60, 2)), page_capacity=16)
        s = IndexedDataset.from_points(rng.random((60, 3)), page_capacity=16)
        for method in JOIN_METHODS:
            with pytest.raises(ValueError, match="dimension 2 and 3"):
                join(r, s, 0.1, method=method)

    def test_text_window_length_mismatch(self):
        text = "ACGTTGCA" * 40
        r = IndexedDataset.from_string(text, window_length=8, windows_per_page=16)
        s = IndexedDataset.from_string(text, window_length=6, windows_per_page=16)
        with pytest.raises(ValueError, match="length 8 and 6"):
            join(r, s, 1)

    def test_dtw_window_length_mismatch(self, rng):
        values = rng.normal(size=300).cumsum()
        r, s = (
            IndexedDataset.from_time_series(values, window_length=w,
                                            windows_per_page=16, dtw_band=2)
            for w in (16, 8)
        )
        with pytest.raises(ValueError, match="length 16 and 8"):
            join(r, s, 1.0)

    def test_alphabet_mismatch(self):
        r = IndexedDataset.from_string("ACGT" * 40, window_length=8, windows_per_page=16)
        s = IndexedDataset.from_string("ACGT" * 40, window_length=8, windows_per_page=16,
                                       alphabet="TGCA")
        with pytest.raises(ValueError, match="alphabets 'ACGT' and 'TGCA'"):
            join(r, s, 1)

    def test_zero_dimensional_points_rejected(self):
        """``(n, 0)`` points used to build, then crash the join in the sweep."""
        from repro.storage.page import VectorPagedDataset

        with pytest.raises(ValueError, match="d >= 1"):
            IndexedDataset.from_points(np.empty((5, 0)))
        with pytest.raises(ValueError, match="d >= 1"):
            VectorPagedDataset(np.empty((5, 0)), objects_per_page=2)

    @pytest.mark.parametrize("workers", [0, -2, 2.5, True, "2", None])
    def test_workers_must_be_a_positive_int_on_every_method(self, vector_pair, workers):
        """Only the clustering methods used to check it, and not its type."""
        r, s = vector_pair
        for method in JOIN_METHODS:
            with pytest.raises(ValueError, match="workers must be a positive int"):
                join(r, s, 0.1, method=method, workers=workers)

    @pytest.mark.parametrize("buffer_pages", [0, -3, 10.5, True, "10", None])
    def test_buffer_pages_must_be_a_positive_int_before_any_work(
        self, vector_pair, buffer_pages
    ):
        """A fractional buffer used to run, or fail inside pinning."""
        r, s = vector_pair
        for method in JOIN_METHODS:
            rec = InMemoryRecorder()
            with pytest.raises(ValueError, match="buffer_pages must be a positive int"):
                join(r, s, 0.1, method=method, buffer_pages=buffer_pages, recorder=rec)
            assert rec.spans == []

    @pytest.mark.parametrize(
        "aspect", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0]
    )
    def test_sc_target_aspect_checked_before_any_work(self, vector_pair, aspect):
        """NaN and inf used to fail after the matrix build, in round()."""
        r, s = vector_pair
        for method in JOIN_METHODS:
            rec = InMemoryRecorder()
            with pytest.raises(
                ValueError, match="sc_target_aspect must be a positive finite number"
            ):
                join(r, s, 0.1, method=method, sc_target_aspect=aspect, recorder=rec)
            assert rec.spans == []

    @pytest.mark.parametrize("strategy", ["bogus", "chunk", 1, True])
    def test_shard_strategy_checked_on_every_method(self, vector_pair, strategy):
        r, s = vector_pair
        for method in JOIN_METHODS:
            with pytest.raises(ValueError, match="shard_strategy must be None"):
                join(r, s, 0.1, method=method, workers=2, shard_strategy=strategy)

    def test_workers_accepts_numpy_ints(self, vector_pair):
        r, s = vector_pair
        want = join(r, s, 0.1, method="nlj")
        assert join(r, s, 0.1, method="nlj", workers=np.int64(2)).pairs == want.pairs
        assert join(r, s, 0.1, workers=np.int32(2)).pairs == join(r, s, 0.1).pairs

    def test_minkowski_order_mismatch(self, rng):
        r = IndexedDataset.from_points(rng.random((60, 2)), page_capacity=16, p=1.0)
        s = IndexedDataset.from_points(rng.random((60, 2)), page_capacity=16, p=2.0)
        for left, right, names in ((r, s, "L1 with data under L2"),
                                   (s, r, "L2 with data under L1")):
            for method in JOIN_METHODS:
                with pytest.raises(ValueError, match=f"vector data under {names}"):
                    join(left, right, 0.1, method=method)

    def test_dtw_and_raw_series_mismatch(self, rng):
        values = rng.normal(size=300).cumsum()
        dtw = IndexedDataset.from_time_series(
            values, window_length=8, windows_per_page=16, dtw_band=2
        )
        raw = IndexedDataset.from_time_series(values, window_length=8,
                                              windows_per_page=16)
        with pytest.raises(ValueError, match="DTW with band 2 .* under L2 over raw"):
            join(dtw, raw, 1.0)
        with pytest.raises(ValueError, match="under L2 over raw windows .* under DTW"):
            join(raw, dtw, 1.0)

    def test_paa_and_raw_series_mismatch(self, rng):
        values = rng.normal(size=300).cumsum()
        paa = IndexedDataset.from_time_series(
            values, window_length=8, windows_per_page=16, feature="paa", paa_segments=4
        )
        raw = IndexedDataset.from_time_series(values, window_length=8,
                                              windows_per_page=16)
        for left, right in ((paa, raw), (raw, paa)):
            with pytest.raises(ValueError, match="4-segment PAA features") as info:
                join(left, right, 1.0)
            assert "raw windows" in str(info.value)

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError, match="symbol 'N' is not in alphabet 'ACGT'"):
            IndexedDataset.from_string("ACGTN" * 20, window_length=8, windows_per_page=16)


class TestJoinBehaviour:
    def test_matches_brute_force(self, rng):
        pts_r = rng.random((120, 2))
        pts_s = rng.random((90, 2))
        r = IndexedDataset.from_points(pts_r, page_capacity=8)
        s = IndexedDataset.from_points(pts_s, page_capacity=8)
        epsilon = 0.1
        result = join(r, s, epsilon, method="sc", buffer_pages=10)

        # Map result global ids (positions in the reordered files) back to
        # original rows and compare against brute force.
        expected = set()
        for i in range(120):
            for j in range(90):
                if np.linalg.norm(pts_r[i] - pts_s[j]) <= epsilon:
                    expected.add((i, j))
        got = {
            (int(r.index.order[a]), int(s.index.order[b])) for a, b in result.pairs
        }
        assert got == expected

    def test_count_only_empty_pairs(self, vector_pair):
        r, s = vector_pair
        with_pairs = join(r, s, 0.05, method="sc", buffer_pages=10)
        counted = join(r, s, 0.05, method="sc", buffer_pages=10, count_only=True)
        assert counted.pairs == []
        assert counted.num_pairs == with_pairs.num_pairs == len(with_pairs.pairs)

    def test_keep_details(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10, keep_details=True)
        assert result.matrix is not None
        assert result.clusters is not None
        assert all(c.fits_in_buffer(10) for c in result.clusters)

    def test_details_absent_by_default(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10)
        assert result.matrix is None and result.clusters is None

    def test_report_fields_consistent(self, vector_pair):
        r, s = vector_pair
        result = join(r, s, 0.05, method="sc", buffer_pages=10)
        report = result.report
        assert report.method == "sc"
        assert report.page_reads > 0
        assert report.io_seconds > 0
        assert report.total_seconds >= report.io_seconds
        assert report.extra["marked_entries"] >= 0

    def test_custom_cost_model_scales_io(self, vector_pair):
        r, s = vector_pair
        cheap = join(r, s, 0.05, method="sc", buffer_pages=10,
                     cost_model=CostModel(seek_s=0.001, transfer_s=0.0001))
        costly = join(r, s, 0.05, method="sc", buffer_pages=10,
                      cost_model=CostModel(seek_s=0.1, transfer_s=0.01))
        assert costly.report.io_seconds > cheap.report.io_seconds
        assert costly.report.page_reads == cheap.report.page_reads

    def test_self_join_pairs_are_canonical(self, rng):
        pts = rng.random((80, 2))
        ds = IndexedDataset.from_points(pts, page_capacity=8)
        result = join(ds, ds, 0.08, method="sc", buffer_pages=10)
        assert all(a < b for a, b in result.pairs)
        assert len(set(result.pairs)) == len(result.pairs)

    def test_rand_sc_seed_changes_order_not_result(self, vector_pair):
        r, s = vector_pair
        a = join(r, s, 0.05, method="rand-sc", buffer_pages=10, seed=1)
        b = join(r, s, 0.05, method="rand-sc", buffer_pages=10, seed=2)
        assert sorted(a.pairs) == sorted(b.pairs)

    def test_sc_never_reads_more_than_pm_nlj(self, vector_pair):
        r, s = vector_pair
        sc = join(r, s, 0.05, method="sc", buffer_pages=8, count_only=True)
        pm = join(r, s, 0.05, method="pm-nlj", buffer_pages=8, count_only=True)
        assert sc.report.page_reads <= pm.report.page_reads
