"""JoinSession: warm-path guarantees and incremental-append equivalence."""

import copy
import sys
import threading

import numpy as np
import pytest

from repro.core.join import IndexedDataset
from repro.core.sweep import build_prediction_matrix
from repro.datasets import markov_dna
from repro.distance.dtw import envelope_box
from repro.distance.frequency import frequency_vector
from repro.errors import ConfigError
from repro.geometry import Rect
from repro.serve import JoinSession
from repro.serve.incremental import append_to_dataset, rebuild_dataset
from repro.storage.persist import FingerprintChain, matrix_cache_key


def _strip_serving(counters):
    return {k: v for k, v in counters.items() if not k.startswith("serving.")}


def _text_dataset(length=3000, seed=1, window=48, per_page=64, dataset_id=None):
    return IndexedDataset.from_string(
        markov_dna(length, seed=seed),
        window_length=window,
        windows_per_page=per_page,
        dataset_id=dataset_id,
    )


def _session(**overrides):
    defaults = dict(shared_buffer_frames=96, request_buffer_pages=24)
    defaults.update(overrides)
    return JoinSession(**defaults)


class TestWarmPath:
    def test_repeat_join_hits_resident_matrix(self):
        sess = _session()
        sess.register("g", _text_dataset())
        cold = sess.join("g", "g", epsilon=1.0)
        warm = sess.join("g", "g", epsilon=1.0)
        assert cold["matrix_cache"] == "miss"
        assert warm["matrix_cache"] == "hit"
        assert warm["num_pairs"] == cold["num_pairs"]
        assert sorted(map(tuple, warm["pairs"])) == sorted(map(tuple, cold["pairs"]))

    def test_warm_join_charges_zero_sweep_and_matrix_seconds(self):
        sess = _session()
        sess.register("g", _text_dataset())
        sess.join("g", "g", epsilon=1.0)
        warm = sess.join("g", "g", epsilon=1.0)
        assert warm["matrix_seconds"] == 0.0
        assert warm["counters"]["serving.warm_hit"] == 1
        assert not any(k.startswith("sweep.") for k in warm["counters"])
        assert sess.counters()["serving.warm_hits"] == 1
        assert sess.counters()["serving.cold_misses"] == 1

    def test_warm_path_does_not_rehash_pages(self):
        sess = _session()
        sess.register("g", _text_dataset())
        entry = sess._datasets["g"]
        assert entry.dataset.fingerprint_memo == entry.fingerprint

    def test_distinct_epsilons_get_distinct_entries(self):
        sess = _session()
        sess.register("g", _text_dataset())
        assert sess.join("g", "g", epsilon=1.0)["matrix_cache"] == "miss"
        assert sess.join("g", "g", epsilon=2.0)["matrix_cache"] == "miss"
        assert sess.join("g", "g", epsilon=1.0)["matrix_cache"] == "hit"
        assert sess.join("g", "g", epsilon=2.0)["matrix_cache"] == "hit"

    def test_evict_drops_dataset_and_cache_entries(self):
        sess = _session()
        sess.register("g", _text_dataset())
        sess.join("g", "g", epsilon=1.0)
        outcome = sess.evict("g")
        assert outcome["dropped_matrices"] == 1
        assert sess.datasets() == []
        with pytest.raises(KeyError):
            sess.join("g", "g", epsilon=1.0)

    def test_duplicate_register_rejected(self):
        sess = _session()
        sess.register("g", _text_dataset())
        with pytest.raises(ValueError):
            sess.register("g", _text_dataset())


# Edit distance 2 on the test text gives about 3,000 pairs.
_MEMO_EPSILON = 2.0


def _memoised(sess, dataset_id):
    """Fill the memo for a self join: the cold run, then the warm one."""
    sess.join(dataset_id, dataset_id, epsilon=_MEMO_EPSILON)
    return sess.join(dataset_id, dataset_id, epsilon=_MEMO_EPSILON)


def _replayed(payload):
    """A payload minus what differs between two replays of one result."""
    return {k: v for k, v in payload.items() if k not in ("request_id", "elapsed_seconds")}


class TestResultMemo:
    """The memo holds only results a request can still hit."""

    def test_append_drops_the_entries_over_its_dataset(self):
        sess = _session()
        sess.register("g", _text_dataset())
        sess.register("h", _text_dataset(seed=2))
        _memoised(sess, "g")
        _memoised(sess, "h")
        assert sess.stats()["result_memo_entries"] == 2
        sess.append("g", markov_dna(200, seed=5))
        assert sess.stats()["result_memo_entries"] == 1
        assert sess.join("h", "h", epsilon=_MEMO_EPSILON)["result_cache"] == "hit"
        grown = sess.join("g", "g", epsilon=_MEMO_EPSILON)
        assert grown["result_cache"] == "miss" and grown["num_pairs"] > 0
        assert sess.stats()["result_memo_entries"] == 2
        fresh = _session()
        fresh.register("g", sess._datasets["g"].dataset)
        assert grown["pairs"] == fresh.join("g", "g", epsilon=_MEMO_EPSILON)["pairs"]

    @pytest.mark.parametrize("mutation", ["append", "evict"])
    def test_dropped_results_are_freed_outside_the_session_lock(self, mutation):
        """Freeing a large memoised result takes milliseconds, so an
        append or evict lets the payloads it drops go only after it has
        released the session lock."""
        sess = _session()
        sess.register("g", _text_dataset())
        _memoised(sess, "g")
        lock_held = []

        class Finaliser:
            def __del__(self):
                lock_held.append(sess._mutate._is_owned())

        (key,) = sess._results
        sess._results[key]["finaliser"] = Finaliser()
        if mutation == "append":
            sess.append("g", markov_dna(200, seed=5))
        else:
            sess.evict("g")
        assert sess.stats()["result_memo_entries"] == 0
        assert lock_held == [False]

    @pytest.mark.parametrize("mutation", ["append", "evict"])
    def test_a_join_that_raced_a_mutation_is_not_memoised(self, monkeypatch, mutation):
        """An execution whose snapshots an append (or evict) replaced
        while it ran leaves no memo entry: none could ever be hit."""
        import repro.serve.session as session_module

        sess = _session()
        sess.register("g", _text_dataset())
        sess.join("g", "g", epsilon=_MEMO_EPSILON)  # the next execution is matrix-warm
        engine = session_module.join

        def racing_join(*args, **kwargs):
            result = engine(*args, **kwargs)
            if mutation == "append":
                sess.append("g", markov_dna(200, seed=5))
            else:
                sess.evict("g")
            return result

        monkeypatch.setattr(session_module, "join", racing_join)
        raced = sess.join("g", "g", epsilon=_MEMO_EPSILON)
        assert raced["matrix_cache"] == "hit"
        assert sess.stats()["result_memo_entries"] == 0

    def test_joins_racing_appends_leave_only_live_entries(self):
        """Joins and appends on four threads with a short switch interval:
        afterwards every memo entry is for the current snapshot."""
        sess = _session()
        sess.register("g", _text_dataset())
        errors = []

        def run(work):
            try:
                work()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def joins():
            for _ in range(6):
                sess.join("g", "g", epsilon=_MEMO_EPSILON)

        def appends():
            for k in range(4):
                sess.append("g", markov_dna(64, seed=50 + k))

        threads = [threading.Thread(target=run, args=(joins,)) for _ in range(3)]
        threads.append(threading.Thread(target=run, args=(appends,)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        current = sess.describe("g")["fingerprint"]
        assert all(key[2] == current for key in sess._results)
        assert sess.stats()["result_memo_entries"] <= 1

    def test_datasets_with_equal_fingerprints_get_their_own_results(
        self, fingerprint_twins
    ):
        """Fingerprints cover page boxes, not every point: moving a point
        inside its page's box keeps the fingerprint.  A join over the
        moved dataset must still return its own pairs, not the memoised
        result of its twin."""
        twin, moved = fingerprint_twins
        other = IndexedDataset.from_points(
            np.random.default_rng(1).uniform(0, 1, (512, 2)), page_capacity=64
        )
        sess = _session()
        for name, dataset in (("twin", twin), ("moved", moved), ("other", other)):
            sess.register(name, dataset)
        assert sess.describe("twin")["fingerprint"] == sess.describe("moved")["fingerprint"]
        for _ in range(2):
            sess.join("twin", "other", epsilon=0.05)
        served = sess.join("moved", "other", epsilon=0.05)
        executed = sess.join("moved", "other", epsilon=0.05, memoize=False)
        assert served["r"] == "moved"
        assert served["pairs"] == executed["pairs"]
        assert served["pairs"] != sess.join("twin", "other", epsilon=0.05)["pairs"]

    def test_mutating_a_payload_cannot_change_the_memo(self):
        sess = _session()
        sess.register("g", _text_dataset())
        executed = _memoised(sess, "g")
        hit = sess.join("g", "g", epsilon=_MEMO_EPSILON)
        assert hit["result_cache"] == "hit" and hit["num_pairs"] > 0
        expected = copy.deepcopy(_replayed(hit))
        for payload in (executed, hit):
            with pytest.raises(TypeError):
                payload["pairs"][0] = (0, 0)
            payload["num_pairs"] = -1
            payload["pairs"] = []
            payload["counters"]["serving.warm_hit"] = 99
            payload["fingerprints"]["r"] = "changed"
            payload["stage_seconds"].clear()
        again = sess.join("g", "g", epsilon=_MEMO_EPSILON)
        assert again["result_cache"] == "hit"
        assert _replayed(again) == expected


class TestIncrementalAppend:
    """Appends must be bit-identical to cold-rebuilding the final state."""

    def _assert_patched_equals_rebuilt(self, sess, dataset_id, epsilon):
        entry = sess._datasets[dataset_id]
        rebuilt = rebuild_dataset(entry.dataset)
        reference, _ = build_prediction_matrix(
            rebuilt.index,
            rebuilt.index,
            epsilon,
            max_filter_rounds=5,
        )
        key = matrix_cache_key(entry.fingerprint, entry.fingerprint, epsilon, 5)
        patched = sess.store.peek_matrix(key)
        assert patched is not None
        assert patched == reference

    def test_text_append_patches_matrix_to_rebuilt_state(self):
        sess = _session()
        sess.register("g", _text_dataset())
        sess.join("g", "g", epsilon=1.0)
        outcome = sess.append("g", markov_dna(700, seed=9))
        assert outcome["matrices_patched"] == 1
        assert outcome["pages_after"] > outcome["pages_before"]
        self._assert_patched_equals_rebuilt(sess, "g", 1.0)

    def test_text_append_join_bit_identical_to_cold_rebuild(self):
        text = markov_dna(3000, seed=1)
        suffix = markov_dna(700, seed=9)
        sess = _session()
        sess.register(
            "g",
            IndexedDataset.from_string(
                text, window_length=48, windows_per_page=64
            ),
        )
        sess.join("g", "g", epsilon=1.0)
        sess.append("g", suffix)
        served = sess.join("g", "g", epsilon=1.0)
        assert served["matrix_cache"] == "hit"

        ref_sess = _session()
        ref_sess.register(
            "ref",
            IndexedDataset.from_string(
                text + suffix, window_length=48, windows_per_page=64
            ),
        )
        ref_sess.join("ref", "ref", epsilon=1.0)
        reference = ref_sess.join("ref", "ref", epsilon=1.0)
        assert reference["matrix_cache"] == "hit"
        assert sorted(map(tuple, served["pairs"])) == sorted(
            map(tuple, reference["pairs"])
        )
        assert _strip_serving(served["counters"]) == _strip_serving(
            reference["counters"]
        )

    def test_vector_append_patches_matrix_to_rebuilt_state(self):
        rng = np.random.default_rng(3)
        sess = _session()
        dataset = IndexedDataset.from_points(rng.random((400, 3)), page_capacity=32)
        sess.register("v", dataset, page_capacity=32)
        sess.join("v", "v", epsilon=0.2)
        outcome = sess.append("v", rng.random((90, 3)))
        assert outcome["matrices_patched"] == 1
        assert outcome["dirty_pages"] == []
        self._assert_patched_equals_rebuilt(sess, "v", 0.2)

    def test_series_append_patches_matrix_to_rebuilt_state(self):
        rng = np.random.default_rng(4)
        sess = _session()
        values = rng.normal(size=600).cumsum()
        dataset = IndexedDataset.from_time_series(
            values, window_length=16, windows_per_page=32
        )
        sess.register("t", dataset)
        sess.join("t", "t", epsilon=0.5)
        sess.append("t", rng.normal(size=140).cumsum())
        self._assert_patched_equals_rebuilt(sess, "t", 0.5)

    def test_dtw_series_append_keeps_band_envelope(self):
        rng = np.random.default_rng(5)
        sess = _session()
        values = rng.normal(size=400).cumsum()
        dataset = IndexedDataset.from_time_series(
            values, window_length=16, windows_per_page=32, dtw_band=2
        )
        sess.register("t", dataset)
        sess.join("t", "t", epsilon=0.5)
        sess.append("t", rng.normal(size=120).cumsum())
        self._assert_patched_equals_rebuilt(sess, "t", 0.5)

    def test_paa_series_append_rejected(self):
        rng = np.random.default_rng(6)
        sess = _session()
        dataset = IndexedDataset.from_time_series(
            rng.normal(size=300).cumsum(),
            window_length=16,
            windows_per_page=32,
            feature="paa",
        )
        sess.register("t", dataset)
        with pytest.raises(ConfigError):
            sess.append("t", rng.normal(size=50).cumsum())

    def test_cross_join_matrix_patched_on_one_side(self):
        sess = _session()
        sess.register("a", _text_dataset(seed=1))
        sess.register("b", _text_dataset(seed=2))
        sess.join("a", "b", epsilon=1.0)
        outcome = sess.append("a", markov_dna(500, seed=7))
        assert outcome["matrices_patched"] == 1
        entry_a = sess._datasets["a"]
        entry_b = sess._datasets["b"]
        rebuilt = rebuild_dataset(entry_a.dataset)
        reference, _ = build_prediction_matrix(
            rebuilt.index,
            entry_b.dataset.index,
            1.0,
            max_filter_rounds=5,
        )
        key = matrix_cache_key(entry_a.fingerprint, entry_b.fingerprint, 1.0, 5)
        assert sess.store.peek_matrix(key) == reference

    def test_append_then_fresh_epsilon_builds_from_final_state(self):
        sess = _session()
        sess.register("g", _text_dataset())
        sess.append("g", markov_dna(400, seed=8))
        result = sess.join("g", "g", epsilon=1.0)
        assert result["matrix_cache"] == "miss"
        self._assert_patched_equals_rebuilt(sess, "g", 1.0)


def _prefilter_case(kind):
    """A dataset, an append payload, ε and page capacity for one kind."""
    rng = np.random.default_rng(7)
    if kind == "vector":
        dataset = IndexedDataset.from_points(rng.random((400, 6)), page_capacity=32)
        return dataset, rng.random((90, 6)), 0.25, 32
    if kind == "text":
        return _text_dataset(), markov_dna(700, seed=9), 2.0, None
    dataset = IndexedDataset.from_time_series(
        rng.normal(size=600).cumsum(), window_length=16, windows_per_page=32,
        dtw_band=2,
    )
    return dataset, rng.normal(size=140).cumsum(), 1.0, None


def _prefilter_view(payload):
    """The pairs and prefilter outcome counters of a join response."""
    counters = payload["counters"]
    return payload["pairs"], {
        name: counters.get(name)
        for name in ("prefilter.cells_scored", "prefilter.cells_unmarked",
                     "prefilter.est_recall_ppm")
    }


class TestPrefilterPath:
    """Sketch provenance, the append patch and evict on the session."""

    @pytest.mark.parametrize("kind", ["vector", "text", "dtw"])
    def test_append_patches_sketches_to_rebuilt_state(self, kind):
        dataset, payload, epsilon, capacity = _prefilter_case(kind)
        sess = _session()
        sess.register("d", dataset, page_capacity=capacity)
        cold = sess.join("d", "d", epsilon, prefilter="approximate")
        assert cold["counters"]["prefilter.sketch_builds"] == 1
        assert sess.append("d", payload)["sketches_patched"] == 1
        served = sess.join("d", "d", epsilon, prefilter="approximate")
        assert served["counters"]["prefilter.sketch_cache_hits"] == 1
        assert "prefilter.sketch_builds" not in served["counters"]

        fresh = _session()
        fresh.register("d", rebuild_dataset(sess._datasets["d"].dataset))
        reference = fresh.join("d", "d", epsilon, prefilter="approximate")
        assert _prefilter_view(served) == _prefilter_view(reference)

        assert sess.evict("d")["dropped_sketches"] == 1
        assert sess.store.stats()["sketches"] == 0

    def test_twin_with_equal_fingerprint_builds_its_own_sketches(
        self, fingerprint_twins
    ):
        twin, moved = fingerprint_twins
        sess = _session()
        sess.register("twin", twin)
        sess.register("moved", moved)
        sess.join("twin", "twin", 0.05, prefilter="approximate")
        served = sess.join("moved", "moved", 0.05, prefilter="approximate")
        assert served["matrix_cache"] == "hit"
        assert served["counters"]["prefilter.sketch_builds"] == 1
        assert "prefilter.sketch_cache_hits" not in served["counters"]
        fresh = _session()
        fresh.register("moved", moved)
        reference = fresh.join("moved", "moved", 0.05, prefilter="approximate")
        assert _prefilter_view(served) == _prefilter_view(reference)
        assert sess.stats()["store"]["sketches"] == 2

    def test_append_patches_only_its_own_sketches(self, fingerprint_twins):
        """Twins' sketch entries share a fingerprint: an append to one
        must leave the other's entry alone."""
        twin, moved = fingerprint_twins
        sess = _session()
        for name, dataset in (("twin", twin), ("moved", moved)):
            sess.register(name, dataset, page_capacity=64)
            sess.join(name, name, 0.05, prefilter="approximate")
        grown = sess.append("twin", np.random.default_rng(3).uniform(0, 1, (70, 2)))
        assert grown["sketches_patched"] == 1
        for name in ("twin", "moved"):
            served = sess.join(name, name, 0.05, prefilter="approximate")
            assert served["counters"]["prefilter.sketch_cache_hits"] == 1
            fresh = _session()
            fresh.register(name, rebuild_dataset(sess._datasets[name].dataset))
            reference = fresh.join(name, name, 0.05, prefilter="approximate")
            assert _prefilter_view(served) == _prefilter_view(reference)


class TestFingerprintChaining:
    """Satellite: incremental fingerprint == from-scratch fingerprint."""

    def test_text_append_chain_matches_scratch(self):
        sess = _session()
        sess.register("g", _text_dataset())
        sess.append("g", markov_dna(700, seed=9))
        entry = sess._datasets["g"]
        scratch = FingerprintChain.from_dataset(entry.dataset).hexdigest()
        assert entry.fingerprint == scratch

    def test_vector_append_chain_matches_scratch(self):
        rng = np.random.default_rng(11)
        sess = _session()
        sess.register(
            "v",
            IndexedDataset.from_points(rng.random((300, 2)), page_capacity=32),
            page_capacity=32,
        )
        sess.append("v", rng.random((70, 2)))
        entry = sess._datasets["v"]
        assert (
            entry.fingerprint
            == FingerprintChain.from_dataset(entry.dataset).hexdigest()
        )

    def test_repeated_appends_stay_chained(self):
        sess = _session()
        sess.register("g", _text_dataset())
        for seed in (21, 22, 23):
            sess.append("g", markov_dna(150, seed=seed))
        entry = sess._datasets["g"]
        assert (
            entry.fingerprint
            == FingerprintChain.from_dataset(entry.dataset).hexdigest()
        )

    def test_append_fingerprint_matches_cold_registration(self):
        text = markov_dna(2000, seed=1)
        suffix = markov_dna(300, seed=2)
        sess = _session()
        sess.register(
            "g",
            IndexedDataset.from_string(text, window_length=48, windows_per_page=64),
        )
        sess.append("g", suffix)
        cold = _session()
        described = cold.register(
            "g2",
            IndexedDataset.from_string(
                text + suffix, window_length=48, windows_per_page=64
            ),
        )
        assert sess._datasets["g"].fingerprint == described["fingerprint"]


class TestAppendDeltas:
    def test_dirty_pages_limited_to_old_last_page(self):
        dataset = _text_dataset(length=2000, window=48, per_page=64)
        chain = FingerprintChain.from_dataset(dataset)
        delta = append_to_dataset(dataset, chain, markov_dna(300, seed=5))
        assert all(p == dataset.num_pages - 1 for p in delta.dirty_pages)
        assert delta.pages_after == delta.dataset.num_pages

    def test_old_snapshot_untouched_by_append(self):
        dataset = _text_dataset(length=2000)
        chain = FingerprintChain.from_dataset(dataset)
        before_pages = dataset.num_pages
        before_fp = chain.hexdigest()
        append_to_dataset(dataset, chain, markov_dna(300, seed=5))
        assert dataset.num_pages == before_pages
        assert chain.hexdigest() == before_fp

    @pytest.mark.parametrize("kind", ["vector", "text", "series", "dtw"])
    def test_appended_leaf_boxes_are_page_min_max(self, kind):
        rng = np.random.default_rng(8)
        if kind == "vector":
            dataset = IndexedDataset.from_points(rng.random((300, 3)), page_capacity=32)
            payload = rng.random((75, 3))
        elif kind == "text":
            dataset = _text_dataset(length=2000)
            payload = markov_dna(300, seed=5)
        else:
            dataset = IndexedDataset.from_time_series(
                rng.normal(size=400).cumsum(), window_length=16, windows_per_page=32,
                dtw_band=3 if kind == "dtw" else None,
            )
            payload = rng.normal(size=130).cumsum()
        delta = append_to_dataset(dataset, FingerprintChain.from_dataset(dataset), payload)
        snapshot = delta.dataset
        assert len(snapshot.index.leaf_bounds()) == snapshot.num_pages
        for page_no, box in enumerate(snapshot.index.leaf_bounds()):
            objects = snapshot.paged.page_objects(page_no)
            if kind == "text":
                objects = np.stack([frequency_vector(window) for window in objects])
            expected = Rect(objects.min(axis=0), objects.max(axis=0))
            if kind == "dtw":
                expected = envelope_box(expected, 3)
            assert np.array_equal(box.lo, expected.lo)
            assert np.array_equal(box.hi, expected.hi)

    def test_subsequence_join_rejects_vectors(self):
        rng = np.random.default_rng(2)
        sess = _session()
        sess.register(
            "v", IndexedDataset.from_points(rng.random((100, 2)), page_capacity=16)
        )
        with pytest.raises(ValueError):
            sess.subsequence_join("v", "v", epsilon=0.1)
