"""Property-based tests for the newer subsystems.

Covers invariants not in test_invariants.py: pm-NLJ's analytic read-count
prediction vs simulation, paging partitions, DTW envelope soundness, and
Morton code determinism/locality.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.zorder import morton_codes
from repro.core.analysis import predict_pm_nlj_reads
from repro.core.pm_nlj import pm_nlj_join
from repro.core.prediction import PredictionMatrix
from repro.distance.dtw import dtw_distance, envelope
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import SequencePagedDataset, VectorPagedDataset
from tests.oracles.joiners import NoopJoiner

# -- strategies ---------------------------------------------------------------


@st.composite
def matrices_with_buffer(draw):
    rows = draw(st.integers(min_value=1, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=12))
    matrix = PredictionMatrix(rows, cols)
    entries = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=rows - 1),
                st.integers(min_value=0, max_value=cols - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    for r, c in entries:
        matrix.mark(r, c)
    buffer_pages = draw(st.integers(min_value=2, max_value=30))
    return matrix, buffer_pages


# -- pm-NLJ prediction == simulation ---------------------------------------------


@given(matrices_with_buffer())
@settings(max_examples=60, deadline=None)
def test_pm_nlj_prediction_matches_simulation(case):
    matrix, buffer_pages = case
    r_ds = VectorPagedDataset(
        np.zeros((matrix.num_rows, 1)), objects_per_page=1, dataset_id="R"
    )
    s_ds = VectorPagedDataset(
        np.zeros((matrix.num_cols, 1)), objects_per_page=1, dataset_id="S"
    )
    disk = SimulatedDisk()
    pool = BufferPool(disk, buffer_pages)
    pm_nlj_join(matrix, pool, r_ds, s_ds, NoopJoiner())
    predicted = predict_pm_nlj_reads(matrix, buffer_pages)
    assert predicted.page_reads == disk.stats.transfers


# -- paging partitions ---------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=50),
)
def test_vector_pages_partition_objects(num_objects, per_page):
    ds = VectorPagedDataset(np.zeros((num_objects, 2)), objects_per_page=per_page)
    covered = []
    for page in range(ds.num_pages):
        start, stop = ds.page_slice(page)
        covered.extend(range(start, stop))
        for local in range(stop - start):
            gid = ds.global_object_id(page, local)
            assert ds.page_of_object(gid) == page
    assert covered == list(range(num_objects))


@given(
    st.integers(min_value=2, max_value=120),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=10),
)
def test_sequence_pages_partition_windows(seq_len, per_page, window):
    if seq_len < window:
        return
    ds = SequencePagedDataset(
        np.zeros(seq_len), symbols_per_page=per_page, window_length=window
    )
    covered = []
    for page in range(ds.num_pages):
        start, stop = ds.window_range(page)
        assert stop > start
        covered.extend(range(start, stop))
    assert covered == list(range(ds.num_windows))


# -- DTW envelope soundness ------------------------------------------------------


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=12),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=12),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=80)
def test_keogh_bound_below_dtw(xs, ys, band):
    if len(xs) != len(ys):
        return
    x = np.asarray(xs)
    y = np.asarray(ys)
    lower, upper = envelope(y, band)
    gap = np.maximum(np.maximum(lower - x, 0.0), np.maximum(x - upper, 0.0))
    keogh = float(np.sqrt(np.sum(gap * gap)))
    assert keogh <= dtw_distance(x, y, band) + 1e-9


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=10),
    st.integers(min_value=0, max_value=3),
)
def test_dtw_bounded_by_euclidean(xs, band):
    x = np.asarray(xs)
    y = x[::-1].copy()
    euclid = float(np.sqrt(np.sum((x - y) ** 2)))
    assert dtw_distance(x, y, band) <= euclid + 1e-9


# -- Morton codes -----------------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40)
def test_morton_codes_shift_invariant_order(n, dim, seed):
    """Translating the whole dataset must not change the Z-order."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, dim))
    base = morton_codes(pts, 0.1)
    shifted = morton_codes(pts + 5.0, 0.1)
    assert np.array_equal(np.argsort(base, kind="stable"),
                          np.argsort(shifted, kind="stable"))
