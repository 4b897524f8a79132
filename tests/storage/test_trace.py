"""Unit tests for disk access tracing."""

from repro.storage.trace import AccessTrace
from tests.oracles.joiners import NoopJoiner


class TestAccessTrace:
    def test_records_reads(self, disk):
        disk.place("a", 10)
        trace = AccessTrace.attach(disk)
        disk.read("a", 0)
        disk.read("a", 1)
        disk.read("a", 5)
        assert len(trace) == 3
        assert trace.events[0] == ("a", 0, 0)

    def test_summary_runs(self, disk):
        disk.place("a", 10)
        trace = AccessTrace.attach(disk)
        for page in (0, 1, 2, 7, 8, 3):
            disk.read("a", page)
        summary = trace.summary()
        assert summary.total_reads == 6
        assert summary.run_count == 3
        assert summary.max_run_length == 3
        assert summary.total_seeks == 3
        assert summary.reads_per_dataset == {"a": 6}

    def test_seek_ratio(self, disk):
        disk.place("a", 10)
        trace = AccessTrace.attach(disk)
        for page in (0, 2, 4, 6):
            disk.read("a", page)
        assert trace.summary().seek_ratio == 1.0

    def test_empty_summary(self):
        summary = AccessTrace().summary()
        assert summary.total_reads == 0
        assert summary.seek_ratio == 0.0

    def test_describe(self, disk):
        disk.place("a", 4)
        trace = AccessTrace.attach(disk)
        disk.read("a", 0)
        assert "1 reads" in trace.summary().describe()

    def test_unsubscribe_stops_recording(self, disk):
        disk.place("a", 4)
        trace = AccessTrace.attach(disk)
        disk.read("a", 0)
        disk.unsubscribe(trace.record)
        disk.read("a", 1)
        assert len(trace) == 1

    def test_manual_record_applies_disk_seek_definition(self):
        trace = AccessTrace()
        for block in (0, 1, 2, 7):
            trace.record("a", block, block)
        assert trace.sequential_flags == [False, True, True, False]
        assert trace.summary().total_seeks == 2


class TestSeekReconciliation:
    """The trace's seeks must equal the disk's — one definition, one truth.

    Historically ``AccessTrace.summary()`` recomputed adjacency from its
    own events and always charged the first traced read as a seek, while
    ``SimulatedDisk`` used head movement — the two disagreed whenever a
    trace was attached mid-stream or a ``charge_stream`` invalidated the
    head between traced reads.  The trace now consumes the disk's own
    per-read verdict; these tests pin the reconciliation.
    """

    def test_trace_seeks_equal_disk_seeks(self, disk):
        disk.place("a", 20)
        trace = AccessTrace.attach(disk)
        before = disk.stats.seeks
        for page in (0, 1, 2, 9, 10, 3, 3, 4):
            disk.read("a", page)
        assert trace.summary().total_seeks == disk.stats.seeks - before
        assert trace.summary().run_count == trace.summary().total_seeks

    def test_trace_agrees_across_charge_stream(self, disk):
        """charge_stream invalidates the head; the next read seeks."""
        disk.place("a", 20)
        trace = AccessTrace.attach(disk)
        before = disk.stats.seeks
        disk.read("a", 0)
        disk.read("a", 1)
        # Bulk transfer: moves the head away.  Streamed seeks are charged
        # to the disk but produce no traced events, so charge none here to
        # keep the per-read comparison exact.
        disk.charge_stream(512, seeks=0)
        disk.read("a", 2)  # would look sequential to a naive trace
        assert trace.sequential_flags == [False, True, False]
        assert trace.summary().total_seeks == disk.stats.seeks - before

    def test_trace_attached_mid_stream(self, disk):
        """A trace attached after reads begins with the disk's verdict."""
        disk.place("a", 20)
        disk.read("a", 0)
        trace = AccessTrace.attach(disk)
        before = disk.stats.seeks
        disk.read("a", 1)  # sequential for the disk despite being trace event 0
        disk.read("a", 5)
        assert trace.sequential_flags == [True, False]
        assert trace.summary().total_seeks == disk.stats.seeks - before


class TestShimRemoved:
    def test_attach_trace_shim_is_gone(self):
        import repro.storage as storage
        import repro.storage.trace as trace_module

        assert not hasattr(trace_module, "attach_trace")
        assert not hasattr(storage, "attach_trace")
        assert "attach_trace" not in trace_module.__all__

    def test_subscriber_api_does_not_monkeypatch_read(self, disk):
        method_before = type(disk).read
        AccessTrace.attach(disk)
        assert "read" not in vars(disk)  # no instance-level override
        assert type(disk).read is method_before


class TestTraceValidatesSchedules:
    def test_sc_reads_are_batched_runs(self, vector_pair):
        """SC's optimally scheduled cluster reads form long runs."""
        from repro.storage.buffer import BufferPool
        from repro.storage.disk import SimulatedDisk

        # Reproduce a join manually so the trace sees the disk.
        r, s = vector_pair
        from repro.core.executor import execute_clusters
        from repro.core.schedule import greedy_cluster_order
        from repro.core.square import square_clustering
        from repro.core.sweep import build_prediction_matrix

        matrix, _ = build_prediction_matrix(r.index, s.index, 0.05)
        clusters, _ = square_clustering(matrix, 10)
        ordered = greedy_cluster_order(clusters, r.paged.dataset_id, s.paged.dataset_id)
        disk = SimulatedDisk()
        trace = AccessTrace.attach(disk)
        pool = BufferPool(disk, 10)
        execute_clusters(ordered, pool, r.paged, s.paged, NoopJoiner())
        summary = trace.summary()
        assert summary.total_reads > 0
        assert summary.mean_run_length > 1.0  # batched, not random
