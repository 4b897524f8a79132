"""Runtime auditing of the paper's cluster I/O bounds.

Lemma 1: a cluster with ``e`` entries over ``r`` row pages and ``c``
column pages can be executed with at most ``e + min(r, c)`` page reads
(pin the smaller side page-at-a-time, stream the other per entry).

Lemma 2: a *square* cluster fits its pages in the buffer, so it needs at
most ``r + c`` reads — each page exactly once.

The executor stages every page of a cluster through the buffer pool, so
the achievable bound for any cluster is ``min(e + min(r, c), r + c)``.
:class:`LemmaAuditor` snapshots the disk's transfer counter around each
cluster and verifies the observed reads never exceed that bound; a
violation means the buffer is thrashing inside a single cluster (or the
clustering emitted an oversized cluster) and is recorded as both a
counter (``lemma.violations``) and a structured event
(``lemma.violation``) carrying the offending cluster's shape.

Reads can legitimately come in *under* the bound — pages already
resident from a previous cluster are free, which is exactly the sharing
the scheduler optimises — so the audit is one-sided.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = ["LemmaAuditor", "lemma_bound"]


def lemma_bound(num_entries: int, num_rows: int, num_cols: int) -> int:
    """``min(Lemma 1, Lemma 2)`` page-read bound for one cluster."""
    lemma1 = num_entries + min(num_rows, num_cols)
    lemma2 = num_rows + num_cols
    return min(lemma1, lemma2)


class LemmaAuditor:
    """Checks each executed cluster's observed reads against the bounds.

    Feed it one :meth:`check_cluster` call per executed cluster with the
    disk-transfer delta observed while staging that cluster (its joins
    read no pages through the pool).
    Results land on the recorder:

    - ``lemma.clusters_audited`` — clusters checked,
    - ``lemma.violations`` — clusters whose reads exceeded the bound,
    - ``lemma.reads_observed`` / ``lemma.reads_bound`` — totals, so the
      achieved-vs-allowed ratio is one division away,
    - a ``lemma.violation`` event per offender with its shape.

    With ``keep_records=True`` the auditor additionally retains one dict
    per audited cluster (``index``, ``rows``, ``cols``, ``entries``,
    ``bound``, ``observed``) in :attr:`records` — the per-cluster
    reconciliation rows the EXPLAIN artifact reports headroom from.
    """

    def __init__(
        self, recorder: Optional[Recorder] = None, keep_records: bool = False
    ) -> None:
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.clusters_audited = 0
        self.violations = 0
        self.keep_records = keep_records
        self.records: List[Dict[str, int]] = []

    def check_cluster(self, cluster, observed_reads: int, cluster_index: int = -1) -> bool:
        """Audit one cluster; returns True when within bound."""
        r = len(cluster.rows)
        c = len(cluster.cols)
        e = cluster.num_entries
        bound = lemma_bound(e, r, c)
        self.clusters_audited += 1
        rec = self.recorder
        rec.count("lemma.clusters_audited")
        rec.count("lemma.reads_observed", int(observed_reads))
        rec.count("lemma.reads_bound", int(bound))
        if self.keep_records:
            self.records.append(
                {
                    "index": int(cluster_index),
                    "rows": r,
                    "cols": c,
                    "entries": e,
                    "bound": int(bound),
                    "observed": int(observed_reads),
                }
            )
        if observed_reads > bound:
            self.violations += 1
            rec.count("lemma.violations")
            rec.event(
                "lemma.violation",
                cluster_index=cluster_index,
                rows=r,
                cols=c,
                entries=e,
                observed_reads=int(observed_reads),
                lemma1_bound=e + min(r, c),
                lemma2_bound=r + c,
            )
            return False
        return True

    def summary(self) -> Dict[str, Any]:
        return {
            "clusters_audited": self.clusters_audited,
            "violations": self.violations,
        }
