"""The EXPLAIN layer: plan snapshots + predicted-vs-observed reconciliation.

The whole pipeline is cost-model-driven — Lemma 1/2 read bounds pick the
cluster shapes, the linear disk model prices every cluster CC grows, the
sharing graph schedules for predicted page reuse, the sketch cascade
unmarks cells on an estimated recall, and the shard planner balances
predicted cell loads.  ``join(..., explain=True)`` makes every one of
those predictions a first-class output and, after execution, reconciles
each against what the simulated machinery actually charged:

* **I/O seconds** — predicted by :class:`~repro.obs.metrics.DiskCostReplayer`
  re-pricing every accounted disk event through the same
  :meth:`~repro.costmodel.CostModel.io_cost` calls the disk makes, so on a
  sound accounting pipeline the residual is *exactly* ``0.0`` (the
  closed-form ``io_cost(Σtransfers, Σseeks)`` is also reported; it reorders
  float additions and lands a few ulp away — informational only).
* **Per-cluster reads** — the Lemma 1/2 bound and the schedule's
  warm-read prediction versus the counted staging reads (reusing
  :class:`~repro.obs.audit.LemmaAuditor` with ``keep_records=True``).
* **Prefilter recall** — the cascade's estimate versus a measured recall
  attached after a reference run (:meth:`JoinExplain.attach_measured_recall`).
* **Shard balance** — the planner's per-shard cell loads versus the
  observed per-shard comparisons and worker wall seconds.

Each reconciliation is a *signed residual* (observed − predicted; positive
means the model undershot).  Deterministic residuals are additionally
emitted as ``explain.residual.*`` counters (see
``repro.obs.recorder.EXPLAIN_VARIANT_COUNTER_PREFIXES``); nondeterministic
ones (wall times, shard imbalance) live only in the artifact.

The artifact renders as versioned machine-readable JSON
(:data:`EXPLAIN_SCHEMA_VERSION`, validated by :func:`validate_explain`)
or a human text report (:meth:`JoinExplain.to_text`), and the observed
op/seconds totals double as calibration samples for
:func:`repro.costmodel.fit_cost_model`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.audit import LemmaAuditor
from repro.obs.metrics import (
    DiskCostReplayer,
    fraction_to_ppm,
    seconds_to_us,
    signed_residual,
)
from repro.obs.recorder import NULL_RECORDER, Recorder

__all__ = [
    "EXPLAIN_SCHEMA_VERSION",
    "JoinExplain",
    "ExplainCollector",
    "validate_explain",
    "validate_explain_file",
]

EXPLAIN_SCHEMA_VERSION = 1

# Per-cluster and per-shard detail rows kept verbatim in the JSON
# artifact; runs with more clusters keep the totals exact and record how
# many rows were dropped (never a silent cap).
_MAX_DETAIL_ROWS = 256


class JoinExplain:
    """One join's plan snapshots and reconciliation, renderable two ways.

    Thin wrapper over the schema dict (:attr:`data`): convenience
    accessors for the acceptance-critical fields, JSON/text rendering,
    and the post-hoc :meth:`attach_measured_recall` hook (a measured
    recall needs a reference run, which cannot happen inside the join
    that is being explained).
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    # -- acceptance-critical accessors ----------------------------------------

    @property
    def io_residual_seconds(self) -> float:
        """Observed − replayed-predicted I/O seconds; exactly 0.0 when sound."""
        return self.data["reconciliation"]["io"]["residual_seconds"]

    @property
    def lemma_violations(self) -> int:
        clusters = self.data["reconciliation"].get("clusters")
        return clusters["violations"] if clusters else 0

    @property
    def est_recall(self) -> Optional[float]:
        pf = self.data["reconciliation"].get("prefilter")
        return pf["est_recall"] if pf else None

    @property
    def measured_recall(self) -> Optional[float]:
        pf = self.data["reconciliation"].get("prefilter")
        return pf.get("measured_recall") if pf else None

    def calibration_samples(self) -> List[Dict[str, float]]:
        """Samples in the shape :func:`repro.costmodel.fit_cost_model` takes."""
        return list(self.data["calibration"]["samples"])

    def attach_measured_recall(
        self, recall: float, recorder: Recorder = NULL_RECORDER
    ) -> None:
        """Record a recall measured against a reference run.

        Fills ``reconciliation.prefilter.measured_recall`` and the signed
        ``recall_residual`` (measured − estimated), and emits the
        ``explain.residual.prefilter_recall_ppm`` counter on ``recorder``.
        """
        pf = self.data["reconciliation"].get("prefilter")
        if pf is None:
            pf = self.data["reconciliation"]["prefilter"] = {"est_recall": None}
        pf["measured_recall"] = float(recall)
        est = pf.get("est_recall")
        if est is not None:
            residual = signed_residual(float(recall), float(est))
            pf["recall_residual"] = residual
            recorder.count(
                "explain.residual.prefilter_recall_ppm", fraction_to_ppm(residual)
            )

    # -- rendering -------------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """The human report: one block per section, residuals called out."""
        d = self.data
        meta = d["meta"]
        lines = [
            f"EXPLAIN join  method={meta['method']}  epsilon={meta['epsilon']}"
            f"  buffer_pages={meta['buffer_pages']}  workers={meta['workers']}"
            f"  (schema v{d['schema_version']})",
            f"  cost model: seek={meta['cost_model']['seek_s']}s"
            f"  transfer={meta['cost_model']['transfer_s']}s"
            f"  cpu_compare={meta['cost_model']['cpu_compare_s']}s",
        ]
        plan = d["plan"]
        if plan.get("matrix"):
            m = plan["matrix"]
            lines.append(
                f"plan.matrix      {m['num_rows']}x{m['num_cols']} pages, "
                f"{m['marked_entries']} marked (density {m['density']:.4f}), "
                f"cache={m['cache_state']}, "
                f"modeled sweep cpu {m['predicted_cpu_seconds']:.4f}s"
            )
        if plan.get("prefilter"):
            p = plan["prefilter"]
            lines.append(
                f"plan.prefilter   mode={p['mode']}: scored {p['cells_scored']}, "
                f"unmarked {p['cells_unmarked']} "
                f"({p['unmarked_mass_fraction']:.6f} of collision mass), "
                f"est_recall={p['est_recall']:.6f}"
            )
        if plan.get("clusters"):
            c = plan["clusters"]
            lines.append(
                f"plan.clusters    {c['num_clusters']} clusters / "
                f"{c['total_entries']} entries; predicted cold I/O "
                f"{c['predicted_cold_io_seconds']:.4f}s "
                f"({c['predicted_cold_reads']} reads), "
                f"warm after sharing {c['predicted_warm_reads']} reads"
            )
        if plan.get("schedule"):
            sch = plan["schedule"]
            lines.append(
                f"plan.schedule    policy={sch['policy']}, "
                f"predicted saved page reads {sch['predicted_saved_page_reads']}"
            )
        if plan.get("shards"):
            sh = plan["shards"]
            lines.append(
                f"plan.shards      {sh['num_shards']}x {sh['strategy']}, "
                f"predicted cells {sh['predicted_cells']}, "
                f"duplicated pages {sh['duplicated_pages']}"
            )
        rec = d["reconciliation"]
        io = rec["io"]
        lines.append(
            f"recon.io         predicted {io['predicted_io_seconds']:.6f}s vs "
            f"observed {io['observed_io_seconds']:.6f}s  "
            f"residual {io['residual_seconds']:+.3e}s"
            + ("  [EXACT]" if io["residual_seconds"] == 0.0 else "")
        )
        lines.append(
            f"                 transfers {io['observed_transfers']} "
            f"(residual {io['transfer_residual']:+d}), "
            f"seeks {io['observed_seeks']} "
            f"(residual {io['seek_residual']:+d}); closed-form residual "
            f"{io['closed_form_residual_seconds']:+.3e}s"
        )
        if rec.get("clusters"):
            cl = rec["clusters"]
            lines.append(
                f"recon.clusters   {cl['audited']} audited, "
                f"{cl['violations']} Lemma violations; observed "
                f"{cl['observed_reads']} reads vs bound {cl['bound_reads']} "
                f"(headroom {cl['bound_headroom']}), vs warm prediction "
                f"{cl['predicted_warm_reads']} "
                f"(residual {cl['warm_read_residual']:+d})"
            )
        if rec.get("prefilter"):
            pf = rec["prefilter"]
            measured = pf.get("measured_recall")
            line = f"recon.prefilter  est_recall={pf['est_recall']}"
            if measured is not None:
                line += (
                    f", measured={measured:.6f}"
                    f" (residual {pf['recall_residual']:+.6f})"
                )
            else:
                line += ", measured=(attach a reference run)"
            lines.append(line)
        if rec.get("shards"):
            sh = rec["shards"]
            lines.append(
                f"recon.shards     predicted imbalance "
                f"{sh['predicted_cell_imbalance']:.4f}, observed "
                f"{sh['observed_cell_imbalance']:.4f} "
                f"(residual {sh['cell_imbalance_residual']:+.4f}); "
                f"wall imbalance {sh['wall_imbalance']:.4f}"
            )
        cal = d["calibration"]
        if cal.get("suggested"):
            sg = cal["suggested"]
            lines.append(
                f"calibration      fitted seek={sg['seek_s']:.6g}s "
                f"transfer={sg['transfer_s']:.6g}s "
                f"cpu_compare={sg['cpu_compare_s']:.6g}s "
                f"from {len(cal['samples'])} sample(s)"
            )
        return "\n".join(lines)

    def save(self, path, format: str = "json") -> None:
        if format not in ("json", "text"):
            raise ValueError(f"format must be 'json' or 'text', got {format!r}")
        rendered = self.to_json() if format == "json" else self.to_text()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")


def validate_explain(data: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``data`` is a valid v1 explain artifact."""
    if not isinstance(data, dict):
        raise ValueError("explain artifact must be a JSON object")
    version = data.get("schema_version")
    if version != EXPLAIN_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported explain schema_version {version!r} "
            f"(expected {EXPLAIN_SCHEMA_VERSION})"
        )
    for section in ("meta", "plan", "observed", "reconciliation", "calibration"):
        if not isinstance(data.get(section), dict):
            raise ValueError(f"explain artifact missing object section {section!r}")
    meta = data["meta"]
    for key in ("method", "epsilon", "buffer_pages", "workers", "cost_model"):
        if key not in meta:
            raise ValueError(f"explain meta missing {key!r}")
    io = data["reconciliation"].get("io")
    if not isinstance(io, dict):
        raise ValueError("explain reconciliation missing 'io'")
    for key in (
        "predicted_io_seconds",
        "observed_io_seconds",
        "residual_seconds",
        "closed_form_io_seconds",
        "closed_form_residual_seconds",
        "predicted_transfers",
        "observed_transfers",
        "transfer_residual",
        "predicted_seeks",
        "observed_seeks",
        "seek_residual",
    ):
        if key not in io:
            raise ValueError(f"explain reconciliation.io missing {key!r}")
    if not isinstance(data["calibration"].get("samples"), list):
        raise ValueError("explain calibration missing 'samples' list")


def validate_explain_file(path) -> Dict[str, Any]:
    """Load + validate a JSON explain artifact; returns the parsed dict."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    validate_explain(data)
    return data


class ExplainCollector:
    """Assembles a :class:`JoinExplain` across the stages of one ``join()``.

    Created right after the disk when ``explain`` is requested; each
    pipeline stage snapshots its plan as it is made, the executors feed
    back per-cluster audits and per-shard observations, and
    :meth:`finalize` reconciles everything and emits the
    ``explain.residual.*`` counters.  Works with any recorder, including
    the null one (records are kept on the collector; counters no-op).
    """

    def __init__(self, method: str, cost_model, recorder: Recorder = NULL_RECORDER) -> None:
        self.recorder = recorder
        self.cost_model = cost_model
        self.replayer = DiskCostReplayer(cost_model)
        # Keeps per-cluster bound/observed rows for the reconciliation;
        # the executors audit through this instance so the counted
        # lemma.* totals and the explain rows come from one source.
        self.auditor = LemmaAuditor(recorder, keep_records=True)
        self._meta: Dict[str, Any] = {
            "method": method,
            "cost_model": {
                "seek_s": cost_model.seek_s,
                "transfer_s": cost_model.transfer_s,
                "cpu_compare_s": cost_model.cpu_compare_s,
            },
        }
        self._plan: Dict[str, Any] = {}
        self._warm_reads: Optional[List[int]] = None
        self._shard_predicted: Optional[List[int]] = None
        self._shard_observed: Optional[Dict[str, List[float]]] = None

    # -- plan snapshots --------------------------------------------------------

    def watch_disk(self, disk) -> None:
        self.replayer.watch(disk)

    def set_meta(self, **fields: Any) -> None:
        self._meta.update(fields)

    def snapshot_matrix(
        self, matrix, sweep_stats, cache_state: str, predicted_cpu_seconds: float
    ) -> None:
        self._plan["matrix"] = {
            "num_rows": matrix.num_rows,
            "num_cols": matrix.num_cols,
            "marked_entries": matrix.num_marked,
            "density": matrix.density(),
            "cache_state": cache_state,
            "sweep": {
                "endpoints_processed": sweep_stats.endpoints_processed,
                "intersection_tests": sweep_stats.intersection_tests,
                "node_pairs_expanded": sweep_stats.node_pairs_expanded,
                "leaf_pairs_marked": sweep_stats.leaf_pairs_marked,
                "filter_rounds": sweep_stats.filter_rounds,
                "total_operations": sweep_stats.total_operations,
            },
            "predicted_cpu_seconds": predicted_cpu_seconds,
        }

    def snapshot_prefilter(self, plan) -> None:
        total_mass = plan.total_mass
        unmarked_mass = plan.unmarked_mass
        self._plan["prefilter"] = {
            # Schema v1 field; approximate is the only prefilter mode.
            "mode": "approximate",
            "cells_scored": plan.num_cells,
            "cells_unmarked": plan.num_unmarked,
            "est_recall": plan.est_recall,
            "total_mass": total_mass,
            "unmarked_mass": unmarked_mass,
            "unmarked_mass_fraction": (
                unmarked_mass / total_mass if total_mass > 0 else 0.0
            ),
        }

    def snapshot_clusters(self, ordered, disk_cost, r_dataset_id, s_dataset_id) -> None:
        """Per-cluster cold disk-cost predictions + the schedule's warm reads.

        ``disk_cost`` is the :class:`~repro.core.costcluster.LinearDiskModelCost`
        layout of the two datasets (built from the same disk the join
        runs on); each cluster's cold prediction prices its page set read
        optimally, and the warm prediction subtracts the pages Lemma 4
        says the previous cluster leaves resident.
        """
        per_cluster: List[Dict[str, Any]] = []
        warm_reads: List[int] = []
        total_cold_io = 0.0
        total_cold_reads = 0
        total_entries = 0
        prev = None
        for index, cluster in enumerate(ordered):
            transfers, seeks, io_seconds = disk_cost.page_set_io(
                cluster.rows, cluster.cols
            )
            shared = (
                prev.shared_pages(cluster, r_dataset_id, s_dataset_id)
                if prev is not None
                else 0
            )
            warm = transfers - shared
            warm_reads.append(warm)
            total_cold_io += io_seconds
            total_cold_reads += transfers
            total_entries += cluster.num_entries
            if len(per_cluster) < _MAX_DETAIL_ROWS:
                per_cluster.append(
                    {
                        "index": index,
                        "rows": len(cluster.rows),
                        "cols": len(cluster.cols),
                        "entries": cluster.num_entries,
                        "cold_transfers": transfers,
                        "cold_seeks": seeks,
                        "cold_io_seconds": io_seconds,
                        "warm_transfers": warm,
                    }
                )
            prev = cluster
        self._warm_reads = warm_reads
        self._plan["clusters"] = {
            "num_clusters": len(ordered),
            "total_entries": total_entries,
            "predicted_cold_reads": total_cold_reads,
            "predicted_cold_io_seconds": total_cold_io,
            "predicted_warm_reads": int(sum(warm_reads)),
            "per_cluster": per_cluster,
            "per_cluster_truncated": max(0, len(ordered) - len(per_cluster)),
        }

    def snapshot_schedule(self, policy: str, ordered, r_dataset_id, s_dataset_id) -> None:
        from repro.core.schedule import schedule_savings

        self._plan["schedule"] = {
            "policy": policy,
            "predicted_saved_page_reads": int(
                schedule_savings(ordered, r_dataset_id, s_dataset_id)
            ),
        }

    def snapshot_shards(self, shard_plan) -> None:
        self._shard_predicted = [int(c) for c in shard_plan.costs]
        self._plan["shards"] = {
            "strategy": shard_plan.strategy,
            "num_shards": shard_plan.num_shards,
            "predicted_cells": self._shard_predicted,
            "duplicated_pages": int(shard_plan.duplicated_pages),
        }

    # -- execution feedback ----------------------------------------------------

    def observe_shards(
        self, observed_cells: List[int], wall_seconds: List[float]
    ) -> None:
        """Per-shard observed comparison counts and worker wall seconds."""
        self._shard_observed = {
            "cells": [int(c) for c in observed_cells],
            "wall_seconds": [float(w) for w in wall_seconds],
        }

    # -- reconciliation --------------------------------------------------------

    def finalize(self, disk_stats, outcome, stage_seconds: Dict[str, float]) -> JoinExplain:
        """Reconcile plans against observations; emits residual counters."""
        self.replayer.detach()
        rec = self.recorder
        reconciliation: Dict[str, Any] = {}

        observed_io = disk_stats.io_seconds
        residual = self.replayer.residual_against(observed_io)
        closed_form = self.replayer.closed_form_io_seconds()
        reconciliation["io"] = {
            "predicted_io_seconds": self.replayer.io_seconds,
            "observed_io_seconds": observed_io,
            "residual_seconds": residual,
            "closed_form_io_seconds": closed_form,
            "closed_form_residual_seconds": signed_residual(observed_io, closed_form),
            "predicted_transfers": self.replayer.transfers,
            "observed_transfers": disk_stats.transfers,
            "transfer_residual": disk_stats.transfers - self.replayer.transfers,
            "predicted_seeks": self.replayer.seeks,
            "observed_seeks": disk_stats.seeks,
            "seek_residual": disk_stats.seeks - self.replayer.seeks,
        }
        rec.count("explain.residual.io_us", seconds_to_us(residual))

        if self.auditor.records:
            records = self.auditor.records
            observed_total = sum(row["observed"] for row in records)
            bound_total = sum(row["bound"] for row in records)
            per_cluster: List[Dict[str, Any]] = []
            warm = self._warm_reads or [None] * len(records)
            for row in records[:_MAX_DETAIL_ROWS]:
                entry = dict(row)
                entry["headroom"] = row["bound"] - row["observed"]
                predicted = (
                    warm[row["index"]]
                    if 0 <= row["index"] < len(warm) and warm[row["index"]] is not None
                    else None
                )
                if predicted is not None:
                    entry["predicted_warm"] = predicted
                    entry["warm_residual"] = row["observed"] - predicted
                per_cluster.append(entry)
            warm_total = (
                int(sum(self._warm_reads)) if self._warm_reads is not None else None
            )
            clusters_rec: Dict[str, Any] = {
                "audited": self.auditor.clusters_audited,
                "violations": self.auditor.violations,
                "observed_reads": int(observed_total),
                "bound_reads": int(bound_total),
                "bound_headroom": int(bound_total - observed_total),
                "per_cluster": per_cluster,
                "per_cluster_truncated": max(0, len(records) - len(per_cluster)),
            }
            if warm_total is not None:
                clusters_rec["predicted_warm_reads"] = warm_total
                clusters_rec["warm_read_residual"] = int(observed_total - warm_total)
                rec.count(
                    "explain.residual.cluster_reads",
                    int(observed_total - warm_total),
                )
            reconciliation["clusters"] = clusters_rec

        if "prefilter" in self._plan:
            reconciliation["prefilter"] = {
                "est_recall": self._plan["prefilter"]["est_recall"],
                "measured_recall": None,
            }

        if self._shard_predicted is not None and self._shard_observed is not None:
            predicted = self._shard_predicted
            observed = self._shard_observed["cells"]
            walls = self._shard_observed["wall_seconds"]
            per_shard = [
                {
                    "shard": k,
                    "predicted_cells": predicted[k],
                    "observed_cells": observed[k],
                    "cell_residual": observed[k] - predicted[k],
                    "wall_seconds": walls[k],
                }
                for k in range(len(predicted))
            ]
            reconciliation["shards"] = {
                "per_shard": per_shard,
                "predicted_cell_imbalance": _imbalance(predicted),
                "observed_cell_imbalance": _imbalance(observed),
                "cell_imbalance_residual": signed_residual(
                    _imbalance(observed), _imbalance(predicted)
                ),
                "wall_imbalance": _imbalance(walls),
            }

        sample = {
            "transfers": disk_stats.transfers,
            "seeks": disk_stats.seeks,
            "io_seconds": observed_io,
            "comparisons": outcome.comparisons,
            "cpu_seconds": outcome.cpu_seconds,
            "execution_wall_seconds": stage_seconds.get("execution", 0.0),
        }
        suggested = None
        if sample["transfers"] or sample["comparisons"]:
            from repro.costmodel import fit_cost_model

            fitted = fit_cost_model([sample], base=self.cost_model)
            suggested = {
                "seek_s": fitted.seek_s,
                "transfer_s": fitted.transfer_s,
                "cpu_compare_s": fitted.cpu_compare_s,
            }

        data: Dict[str, Any] = {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "meta": dict(self._meta),
            "plan": dict(self._plan),
            "observed": {
                "io": {
                    "transfers": disk_stats.transfers,
                    "seeks": disk_stats.seeks,
                    "buffer_hits": disk_stats.buffer_hits,
                    "io_seconds": observed_io,
                },
                "execution": {
                    "comparisons": outcome.comparisons,
                    "num_pairs": outcome.num_pairs,
                    "pages_read": outcome.pages_read,
                    "pages_reused": outcome.pages_reused,
                    "cpu_seconds": outcome.cpu_seconds,
                },
                "stage_seconds": dict(stage_seconds),
            },
            "reconciliation": reconciliation,
            "calibration": {"samples": [sample], "suggested": suggested},
        }
        return JoinExplain(data)


def _imbalance(values) -> float:
    """max/mean load ratio; 1.0 is perfectly balanced, 0.0 for no load."""
    values = list(values)
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean <= 0:
        return 0.0
    return max(values) / mean
