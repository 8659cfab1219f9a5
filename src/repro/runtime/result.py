"""Measured outcome of a run, and the fold that builds one stage's share."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.load import max_balance_indicator, max_skewness
from repro.engine.metrics import IntervalMetrics, MetricsCollector
from repro.runtime.controller import LiveMigrationReport
from repro.runtime.histogram import LatencyHistogram
from repro.runtime.messages import FinalReport, IntervalReport

__all__ = ["RuntimeResult", "TopologyResult", "fold_stage_result"]

Key = Hashable


@dataclass
class RuntimeResult:
    """Measured outcome of one stage (or of a whole single-stage run)."""

    label: str
    metrics: MetricsCollector
    latency: LatencyHistogram
    tuples_offered: int = 0
    tuples_processed: int = 0
    #: Always 0: the runtime never drops a tuple (a full queue blocks).
    tuples_shed: float = 0.0
    wall_seconds: float = 0.0
    migrations: List[LiveMigrationReport] = field(default_factory=list)
    final_reports: Dict[int, FinalReport] = field(default_factory=dict)
    final_state: Dict[Key, List[Any]] = field(default_factory=dict)
    #: Per-interval latency histogram deltas (merged across the stage's
    #: workers); they sum to :attr:`latency` and give Fig. 13(b)-style
    #: latency-over-time from measured buckets.
    interval_latency: Dict[int, LatencyHistogram] = field(default_factory=dict)
    #: End-to-end (source-offer to completion) histogram; populated on the
    #: final stage of a topology, empty elsewhere.
    e2e_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Pacing installed by the adaptive calibration (``None`` = not calibrated).
    calibrated_service_time_us: Optional[float] = None
    #: Protocol-sanitizer report of the run (``None`` = sanitizer off); the
    #: report is run-global, so every stage of one topology shares it.
    sanitizer: Optional[Dict[str, Any]] = None
    #: Resilience accounting of this stage (``None`` = subsystem off):
    #: ``{"incidents": [...], "scale_events": [...], "checkpoints": {...}}``.
    resilience: Optional[Dict[str, Any]] = None
    #: Number of upstream edges feeding this stage (source included); ≥ 2
    #: marks a fan-in consumer whose intervals close on the multi-origin
    #: mark barrier.
    upstreams: int = 0
    #: Cumulative split-key routing statistics (``None`` unless the stage's
    #: partitioner splits keys — see :meth:`StreamRouter.snapshot_split_stats`).
    split_stats: Optional[Dict[str, float]] = None
    #: Transport counters of the stage's router thread: ``ingress`` batches
    #: accepted, dispatch ``chunks`` routed (fewer than ``ingress`` when
    #: waiting batches were merged), ``TupleBatch`` messages ``to_workers``
    #: and the ``tuples_to_workers`` in them (= offered at end of run).
    messages: Dict[str, int] = field(default_factory=dict)

    def resilience_book(self) -> Dict[str, Any]:
        """:attr:`resilience`, made empty on first use."""
        if self.resilience is None:
            self.resilience = {
                "incidents": [],
                "scale_events": [],
                "checkpoints": {"count": 0.0, "bytes_written": 0.0, "write_seconds": 0.0},
            }
        return self.resilience

    @property
    def tuples_per_worker_message(self) -> float:
        """Mean size of the messages the stage's workers were sent."""
        sent = self.messages.get("to_workers", 0)
        return self.messages.get("tuples_to_workers", 0) / sent if sent else 0.0

    @property
    def tuples_per_second(self) -> float:
        return self.tuples_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def pause_seconds_total(self) -> float:
        return sum(report.pause_seconds for report in self.migrations)

    @property
    def moved_keys_total(self) -> int:
        return sum(report.moved_keys for report in self.migrations)

    def summary(self) -> Dict[str, float]:
        """Headline numbers (one bench table row)."""
        row: Dict[str, float] = {
            "tuples": float(self.tuples_processed),
            "wall_seconds": self.wall_seconds,
            "tuples_per_second": self.tuples_per_second,
        }
        row.update(self.summary_latency())
        row.update(
            {
                "rebalances": float(len(self.migrations)),
                "moved_keys": float(self.moved_keys_total),
                "pause_seconds": self.pause_seconds_total,
                "shed_tuples": float(self.tuples_shed),
            }
        )
        return row

    def summary_latency(self) -> Dict[str, float]:
        summary = self.latency.summary_ms()
        summary.pop("samples", None)
        summary.pop("latency_max_ms", None)
        return summary


@dataclass
class TopologyResult:
    """Measured outcome of one topology run: one RuntimeResult per stage."""

    label: str
    stages: Dict[str, RuntimeResult]
    wall_seconds: float = 0.0
    tuples_offered: int = 0
    #: Protocol-sanitizer report (``None`` = sanitizer off).
    sanitizer: Optional[Dict[str, Any]] = None

    @property
    def stage_names(self) -> List[str]:
        return list(self.stages)

    @property
    def final(self) -> RuntimeResult:
        """The last stage — its processed count is the chain's output."""
        return self.stages[next(reversed(self.stages))]

    @property
    def e2e_latency(self) -> LatencyHistogram:
        return self.final.e2e_latency

    @property
    def migrations(self) -> List[LiveMigrationReport]:
        return [report for stage in self.stages.values() for report in stage.migrations]

    @property
    def tuples_processed(self) -> int:
        """Tuples completed by the final stage (end-to-end output)."""
        return self.final.tuples_processed

    @property
    def resilience(self) -> Optional[Dict[str, Any]]:
        """Merged resilience accounting across stages (``None`` = off)."""
        merged: Dict[str, Any] = {
            "incidents": [],
            "scale_events": [],
            "checkpoints": {"count": 0.0, "bytes_written": 0.0, "write_seconds": 0.0},
        }
        enabled = False
        for stage in self.stages.values():
            data = stage.resilience
            if data is None:
                continue
            enabled = True
            merged["incidents"].extend(data.get("incidents", []))
            merged["scale_events"].extend(data.get("scale_events", []))
            for key, value in data.get("checkpoints", {}).items():
                merged["checkpoints"][key] = (
                    merged["checkpoints"].get(key, 0.0) + value
                )
        return merged if enabled else None

    @property
    def tuples_shed(self) -> float:
        return sum(stage.tuples_shed for stage in self.stages.values())

    @property
    def tuples_per_second(self) -> float:
        return self.tuples_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """Chain-level headline row (same keys as a stage summary).

        Latency percentiles come from the final stage's measured end-to-end
        histogram (source offer → completion), so they include every queue
        and every stage of the chain.
        """
        e2e = self.e2e_latency.summary_ms()
        return {
            "tuples": float(self.tuples_processed),
            "wall_seconds": self.wall_seconds,
            "tuples_per_second": self.tuples_per_second,
            "latency_p50_ms": e2e["latency_p50_ms"],
            "latency_p99_ms": e2e["latency_p99_ms"],
            "latency_mean_ms": e2e["latency_mean_ms"],
            "rebalances": float(sum(len(s.migrations) for s in self.stages.values())),
            "moved_keys": float(sum(s.moved_keys_total for s in self.stages.values())),
            "pause_seconds": sum(s.pause_seconds_total for s in self.stages.values()),
            "shed_tuples": float(self.tuples_shed),
        }


def fold_stage_result(
    label: str,
    parallelism: int,
    wall_seconds: float,
    interval_rows: Sequence[Mapping[str, Any]],
    interval_reports: Iterable[IntervalReport],
    finals: Iterable[FinalReport],
    messages: Optional[Mapping[str, int]] = None,
) -> RuntimeResult:
    """Fold a stage loop's interval rows and its workers' reports.

    ``messages`` are the loop's and its router's transport counters (see
    :attr:`RuntimeResult.messages`).  What else only the live loop knows
    (migrations, calibration, resilience, split-key statistics)
    is added by ``_StageLoop.aggregate``.
    """
    # Keep-last per (interval, worker): a recovery replays EndInterval
    # markers, so a respawned worker re-sends interval reports the dead
    # one already delivered — the re-send carries the healed accounting.
    deduped: Dict[Tuple[int, int], IntervalReport] = {}
    for report in interval_reports:
        deduped[(report.interval, report.worker_id)] = report
    per_interval: Dict[int, List[IntervalReport]] = {}
    for report in deduped.values():
        per_interval.setdefault(report.interval, []).append(report)

    latency = LatencyHistogram()
    e2e = LatencyHistogram()
    final_reports: Dict[int, FinalReport] = {}
    final_state: Dict[Key, List[Any]] = {}
    processed_total = 0
    tail = LatencyHistogram()
    for report in finals:
        final_reports[report.worker_id] = report
        latency.merge(LatencyHistogram.from_dict(report.histogram))
        if report.e2e_histogram:
            e2e.merge(LatencyHistogram.from_dict(report.e2e_histogram))
        if report.tail_histogram:
            tail.merge(LatencyHistogram.from_dict(report.tail_histogram))
        processed_total += report.processed
        final_state.update(report.final_state)

    interval_latency: Dict[int, LatencyHistogram] = {}
    for interval, reports in per_interval.items():
        merged = LatencyHistogram()
        for report in reports:
            if report.histogram:
                merged.merge(LatencyHistogram.from_dict(report.histogram))
        interval_latency[interval] = merged
    # Latency recorded after the last marker (e.g. a final migration's
    # released tuples) is folded into the last interval so the deltas
    # still sum to the lifetime histogram.
    if tail.total and interval_rows:
        last = interval_rows[-1]["interval"]
        interval_latency.setdefault(last, LatencyHistogram()).merge(tail)

    metrics = MetricsCollector(label=label)
    for row in interval_rows:
        interval = row["interval"]
        reports = per_interval.get(interval, [])
        processed = sum(report.processed for report in reports)
        latency_sum_us = sum(report.latency_us_sum for report in reports)
        elapsed = row["elapsed"]
        migration: Optional[LiveMigrationReport] = row["migration"]
        offered_cost: Dict[int, float] = row["offered_cost"]
        histogram = interval_latency.get(interval)
        metrics.record(
            IntervalMetrics(
                interval=interval,
                offered_tuples=row["offered_tuples"],
                processed_tuples=float(processed),
                throughput=float(processed) / elapsed if elapsed > 0 else 0.0,
                latency_ms=(
                    latency_sum_us / processed / 1000.0 if processed else 0.0
                ),
                latency_p50_ms=(
                    histogram.p50_us / 1000.0 if histogram and histogram.total else 0.0
                ),
                latency_p99_ms=(
                    histogram.p99_us / 1000.0 if histogram and histogram.total else 0.0
                ),
                skewness=max_skewness(offered_cost),
                max_theta=max_balance_indicator(offered_cost),
                migrated_state=migration.moved_state if migration else 0.0,
                migration_fraction=(
                    migration.migration_fraction if migration else 0.0
                ),
                migration_seconds=migration.pause_seconds if migration else 0.0,
                generation_time=migration.generation_time if migration else 0.0,
                routing_table_size=row["routing_table_size"],
                rebalanced=migration is not None,
                num_tasks=parallelism,
                per_task_load=offered_cost,
            )
        )

    return RuntimeResult(
        label=label,
        metrics=metrics,
        latency=latency,
        tuples_offered=int(sum(row["offered_tuples"] for row in interval_rows)),
        tuples_processed=processed_total,
        wall_seconds=wall_seconds,
        final_reports=final_reports,
        final_state=final_state,
        interval_latency=interval_latency,
        e2e_latency=e2e,
        messages=dict(messages or {}),
    )
