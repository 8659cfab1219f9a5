"""Metric collection for simulated runs.

The evaluation reports, per strategy and per experiment: throughput (tuples per
second), average processing latency (ms), workload skewness, migration cost
(fraction of operator state moved) and plan generation time.
:class:`MetricsCollector` stores one :class:`IntervalMetrics` record per
simulated interval and offers the aggregates (mean / min / max, time series)
that the figure drivers print.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = ["IntervalMetrics", "MetricsCollector"]


@dataclass
class IntervalMetrics:
    """Everything measured during one simulated interval."""

    interval: int
    offered_tuples: float = 0.0
    processed_tuples: float = 0.0
    shed_tuples: float = 0.0
    throughput: float = 0.0  # tuples per second
    latency_ms: float = 0.0  # processed-weighted average
    #: Measured latency percentiles of the interval, from the per-interval
    #: histogram deltas the process runtime's workers ship (0.0 in fluid
    #: simulations, which model the mean only).
    latency_p50_ms: float = 0.0
    latency_p99_ms: float = 0.0
    skewness: float = 0.0  # max task load / average task load
    max_theta: float = 0.0  # max |L(d) - L̄| / L̄
    backlog: float = 0.0
    migrated_state: float = 0.0
    migration_fraction: float = 0.0
    migration_seconds: float = 0.0
    generation_time: float = 0.0
    routing_table_size: int = 0
    rebalanced: bool = False
    num_tasks: int = 0
    per_task_load: Dict[int, float] = field(default_factory=dict)
    #: Shed (dropped) tuples per task this interval — kept per task so the
    #: overloaded task is identifiable, not just the aggregate volume.
    per_task_shed: Dict[int, float] = field(default_factory=dict)


class MetricsCollector:
    """Accumulates per-interval metrics and exposes summary statistics."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.intervals: List[IntervalMetrics] = []

    # -- ingestion --------------------------------------------------------------------

    def record(self, metrics: IntervalMetrics) -> None:
        self.intervals.append(metrics)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    # -- time series --------------------------------------------------------------------

    def series(self, attribute: str) -> List[float]:
        """Time series of one attribute (e.g. ``"throughput"``)."""
        return [getattr(record, attribute) for record in self.intervals]

    # -- aggregates ----------------------------------------------------------------------

    @staticmethod
    def _mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def mean(self, attribute: str, *, skip_warmup: int = 0) -> float:
        """Mean of an attribute, optionally dropping the first intervals."""
        return self._mean(self.series(attribute)[skip_warmup:])

    def minimum(self, attribute: str) -> float:
        values = self.series(attribute)
        return min(values) if values else 0.0

    def maximum(self, attribute: str) -> float:
        values = self.series(attribute)
        return max(values) if values else 0.0

    @property
    def mean_throughput(self) -> float:
        return self.mean("throughput")

    @property
    def mean_latency_ms(self) -> float:
        weights = self.series("processed_tuples")
        latencies = self.series("latency_ms")
        total = sum(weights)
        if total <= 0:
            return self._mean(latencies)
        return sum(w * l for w, l in zip(weights, latencies)) / total

    @property
    def mean_skewness(self) -> float:
        return self.mean("skewness")

    @property
    def mean_migration_fraction(self) -> float:
        """Average migration fraction over the intervals that rebalanced."""
        fractions = [
            record.migration_fraction for record in self.intervals if record.rebalanced
        ]
        return self._mean(fractions)

    @property
    def mean_generation_time(self) -> float:
        """Average plan-generation time over the intervals that rebalanced."""
        times = [
            record.generation_time for record in self.intervals if record.rebalanced
        ]
        return self._mean(times)

    @property
    def rebalance_count(self) -> int:
        return sum(1 for record in self.intervals if record.rebalanced)

    def shed_by_task(self) -> Dict[int, float]:
        """Cumulative shed-tuple totals per task across the whole run."""
        totals: Dict[int, float] = {}
        for record in self.intervals:
            for task, shed in record.per_task_shed.items():
                totals[task] = totals.get(task, 0.0) + shed
        return totals

    def summary(self) -> Dict[str, float]:
        """A compact dictionary of headline numbers for reports."""
        return {
            "intervals": float(len(self.intervals)),
            "throughput_mean": self.mean_throughput,
            "throughput_min": self.minimum("throughput"),
            "throughput_max": self.maximum("throughput"),
            "latency_ms_mean": self.mean_latency_ms,
            "skewness_mean": self.mean_skewness,
            "skewness_max": self.maximum("skewness"),
            "migration_fraction_mean": self.mean_migration_fraction,
            "generation_time_mean": self.mean_generation_time,
            "rebalances": float(self.rebalance_count),
        }

    # -- persistence ----------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation: label plus one record per interval."""
        records = []
        for record in self.intervals:
            row = asdict(record)
            # JSON object keys are strings; keep task ids recoverable.
            row["per_task_load"] = {
                str(task): load for task, load in record.per_task_load.items()
            }
            row["per_task_shed"] = {
                str(task): shed for task, shed in record.per_task_shed.items()
            }
            records.append(row)
        return {"label": self.label, "intervals": records}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsCollector":
        """Inverse of :meth:`to_dict`."""
        collector = cls(label=payload.get("label", ""))
        known = {f.name for f in fields(IntervalMetrics)}
        for row in payload.get("intervals", []):
            values = {key: value for key, value in row.items() if key in known}
            values["per_task_load"] = {
                int(task): load
                for task, load in (row.get("per_task_load") or {}).items()
            }
            values["per_task_shed"] = {
                int(task): shed
                for task, shed in (row.get("per_task_shed") or {}).items()
            }
            collector.record(IntervalMetrics(**values))
        return collector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsCollector(label={self.label!r}, intervals={len(self.intervals)})"
