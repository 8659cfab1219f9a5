"""Fluid (per-interval) execution model of one task.

The evaluation of the paper runs the cluster at the saturation point of the CPU
resource, so the interesting quantities — throughput loss and latency growth —
are entirely determined by how close each task's offered load is to its service
capacity.  :class:`TaskExecutor` models a task as a fluid single-server queue:

* every interval the task is offered ``offered`` cost units of work on top of
  its queued backlog;
* it can serve at most ``capacity`` cost units per interval (reduced by any
  time spent paused for state migration);
* unserved work stays in the backlog (bounded by ``max_backlog``, beyond which
  tuples are shed — modelling Storm's max-pending backpressure);
* the per-tuple latency is the service time plus the expected queueing delay
  ``(backlog + offered/2) / service_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["ExecutorConfig", "ExecutionOutcome", "TaskExecutor"]


@dataclass(frozen=True)
class ExecutorConfig:
    """Capacity and latency parameters of a task executor.

    Attributes
    ----------
    capacity:
        Cost units the task can serve per interval.
    interval_seconds:
        Wall-clock length of one interval (10 s in the paper's setup).
    service_time_ms:
        Time to process a single cost unit when the queue is empty.
    max_backlog:
        Maximum queued cost units before new work is shed (backpressure limit).
    """

    capacity: float
    interval_seconds: float = 10.0
    service_time_ms: float = 1.0
    max_backlog: Optional[float] = None

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.service_time_ms < 0:
            raise ValueError("service_time_ms must be non-negative")
        if self.max_backlog is not None and self.max_backlog < 0:
            raise ValueError("max_backlog must be non-negative")


@dataclass
class ExecutionOutcome:
    """What happened on one task during one interval."""

    offered: float
    processed: float
    backlog: float
    shed: float
    utilization: float
    latency_ms: float
    paused_fraction: float = 0.0


class TaskExecutor:
    """Fluid queueing model for one task instance."""

    def __init__(self, config: ExecutorConfig) -> None:
        self.config = config
        self.backlog = 0.0

    def run_interval(
        self,
        offered: float,
        *,
        paused_fraction: float = 0.0,
    ) -> ExecutionOutcome:
        """Serve one interval's offered load.

        ``paused_fraction`` is the fraction of the interval during which the
        task could not process tuples (e.g. while its keys were paused and its
        thread was busy sending/receiving migrated state).
        """
        if offered < 0:
            raise ValueError("offered load must be non-negative")
        paused_fraction = min(max(paused_fraction, 0.0), 1.0)
        effective_capacity = self.config.capacity * (1.0 - paused_fraction)

        start_backlog = self.backlog
        total = start_backlog + offered
        processed = min(total, effective_capacity)
        remaining = total - processed
        shed = 0.0
        if self.config.max_backlog is not None and remaining > self.config.max_backlog:
            shed = remaining - self.config.max_backlog
            remaining = self.config.max_backlog
        self.backlog = remaining

        utilization = total / self.config.capacity if self.config.capacity else 0.0
        latency = self._latency(start_backlog, offered, effective_capacity, paused_fraction)
        return ExecutionOutcome(
            offered=offered,
            processed=processed,
            backlog=self.backlog,
            shed=shed,
            utilization=utilization,
            latency_ms=latency,
            paused_fraction=paused_fraction,
        )

    def _latency(
        self,
        start_backlog: float,
        offered: float,
        effective_capacity: float,
        paused_fraction: float,
    ) -> float:
        """Average per-tuple latency for the interval, in milliseconds."""
        service = self.config.service_time_ms
        interval_ms = self.config.interval_seconds * 1000.0
        if effective_capacity <= 0:
            # The task never ran this interval: tuples wait out the pause.
            return service + interval_ms * paused_fraction
        service_rate = effective_capacity / interval_ms  # cost units per ms
        total = start_backlog + offered
        rho = total / effective_capacity
        if rho < 1.0:
            # Steady-state single-server approximation: the queue drains within
            # the interval, so the wait is governed by the utilisation, plus the
            # time needed to work off any backlog inherited from the previous
            # interval.
            queueing = service * rho / max(1.0 - rho, 1e-3) + start_backlog / service_rate
            queueing = min(queueing, interval_ms)
        else:
            # Overloaded: the queue never drains.  An average arrival waits for
            # the inherited backlog plus half of this interval's excess work.
            excess = total - effective_capacity
            queueing = (start_backlog + excess / 2.0) / service_rate
        pause_penalty = paused_fraction * interval_ms / 2.0
        return service + queueing + pause_penalty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TaskExecutor(capacity={self.config.capacity}, backlog={self.backlog:.1f})"
