"""Interval-driven simulators.

The evaluation's system-level metrics (throughput, latency, recovery time after
scale-out, behaviour under distribution change) are produced by running a
topology against a workload source with a *fluid* per-interval model:

* the workload source yields, for every interval, a ``{key: tuple count}``
  snapshot for the spout (a :class:`~repro.core.snapshot.Snapshot`, or a
  mapping each stage converts once);
* each stage routes the snapshot through its partitioner in a single
  :meth:`~repro.baselines.base.Partitioner.route_snapshot` call (the batch
  fast path: key→task results are memoised across intervals until the
  partitioner rebalances), offers the resulting per-task load to the task
  executors (single-server fluid queues), and feeds the processed share,
  re-keyed, to the next stage;
* at the end of the interval the stage's partitioner sees the operator-level
  statistics and may rebalance; the migration protocol costs the plan's
  moves and its pause is charged to the next interval;
* a stage keeps no per-key state: the statistics window it pushes every
  interval holds each key's ``S(k, w)``, which is what a move ships.  A
  resize migrates its placement diff
  (:meth:`~repro.baselines.base.Partitioner.resize`, as the process runtime
  does) at ``S(k, w)`` per key and charges it like a rebalance;
* per-interval metrics are collected for every stage and for the pipeline as a
  whole.

:class:`OperatorSimulator` is the single-stage convenience wrapper used by most
figure drivers; :class:`PipelineSimulator` handles multi-operator chains such
as the TPC-H Q5 topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import mul
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.base import Partitioner
from repro.core.load import max_balance_indicator, max_skewness
from repro.core.migration import KeyMove, MigrationPlan
from repro.core.snapshot import Snapshot, WorkloadSnapshot
from repro.core.statistics import IntervalStats, StatisticsStore
from repro.engine.backpressure import ShedLedger
from repro.engine.executor import ExecutorConfig, TaskExecutor
from repro.engine.metrics import IntervalMetrics, MetricsCollector
from repro.engine.migration_protocol import MigrationProtocol, MigrationReport
from repro.engine.operator import BatchCost, OperatorLogic
from repro.engine.topology import StageSpec, TopologySpec

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "OperatorSimulator",
    "PipelineSimulator",
]

Key = Hashable

#: A batch model's answer as every per-task sub-snapshot reads it: the scalar,
#: or ``{key: unit value}`` over the interval's snapshot.
UnitModel = Union[float, Mapping[Key, float]]


def _unit_model(model: BatchCost, keys: Sequence[Key]) -> UnitModel:
    """A batch model's answer over a snapshot's ``keys`` in the shape every
    per-task sub-snapshot can read: the scalar, or ``{key: unit value}``."""
    return dict(zip(keys, model.tolist())) if np.ndim(model) else float(model)


def _weighted_sum(freqs: WorkloadSnapshot, unit: UnitModel) -> float:
    """``Σ count × unit value`` over ``freqs``, added in its order."""
    values = map(unit.__getitem__, freqs) if isinstance(unit, Mapping) else repeat(unit)
    return sum(map(mul, freqs.values(), values))


@dataclass(frozen=True)
class SimulationConfig:
    """Global knobs of the fluid simulation.

    Attributes
    ----------
    interval_seconds:
        Wall-clock length of one interval (the paper uses 10 s).
    capacity_factor:
        Per-task capacity expressed as a multiple of the fair-share load
        observed during calibration.  Values slightly above 1 put the operator
        at the CPU saturation point, as in the paper's setup.
    fixed_capacity:
        Absolute per-task capacity in cost units per interval; overrides the
        calibration when set.
    service_time_ms:
        Base per-tuple service time.
    max_backlog_intervals:
        Queue bound per task, in multiples of its per-interval capacity
        (Storm's max-pending behaviour); work beyond it is shed.
    """

    interval_seconds: float = 10.0
    capacity_factor: float = 1.15
    fixed_capacity: Optional[float] = None
    service_time_ms: float = 1.0
    max_backlog_intervals: float = 2.0

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.capacity_factor <= 0:
            raise ValueError("capacity_factor must be positive")
        if self.fixed_capacity is not None and self.fixed_capacity <= 0:
            raise ValueError("fixed_capacity must be positive")
        if self.max_backlog_intervals < 0:
            raise ValueError("max_backlog_intervals must be non-negative")


@dataclass
class SimulationResult:
    """Output of one simulated run."""

    pipeline: MetricsCollector
    stages: Dict[str, MetricsCollector] = field(default_factory=dict)

    @property
    def primary_stage(self) -> MetricsCollector:
        """Metrics of the first stage (the operator under study in most runs)."""
        return next(iter(self.stages.values()))


class _StageRuntime:
    """Mutable runtime state of one pipeline stage."""

    def __init__(self, stage: StageSpec, config: SimulationConfig) -> None:
        self.stage = stage
        self.config = config
        self.capacity: Optional[float] = config.fixed_capacity
        #: The stage's only record of state: the last ``w`` intervals'
        #: statistics, whose ``S(k, w)`` is what a moved key ships.
        self.window = StatisticsStore(window=max(1, stage.logic.window))
        self.executors: Dict[int, TaskExecutor] = {}
        self.protocol = MigrationProtocol()
        self.pending_pause: Dict[int, float] = {}
        #: The resize migration charged to the interval about to run.
        self.resize_report = MigrationReport()
        #: Tuples admitted but not yet processed, per task and key (the tuple-
        #: level view of the executor's cost backlog) — they are forwarded
        #: downstream in the interval they are eventually served.
        self.pending_freqs: Dict[int, Dict[Key, float]] = {}
        #: Cumulative shed tuples per task (observable backpressure drops).
        self.shed_ledger = ShedLedger()
        self.metrics = MetricsCollector(label=stage.name)
        if self.capacity is not None:
            self._build_executors()

    # -- capacity management ------------------------------------------------------

    def _build_executors(self) -> None:
        assert self.capacity is not None
        executor_config = ExecutorConfig(
            capacity=self.capacity,
            interval_seconds=self.config.interval_seconds,
            service_time_ms=self.config.service_time_ms,
            max_backlog=self.capacity * self.config.max_backlog_intervals,
        )
        for task_id in range(self.stage.partitioner.num_tasks):
            if task_id not in self.executors:
                self.executors[task_id] = TaskExecutor(executor_config)

    def _calibrate(self, total_cost: float) -> None:
        """Fix the per-task capacity from the first interval's offered load."""
        fair_share = total_cost / max(1, self.stage.parallelism)
        self.capacity = max(fair_share * self.config.capacity_factor, 1e-9)
        self._build_executors()

    def calibrate_from(self, in_freqs: WorkloadSnapshot) -> Dict[Key, float]:
        """Fix the stage capacity from an *unthrottled* input estimate.

        Used by the pipeline simulator before the first interval so that a
        downstream stage is not permanently under-provisioned just because its
        upstream happened to be throttled during the very first interval.
        Returns the stage's full (no capacity limit) output snapshot so the
        next stage can calibrate in turn.
        """
        if self.capacity is None:
            keys = list(in_freqs)
            unit_cost = _unit_model(self.stage.logic.batch_cost(keys), keys)
            self._calibrate(_weighted_sum(in_freqs, unit_cost))
        return self._rekeyed([in_freqs])

    def scale_out(self, new_parallelism: int) -> None:
        """Grow the stage; new tasks reuse the calibrated per-task capacity.

        The keys the resize re-homes ship their ``S(k, w)`` as a rebalance's
        do: the pause is added to the next interval's, and the moved state
        and seconds to that interval's record.
        """
        partitioner = self.stage.partitioner
        if new_parallelism < partitioner.num_tasks:
            raise ValueError("the fluid simulator only scales out")
        window = self.window
        plan = MigrationPlan([
            KeyMove(key, source, target, window.windowed_memory(key))
            for key, source, target in partitioner.resize(new_parallelism, window.observed_keys())
        ])
        self.resize_report = report = self.protocol.execute(
            plan, new_parallelism, interval_seconds=self.config.interval_seconds
        )
        for task_id, fraction in report.pause_fraction_by_task.items():
            self.pending_pause[task_id] = min(
                1.0, self.pending_pause.get(task_id, 0.0) + fraction
            )
        if self.capacity is not None:
            self._build_executors()

    # -- one interval ---------------------------------------------------------------

    def run_interval(
        self, interval: int, in_freqs: WorkloadSnapshot
    ) -> Tuple[IntervalMetrics, Dict[Key, float]]:
        logic = self.stage.logic
        partitioner = self.stage.partitioner
        num_tasks = partitioner.num_tasks

        # One set of columns for the interval, read by the router and the
        # statistics alike.
        in_freqs = Snapshot.of(in_freqs)
        # The operator's cost / state models, asked once per snapshot and
        # shared by every consumer below (routing, executors, statistics).
        keys = in_freqs.key_tuple
        batch_cost = logic.batch_cost(keys)
        batch_delta = logic.batch_state_delta(keys)
        unit_cost = _unit_model(batch_cost, keys)

        if self.capacity is None:
            self._calibrate(_weighted_sum(in_freqs, unit_cost))
        assert self.capacity is not None

        # Route the whole snapshot through the partitioner's batch fast path.
        per_task_freqs = partitioner.route_snapshot(in_freqs)

        offered_cost: Dict[int, float] = {}
        offered_tuples: Dict[int, float] = {}
        for task_id in range(num_tasks):
            freqs = per_task_freqs.get(task_id, {})
            offered_cost[task_id] = _weighted_sum(freqs, unit_cost)
            offered_tuples[task_id] = sum(freqs.values())

        # Execute the interval on every task.
        processed_tuples = 0.0
        processed_cost = 0.0
        shed_tuples = 0.0
        shed_by_task: Dict[int, float] = {}
        backlog_total = 0.0
        latency_weighted = 0.0
        #: Per-task tuples served this interval, by key (drives the output stream).
        served_freqs: Dict[int, Dict[Key, float]] = {}
        for task_id in range(num_tasks):
            executor = self.executors[task_id]
            start_backlog = executor.backlog
            freqs = per_task_freqs.get(task_id, {})

            # Merge the new arrivals into the task's pending tuple mix.
            pending = self.pending_freqs.setdefault(task_id, {})
            for key, count in freqs.items():
                pending[key] = pending.get(key, 0.0) + count

            outcome = executor.run_interval(
                offered_cost[task_id],
                paused_fraction=self.pending_pause.get(task_id, 0.0),
            )
            queue_cost = start_backlog + offered_cost[task_id]
            served_fraction = (
                1.0 if queue_cost <= 0 else min(1.0, outcome.processed / queue_cost)
            )
            shed_fraction = (
                0.0 if queue_cost <= 0 else min(1.0 - served_fraction, outcome.shed / queue_cost)
            )

            task_served: Dict[Key, float] = {}
            task_processed_tuples = 0.0
            task_shed_tuples = 0.0
            for key in list(pending.keys()):
                waiting = pending[key]
                served = waiting * served_fraction
                shed = waiting * shed_fraction
                if served > 0:
                    task_served[key] = served
                    task_processed_tuples += served
                task_shed_tuples += shed
                remaining = waiting - served - shed
                if remaining > 1e-9:
                    pending[key] = remaining
                else:
                    del pending[key]
            served_freqs[task_id] = task_served

            processed_tuples += task_processed_tuples
            processed_cost += outcome.processed
            shed_tuples += task_shed_tuples
            if task_shed_tuples > 0:
                shed_by_task[task_id] = task_shed_tuples
                self.shed_ledger.record(task_id, task_shed_tuples)
            backlog_total += outcome.backlog
            latency_weighted += outcome.latency_ms * max(task_processed_tuples, 0.0)
        self.pending_pause = {}

        mean_latency = (
            latency_weighted / processed_tuples if processed_tuples > 0 else 0.0
        )

        # Split-key strategies pay the partial-result merge overhead.
        if not partitioner.supports_stateful() and logic.stateful:
            partials = getattr(partitioner, "total_partials", lambda: 0)()
            merge_cost = logic.merge_overhead(int(partials))
            merge_period = getattr(partitioner, "merge_period_ms", 0.0)
            if processed_tuples > 0:
                mean_latency += merge_period / 2.0
                mean_latency += merge_cost / processed_tuples * self.config.service_time_ms
            # Merging consumes downstream capacity: account for it as a small
            # throughput tax proportional to the number of partials.
            if self.capacity and merge_cost > 0:
                tax = min(0.5, merge_cost / (self.capacity * num_tasks))
                processed_tuples *= 1.0 - tax

        # Operator-level statistics for the rebalancing strategies.
        op_stats = IntervalStats.from_frequencies(
            interval,
            in_freqs,
            cost_per_tuple=batch_cost,
            memory_per_tuple=batch_delta,
        )
        self.window.push(op_stats)

        rebalance = partitioner.on_interval_end(op_stats)
        migration_seconds = self.resize_report.duration_seconds
        migrated_state = self.resize_report.moved_state
        self.resize_report = MigrationReport()
        migration_fraction = 0.0
        generation_time = 0.0
        if rebalance is not None:
            report = self.protocol.execute(
                rebalance.migration_plan,
                num_tasks,
                interval_seconds=self.config.interval_seconds,
            )
            self.pending_pause = dict(report.pause_fraction_by_task)
            migration_seconds += report.duration_seconds
            migrated_state += report.moved_state
            migration_fraction = rebalance.migration_fraction
            generation_time = rebalance.generation_time

        record = IntervalMetrics(
            interval=interval,
            offered_tuples=sum(offered_tuples.values()),
            processed_tuples=processed_tuples,
            shed_tuples=shed_tuples,
            throughput=processed_tuples / self.config.interval_seconds,
            latency_ms=mean_latency,
            skewness=max_skewness(offered_cost),
            max_theta=max_balance_indicator(offered_cost),
            backlog=backlog_total,
            migrated_state=migrated_state,
            migration_fraction=migration_fraction,
            migration_seconds=migration_seconds,
            generation_time=generation_time,
            routing_table_size=partitioner.routing_table_size,
            rebalanced=rebalance is not None,
            num_tasks=num_tasks,
            per_task_load=dict(offered_cost),
            per_task_shed=shed_by_task,
        )
        self.metrics.record(record)

        # The stream handed to the next stage: the tuples actually served
        # this interval (including drained backlog), re-keyed.
        return record, self._rekeyed(served_freqs.values())

    def _rekeyed(self, snapshots: Iterable[WorkloadSnapshot]) -> Dict[Key, float]:
        """Sum ``snapshots`` under the stage's output key (identity if unmapped)."""
        key_mapper = self.stage.key_mapper
        out: Dict[Key, float] = {}
        for freqs in snapshots:
            for key, count in freqs.items():
                out_key = key if key_mapper is None else key_mapper(key)
                out[out_key] = out.get(out_key, 0.0) + count
        return out


class PipelineSimulator:
    """Runs a chain topology over an interval workload."""

    def __init__(
        self, topology: TopologySpec, config: Optional[SimulationConfig] = None
    ) -> None:
        if not topology.is_chain:
            raise ValueError(
                f"topology {topology.name!r} is not a chain: the fluid model "
                f"feeds each stage's output to the next stage only"
            )
        self.topology = topology
        self.config = config if config is not None else SimulationConfig()
        self.runtimes: List[_StageRuntime] = [
            _StageRuntime(stage, self.config) for stage in topology.stages
        ]

    def run(
        self,
        workload: Iterable[WorkloadSnapshot],
        *,
        scale_out_schedule: Optional[Mapping[int, Mapping[str, int]]] = None,
    ) -> SimulationResult:
        """Simulate the topology over every snapshot produced by ``workload``.

        ``scale_out_schedule`` maps an interval index to ``{stage_name: new
        parallelism}``; the change takes effect at the *start* of that interval
        (the moment the paper adds a worker thread in Fig. 15).
        """
        pipeline_metrics = MetricsCollector(label=self.topology.name)
        calibrated = False
        for interval, snapshot in enumerate(workload):
            if not calibrated:
                estimate: Dict[Key, float] = dict(snapshot)
                for runtime in self.runtimes:
                    estimate = runtime.calibrate_from(estimate)
                calibrated = True
            if scale_out_schedule and interval in scale_out_schedule:
                for stage_name, parallelism in scale_out_schedule[interval].items():
                    self._runtime(stage_name).scale_out(parallelism)

            stage_records: List[IntervalMetrics] = []
            current = snapshot
            for runtime in self.runtimes:
                record, current = runtime.run_interval(interval, current)
                stage_records.append(record)

            pipeline_metrics.record(self._pipeline_record(interval, stage_records))

        stages = {runtime.stage.name: runtime.metrics for runtime in self.runtimes}
        return SimulationResult(pipeline=pipeline_metrics, stages=stages)

    def _runtime(self, stage_name: str) -> _StageRuntime:
        for runtime in self.runtimes:
            if runtime.stage.name == stage_name:
                return runtime
        raise KeyError(f"no stage named {stage_name!r}")

    def _pipeline_record(
        self, interval: int, stage_records: List[IntervalMetrics]
    ) -> IntervalMetrics:
        last = stage_records[-1]
        first = stage_records[0]
        return IntervalMetrics(
            interval=interval,
            offered_tuples=first.offered_tuples,
            processed_tuples=last.processed_tuples,
            shed_tuples=sum(record.shed_tuples for record in stage_records),
            throughput=last.throughput,
            latency_ms=sum(record.latency_ms for record in stage_records),
            skewness=max(record.skewness for record in stage_records),
            max_theta=max(record.max_theta for record in stage_records),
            backlog=sum(record.backlog for record in stage_records),
            migrated_state=sum(record.migrated_state for record in stage_records),
            migration_fraction=max(
                record.migration_fraction for record in stage_records
            ),
            migration_seconds=sum(record.migration_seconds for record in stage_records),
            generation_time=sum(record.generation_time for record in stage_records),
            routing_table_size=sum(
                record.routing_table_size for record in stage_records
            ),
            rebalanced=any(record.rebalanced for record in stage_records),
            num_tasks=sum(record.num_tasks for record in stage_records),
        )


class OperatorSimulator:
    """Single-operator convenience wrapper (spout → one downstream operator)."""

    def __init__(
        self,
        partitioner: Partitioner,
        logic: OperatorLogic,
        config: Optional[SimulationConfig] = None,
        *,
        name: str = "operator",
    ) -> None:
        stage = StageSpec(name=name, logic=logic, partitioner=partitioner)
        self.topology = TopologySpec(name, [stage])
        self.simulator = PipelineSimulator(self.topology, config)

    def run(
        self,
        workload: Iterable[WorkloadSnapshot],
        *,
        scale_out_at: Optional[Mapping[int, int]] = None,
    ) -> MetricsCollector:
        """Run and return the operator's metrics collector.

        ``scale_out_at`` maps interval → new parallelism for the operator.
        """
        schedule = None
        if scale_out_at:
            stage_name = self.topology.stages[0].name
            schedule = {
                interval: {stage_name: parallelism}
                for interval, parallelism in scale_out_at.items()
            }
        result = self.simulator.run(workload, scale_out_schedule=schedule)
        return result.primary_stage
