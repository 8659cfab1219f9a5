"""Shared machinery for the figure drivers.

Two kinds of runs are needed:

* *Planner sweeps* (Figs. 8–12, 17–21): only the rebalancing algorithms are
  exercised — a synthetic workload is streamed through a rebalancing strategy
  and the plan-generation time, migration cost and routing table size are
  measured per adjustment.  No engine simulation is involved, so
  these are fast and scale to large key domains.
* *System simulations* (Figs. 13–16): a topology is run through the fluid
  engine simulator and throughput/latency are measured.

Both build their partitioner through the strategy registry
(``repro.core.strategy.get_strategy(name).build(...)``) and drive it through
the same ``on_interval_end`` hook as the simulator and the process runtime.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional

from repro.core.load import load_from_columns, max_balance_indicator
from repro.core.snapshot import WorkloadSnapshot
from repro.core.statistics import IntervalStats
from repro.core.strategy import get_strategy
from repro.engine.metrics import MetricsCollector
from repro.engine.operator import OperatorLogic
from repro.engine.simulator import OperatorSimulator, SimulationConfig
from repro.experiments.reporting import mean

__all__ = ["PlannerRun", "run_planner_sequence", "run_simulation"]

Key = Hashable


@dataclass
class PlannerRun:
    """Aggregated outcome of streaming a workload through one rebalancer."""

    algorithm: str
    rebalances: int = 0
    generation_times: List[float] = field(default_factory=list)
    migration_fractions: List[float] = field(default_factory=list)
    table_sizes: List[int] = field(default_factory=list)
    max_thetas: List[float] = field(default_factory=list)
    load_estimation_errors: List[float] = field(default_factory=list)
    skewness_before: List[float] = field(default_factory=list)

    @property
    def avg_generation_time(self) -> float:
        """Average plan generation wall time in seconds (NaN when no rebalance ran)."""
        return mean(self.generation_times)

    @property
    def avg_migration_fraction(self) -> float:
        """Average fraction of operator state migrated per adjustment.

        NaN (rendered as ``—`` in reports) when the run never rebalanced, so
        "nothing migrated because nothing happened" is distinguishable from a
        true 0.0 average.
        """
        return mean(self.migration_fractions)

    @property
    def avg_table_size(self) -> float:
        return mean([float(size) for size in self.table_sizes])

    @property
    def final_table_size(self) -> int:
        return self.table_sizes[-1] if self.table_sizes else 0

    @property
    def avg_load_estimation_error(self) -> float:
        return mean(self.load_estimation_errors)

    # -- persistence -----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (used by the ResultsStore)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PlannerRun":
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


def run_planner_sequence(
    algorithm: str,
    workload: Iterable[WorkloadSnapshot],
    *,
    num_tasks: int,
    seed: int = 0,
    force_every_interval: bool = False,
    **tunables: Any,
) -> PlannerRun:
    """Stream interval snapshots through a rebalancer and collect planner metrics.

    ``algorithm`` is any rebalancing strategy in the
    :mod:`repro.core.strategy` registry (``"mixed"``, ``"mintable"``,
    ``"minmig"``, ``"mixedbf"``, ``"simple"``, ``"compact"``, ``"readj"``,
    ``"dkg"``, or a third-party one), built by the registry from ``tunables``
    (any :data:`~repro.core.strategy.STANDARD_TUNABLES`; what is left out
    keeps the strategy's own default) and streamed through
    ``on_interval_end``.  ``force_every_interval`` plans every interval even
    when the operator is already balanced (the routing-table-growth and
    Fig. 11(b) experiments).
    """
    run = PlannerRun(algorithm=algorithm)
    spec = get_strategy(algorithm)
    if not spec.rebalancing:
        raise KeyError(
            f"strategy {algorithm!r} never rebalances; a planner sweep "
            "needs a rebalancing strategy"
        )
    partitioner = spec.build(num_tasks, seed=seed, **tunables)
    for index, snapshot in enumerate(workload):
        stats = IntervalStats.from_frequencies(index, snapshot)
        columns = stats.columns()
        routed = partitioner.assign_batch_array(columns.keys)
        loads = load_from_columns(routed, columns.cost, num_tasks)
        run.skewness_before.append(max_balance_indicator(loads))
        if force_every_interval:
            partitioner.observe(stats)
            result = partitioner.rebalance()
        else:
            result = partitioner.on_interval_end(stats)
        if result is None:
            continue
        run.rebalances += 1
        run.generation_times.append(result.generation_time)
        run.migration_fractions.append(result.migration_fraction)
        run.table_sizes.append(result.table_size)
        run.max_thetas.append(result.max_theta)
        if result.load_estimation_error is not None:
            run.load_estimation_errors.append(result.load_estimation_error)
    return run


def run_simulation(
    strategy: str,
    workload: Iterable[WorkloadSnapshot],
    logic: OperatorLogic,
    *,
    num_tasks: int,
    capacity_factor: float = 1.15,
    seed: int = 0,
    scale_out_at: Optional[Mapping[int, int]] = None,
    **tunables: Any,
) -> MetricsCollector:
    """Run one strategy on one operator over the given workload.

    ``tunables`` reach the strategy's builder exactly as in
    :func:`run_planner_sequence`, so a simulated readj/mixed run can match a
    planner-sweep configuration.
    """
    partitioner = get_strategy(strategy).build(num_tasks, seed=seed, **tunables)
    simulator = OperatorSimulator(
        partitioner,
        logic,
        SimulationConfig(capacity_factor=capacity_factor),
        name=logic.name,
    )
    collector = simulator.run(workload, scale_out_at=scale_out_at)
    collector.label = strategy
    return collector
