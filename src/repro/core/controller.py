"""The rebalance controller (Section IV, Fig. 5 — steps 1, 2 and 3).

At the end of every interval the tasks of the downstream operator report their
per-key measurements; the controller

1. folds them into its :class:`~repro.core.statistics.StatisticsStore`,
2. evaluates the degree of imbalance of the current assignment,
3. when the imbalance exceeds ``θ_max``, runs the configured planning algorithm
   (Mixed by default, optionally over the compact representation) and
4. hands the resulting migration plan to the engine's migration protocol and
   installs the new assignment function.

The controller itself is engine-agnostic: the simulator (or a real DSPE
integration) drives it with interval snapshots and consumes the returned
:class:`~repro.core.planner.RebalanceResult` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.assignment import AssignmentFunction
from repro.core.compact import CompactMixedPlanner
from repro.core.criteria import DEFAULT_BETA
from repro.core.discretization import HLHEDiscretizer
from repro.core.load import load_from_columns, max_balance_indicator, max_skewness
from repro.core.planner import PlannerConfig, RebalanceAlgorithm, RebalanceResult, get_algorithm
from repro.core.statistics import IntervalStats, StatisticsStore

__all__ = ["ControllerConfig", "RebalanceController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Configuration of the rebalance controller.

    Attributes
    ----------
    theta_max:
        Imbalance tolerance ``θ_max``.
    max_table_size:
        Routing-table cap ``A_max`` (``None`` = unbounded).
    beta:
        γ-index weight scaling factor.
    window:
        State window ``w`` in intervals.
    algorithm:
        Registered planning algorithm name (``"mixed"``, ``"mintable"``, …).
        Ignored when ``use_compact`` is set.
    use_compact:
        Plan over the compact 6-dimensional representation instead of raw keys.
    discretization_degree:
        ``R`` used by the compact representation's HLHE discretiser; ``None``
        keeps original values ("Original Key Space").
    cooldown_intervals:
        Minimum number of intervals between two rebalances (0 = none); models
        the paper's practice of not replanning while a migration is in flight.
    """

    theta_max: float = 0.08
    max_table_size: Optional[int] = None
    beta: float = DEFAULT_BETA
    window: int = 1
    algorithm: str = "mixed"
    use_compact: bool = False
    discretization_degree: Optional[int] = 8
    cooldown_intervals: int = 0

    def planner_config(self) -> PlannerConfig:
        """Project the controller configuration onto the planner knobs."""
        return PlannerConfig(
            theta_max=self.theta_max,
            max_table_size=self.max_table_size,
            beta=self.beta,
            window=self.window,
        )


class RebalanceController:
    """Monitors one operator's workload and rebalances it when needed."""

    def __init__(
        self,
        assignment: AssignmentFunction,
        config: Optional[ControllerConfig] = None,
        algorithm: Optional[RebalanceAlgorithm] = None,
    ) -> None:
        self.config = config if config is not None else ControllerConfig()
        self.assignment = assignment
        self.stats = StatisticsStore(window=self.config.window)
        if self.config.use_compact:
            discretizer = (
                HLHEDiscretizer(self.config.discretization_degree)
                if self.config.discretization_degree is not None
                else None
            )
            self._compact_planner: Optional[CompactMixedPlanner] = CompactMixedPlanner(
                discretizer
            )
            self._algorithm: Optional[RebalanceAlgorithm] = None
        else:
            self._compact_planner = None
            self._algorithm = (
                algorithm if algorithm is not None else get_algorithm(self.config.algorithm)
            )
        self.history: List[RebalanceResult] = []
        #: Load-estimation error of the latest compact plan (Fig. 11).
        self.load_estimation_error = 0.0
        self._intervals_since_rebalance = 10 ** 9  # allow an immediate first plan

    # -- observation ---------------------------------------------------------------

    def observe(self, interval_stats: IntervalStats) -> None:
        """Ingest the statistics of a finished interval (step 1 of Fig. 5)."""
        self.stats.push(interval_stats)
        self._intervals_since_rebalance += 1

    # -- state queries ----------------------------------------------------------------

    def current_loads(self) -> Dict[int, float]:
        """Per-task load of the latest interval under the current assignment."""
        if not self.stats:
            return {task: 0.0 for task in self.assignment.tasks}
        columns = self.stats.columns()
        _, routed = self.assignment.route_columns(columns)
        return load_from_columns(routed, columns.cost, self.assignment.num_tasks)

    def current_imbalance(self) -> float:
        """Largest balance indicator ``θ`` over the tasks."""
        return max_balance_indicator(self.current_loads())

    def current_skewness(self) -> float:
        """Workload skewness ``max L(d) / L̄`` (Fig. 7 metric)."""
        return max_skewness(self.current_loads())

    def should_rebalance(self) -> bool:
        """True when the imbalance exceeds ``θ_max`` and the cooldown elapsed."""
        if not self.stats:
            return False
        if self._intervals_since_rebalance <= self.config.cooldown_intervals:
            return False
        return self.current_imbalance() > self.config.theta_max

    # -- planning -----------------------------------------------------------------------

    def rebalance(self) -> RebalanceResult:
        """Unconditionally build and install a new assignment function."""
        if not self.stats:
            raise RuntimeError("cannot rebalance before any interval was observed")
        planner_config = self.config.planner_config()
        if self._compact_planner is not None:
            outcome = self._compact_planner.plan(self.assignment, self.stats, planner_config)
            result = outcome.result
            self.load_estimation_error = outcome.load_estimation_error
        else:
            assert self._algorithm is not None
            result = self._algorithm.plan(self.assignment, self.stats, planner_config)
        self.assignment = result.assignment
        self.history.append(result)
        self._intervals_since_rebalance = 0
        return result

    def maybe_rebalance(self) -> Optional[RebalanceResult]:
        """Rebalance only when :meth:`should_rebalance` says so (step 2 of Fig. 5)."""
        if not self.should_rebalance():
            return None
        return self.rebalance()

    # -- reporting -----------------------------------------------------------------------

    @property
    def total_migrated_state(self) -> float:
        """Cumulative migrated state volume across every planning round."""
        return sum(result.migration_cost for result in self.history)

    @property
    def average_generation_time(self) -> float:
        """Mean plan-generation wall time over the rounds performed so far."""
        if not self.history:
            return 0.0
        return sum(result.generation_time for result in self.history) / len(self.history)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RebalanceController(algorithm={self.config.algorithm!r}, "
            f"theta_max={self.config.theta_max}, rounds={len(self.history)})"
        )
