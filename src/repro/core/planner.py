"""Common planning infrastructure shared by the rebalancing algorithms.

Every algorithm of Section III follows the same three-phase template:

* **Phase I (Cleaning)** — optionally move some routing-table entries back to
  their hash destination (virtually; no state moves yet).
* **Phase II (Preparing)** — from every overloaded task, disassociate keys
  (chosen by the criterion ``ψ``) into the candidate set ``C`` until the task
  fits under the ceiling ``L_max = (1 + θ_max) · L̄``.
* **Phase III (Assigning)** — run LLFD over ``C`` to produce the new routing
  table ``A′`` and assignment function ``F′``.

:class:`RebalanceAlgorithm` implements the template; concrete algorithms
(:class:`~repro.core.mintable.MinTableAlgorithm`,
:class:`~repro.core.minmig.MinMigAlgorithm`,
:class:`~repro.core.mixed.MixedAlgorithm`, …) plug in their cleaning strategy
and selection criteria.  :class:`RebalanceResult` carries everything the
rebalance loop, the simulator and the benchmarks need: the new assignment, the
migration plan and its cost, the resulting loads, and the wall-clock time the
planner itself took (the "average generation time" metric of Figs. 8–12).

:class:`Planner` is the one contract between a planning heuristic and the
loop that runs it (:class:`~repro.baselines.base.RebalancingPartitioner`);
:func:`build_result` is the one place a set of routing entries becomes ``F′``,
its migration plan and a :class:`RebalanceResult`.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Container, Dict, Hashable, Mapping, Optional, Protocol, Set, Type

import numpy as np

from repro.core.assignment import AssignmentFunction
from repro.core.criteria import DEFAULT_BETA, SelectionCriteria
from repro.core.llfd import llfd_columns
from repro.core.load import load_ceiling, load_from_columns
from repro.core.migration import MigrationPlan, build_migration_plan
from repro.core.routing_table import RoutingTable
from repro.core.statistics import StatisticsStore

__all__ = [
    "PlannerConfig",
    "RebalanceResult",
    "Planner",
    "build_result",
    "RebalanceAlgorithm",
    "register_algorithm",
    "get_algorithm",
]

Key = Hashable

_EPS = 1e-9


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs shared by every rebalancing algorithm.

    Attributes
    ----------
    theta_max:
        Imbalance tolerance ``θ_max``.
    max_table_size:
        Routing table cap ``A_max`` (``None`` = unbounded).
    beta:
        Weight scaling factor of the migration priority index γ.
    window:
        State window ``w`` used when costing migrations.  ``None`` uses the
        statistics store's own window.
    """

    theta_max: float = 0.08
    max_table_size: Optional[int] = None
    beta: float = DEFAULT_BETA
    window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.theta_max < 0:
            raise ValueError(f"theta_max must be non-negative, got {self.theta_max}")
        if self.max_table_size is not None and self.max_table_size < 0:
            raise ValueError("max_table_size must be non-negative")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass
class RebalanceResult:
    """Outcome of one planning round."""

    algorithm: str
    assignment: AssignmentFunction
    routing_table: RoutingTable
    migration_plan: MigrationPlan
    loads: Dict[int, float] = field(default_factory=dict)
    generation_time: float = 0.0
    balanced: bool = True
    max_theta: float = 0.0
    migration_fraction: float = 0.0
    cleaning_rounds: int = 0
    moved_back: int = 0
    #: Divergence between the loads the plan was computed from and the real
    #: ones (Fig. 11b); only planners working on approximated statistics set it.
    load_estimation_error: Optional[float] = None

    @property
    def table_size(self) -> int:
        """``N_{A′}`` — number of entries in the new routing table."""
        return self.routing_table.size

    @property
    def migrated_keys(self) -> Set[Key]:
        """``Δ(F, F′)`` realised by the plan."""
        return self.migration_plan.keys

    @property
    def migration_cost(self) -> float:
        """``M_i(w, F, F′)`` — total state volume to transfer."""
        return self.migration_plan.total_state


class Planner(Protocol):
    """What a rebalancing strategy supplies: a name and a planning round.

    ``plan`` reads the assignment ``F`` in force and the statistics window
    and returns ``F′`` with its migration plan; it installs nothing — the
    loop in :class:`~repro.baselines.base.RebalancingPartitioner` does.
    """

    name: str

    def plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        ...


def build_result(
    algorithm: str,
    assignment: AssignmentFunction,
    stats: StatisticsStore,
    config: PlannerConfig,
    entries: Mapping[Key, int],
    observed: Container[Key],
    *,
    loads: Dict[int, float],
    balanced: bool,
    max_theta: float,
    retain_unobserved: bool = True,
    started: Optional[float] = None,
    **diagnostics: object,
) -> RebalanceResult:
    """Turn a planner's routing entries into ``F′``, ``Δ(F, F′)`` and a result.

    ``entries`` are the observed keys placed off their hash destination, in
    placement order; the caller has already dropped the on-hash ones.  With
    ``retain_unobserved`` the old explicit entries of keys outside
    ``observed`` are kept ahead of them — such keys carry no state in the
    window, so leaving them pinned costs nothing, and dropping them would
    silently reroute live keys (MinTable and DKG rebuild the table from
    scratch instead).  ``observed`` is only asked for membership: the moves
    are read off the diff between the old and new tables, in table-diff
    order (:func:`~repro.core.migration.build_migration_plan`), so ``Δ`` and
    its cost fraction ``M_i / Σ_k S_i(k, w)`` cost O(|A| + |A′|) on top of
    the window's total.  ``started`` (a ``perf_counter`` reading) stamps the
    generation time.
    """
    new_table = RoutingTable(max_size=None)
    if retain_unobserved:
        for key, task in assignment.routing_table.items():
            if key not in observed:
                new_table.set(key, task, enforce_limit=False)
    for key, task in entries.items():
        new_table.set(key, task, enforce_limit=False)
    new_assignment = assignment.with_table(new_table)
    plan = build_migration_plan(assignment, new_assignment, observed, stats, config.window)
    total_state = stats.total_windowed_memory(config.window)
    result = RebalanceResult(
        algorithm=algorithm,
        assignment=new_assignment,
        routing_table=new_table,
        migration_plan=plan,
        loads=loads,
        balanced=balanced,
        max_theta=max_theta,
        migration_fraction=plan.total_state / total_state if total_state > 0.0 else 0.0,
        **diagnostics,
    )
    if started is not None:
        result.generation_time = time.perf_counter() - started
    return result


class RebalanceAlgorithm(ABC):
    """Template for the three-phase rebalancing algorithms."""

    #: Registry / display name of the algorithm.
    name: str = "base"

    # -- hooks ----------------------------------------------------------------

    @abstractmethod
    def selection_criteria(self, config: PlannerConfig) -> SelectionCriteria:
        """Return the Phase II / LLFD criterion ``ψ``."""

    @abstractmethod
    def keys_to_clean(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> Set[Key]:
        """Return the routing-table keys to (virtually) move back in Phase I."""

    # -- template -------------------------------------------------------------

    def plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: Optional[PlannerConfig] = None,
    ) -> RebalanceResult:
        """Run the full three-phase planning round and time it."""
        config = config if config is not None else PlannerConfig()
        start = time.perf_counter()
        result = self._plan(assignment, stats, config)
        result.generation_time = time.perf_counter() - start
        return result

    def _plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        cleaned = self.keys_to_clean(assignment, stats, config)
        return self.plan_with_cleaning(assignment, stats, config, cleaned)

    def plan_with_cleaning(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
        cleaned: Set[Key],
    ) -> RebalanceResult:
        """Phases II and III given a fixed cleaning decision.

        Exposed separately so that Mixed (and its brute-force variant) can run
        several cleaning trials without re-entering the public template.
        """
        criteria = self.selection_criteria(config)
        columns = stats.columns(config.window)
        keys, cost, index = columns.keys, columns.cost, columns.index
        num_tasks = assignment.num_tasks

        # Working destination after the (virtual) cleaning of Phase I: F over
        # the observed keys, with the cleaned entries back at their hash.  With
        # no observed key cleaned, the loads are F's, which the imbalance check
        # computed already.
        hashed, working = assignment.route_columns(columns)
        restored = [at for at in map(index.get, cleaned) if at is not None]
        if restored:
            working[restored] = hashed[restored]
            loads = load_from_columns(working, cost, num_tasks)
        else:
            loads = assignment.column_loads(columns)
        ceiling = load_ceiling(loads, config.theta_max)

        # Phase II: disassociate keys from overloaded tasks until they fit.
        candidates: Set[Key] = set()
        for task in range(num_tasks):
            if loads[task] <= ceiling + _EPS:
                continue
            on_task = np.flatnonzero(working == task)
            for at in criteria.ranked(keys, cost, columns.memory, on_task):
                if loads[task] <= ceiling + _EPS:
                    break
                candidates.add(keys[at])
                loads[task] -= cost.item(at)

        # Phase III: LLFD.
        llfd = llfd_columns(
            columns, hashed, working, candidates, num_tasks, config.theta_max, criteria
        )

        return build_result(
            self.name,
            assignment,
            stats,
            config,
            llfd.routing_entries,
            columns.index,
            loads=dict(llfd.loads),
            balanced=llfd.balanced,
            max_theta=llfd.max_theta,
            retain_unobserved=self.retain_unobserved_entries,
            moved_back=len(cleaned),
        )

    #: Whether routing-table entries for keys unseen in the statistics window
    #: survive the planning round (True for MinMig/Mixed, False for MinTable).
    retain_unobserved_entries: bool = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


# -- registry -------------------------------------------------------------------

_REGISTRY: Dict[str, Type[RebalanceAlgorithm]] = {}


def register_algorithm(cls: Type[RebalanceAlgorithm]) -> Type[RebalanceAlgorithm]:
    """Class decorator adding an algorithm to the name registry."""
    if not cls.name or cls.name == "base":
        raise ValueError(f"{cls.__name__} must define a unique non-default name")
    _REGISTRY[cls.name] = cls
    return cls


def get_algorithm(name: str, **kwargs) -> RebalanceAlgorithm:
    """Instantiate a registered algorithm by name (e.g. ``"mixed"``)."""
    # Importing the concrete modules lazily avoids circular imports while
    # still letting `get_algorithm` work without explicit imports by callers.
    from repro.core import minmig, mintable, mixed, simple  # noqa: F401

    try:
        cls = _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown rebalancing algorithm {name!r}; known: {sorted(_REGISTRY)}"
        ) from exc
    return cls(**kwargs)
