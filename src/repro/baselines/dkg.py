"""DKG — Distribution-aware Key Grouping (Rivetti et al., DEBS 2015).

DKG distinguishes *heavy* keys from *light* ones by their observed frequency:
heavy keys are placed greedily (largest first onto the least-loaded task),
light keys fall back to hashing.  It is a related-work baseline the paper cites
(not part of the headline comparison) and is included here both for
completeness and as a useful sanity check: with static workloads it behaves
like MinTable's Phase II/III without the migration awareness.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Mapping, Optional

from repro.baselines.base import RebalancingPartitioner
from repro.core.assignment import AssignmentFunction
from repro.core.load import load_from_costs, max_balance_indicator
from repro.core.migration import build_migration_plan, migration_cost_fraction
from repro.core.planner import RebalanceResult
from repro.core.routing_table import RoutingTable
from repro.core.statistics import IntervalStats, StatisticsStore

__all__ = ["DKGPartitioner"]

Key = Hashable


class DKGPartitioner(RebalancingPartitioner):
    """Greedy placement of heavy keys, hashing for the light tail.

    Parameters
    ----------
    num_tasks:
        Number of downstream tasks.
    heavy_factor:
        A key is *heavy* when its cost exceeds ``heavy_factor × L̄ / num_keys``
        — i.e. it is responsible for more than ``heavy_factor`` "fair shares"
        of a single key.  The DEBS'15 paper derives a similar threshold from
        the desired imbalance ε.
    theta_max:
        Tolerance used only to decide whether a replanning round is needed.
    window:
        State window used for migration costing.
    seed:
        Hash seed.
    """

    name = "dkg"
    cache_routes = True

    def __init__(
        self,
        num_tasks: int,
        heavy_factor: float = 5.0,
        theta_max: float = 0.08,
        window: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__(num_tasks)
        if heavy_factor <= 0:
            raise ValueError("heavy_factor must be positive")
        self.heavy_factor = float(heavy_factor)
        self.theta_max = float(theta_max)
        self.window = int(window)
        self.assignment = AssignmentFunction.hashed(num_tasks, seed=seed)
        self.stats = StatisticsStore(window=window)
        self.history: List[RebalanceResult] = []

    def route(self, key: Key) -> int:
        return self.assignment(key)

    def _route_epoch(self) -> object:
        return (len(self.history), self.assignment.routing_table.version)

    def plan_rebalance(self, stats: IntervalStats) -> Optional[RebalanceResult]:
        self.stats.push(stats)
        costs = self.stats.cost_map()
        if not costs:
            return None
        loads = load_from_costs(costs, self.assignment, self.num_tasks)
        if max_balance_indicator(loads) <= self.theta_max:
            return None
        result = self._rebuild(costs)
        self.history.append(result)
        self.assignment = result.assignment
        return result

    def _rebuild(self, costs: Mapping[Key, float]) -> RebalanceResult:
        start = time.perf_counter()
        # Product-form heavy test (cost · K > factor · total): a subnormal
        # total cost would underflow the divided mean and mark every key heavy.
        total_cost = sum(costs.values())
        count = len(costs)
        threshold = self.heavy_factor * total_cost
        heavy_keys: List[Key] = []
        light: List[Key] = []
        for key, cost in costs.items():
            (heavy_keys if cost * count > threshold else light).append(key)
        heavy = sorted(heavy_keys, key=lambda k: (-costs[k], repr(k)))

        loads: Dict[int, float] = {task: 0.0 for task in range(self.num_tasks)}
        placements: Dict[Key, int] = {}
        for key, task in zip(light, self.assignment.hash_batch(light)):
            placements[key] = task
            loads[task] += costs[key]
        for key in heavy:
            task = min(loads, key=lambda d: (loads[d], d))
            placements[key] = task
            loads[task] += costs[key]

        table = RoutingTable()
        for key, task in placements.items():
            if task != self.assignment.hash_destination(key):
                table.set(key, task, enforce_limit=False)
        new_assignment = self.assignment.with_table(table)
        plan = build_migration_plan(
            self.assignment, new_assignment, placements.keys(), self.stats, self.window
        )
        result = RebalanceResult(
            algorithm=self.name,
            assignment=new_assignment,
            routing_table=table,
            migration_plan=plan,
            loads=loads,
            balanced=max_balance_indicator(loads) <= self.theta_max,
            max_theta=max_balance_indicator(loads),
            migration_fraction=migration_cost_fraction(plan.keys, self.stats, self.window),
        )
        result.generation_time = time.perf_counter() - start
        return result

    def scale_out(self, new_num_tasks: int) -> None:
        super().scale_out(new_num_tasks)
        table = self.assignment.routing_table.copy()
        self.assignment = AssignmentFunction.hashed(
            new_num_tasks, seed=self.assignment.hash_function.seed
        ).with_table(table)

    def scale_in(self, new_num_tasks: int) -> None:
        super().scale_in(new_num_tasks)
        # Entries pointing at removed tasks fall back to the (resized) hash.
        table = self.assignment.routing_table.copy()
        for key, task in list(table.items()):
            if task >= new_num_tasks:
                table.discard(key)
        self.assignment = AssignmentFunction.hashed(
            new_num_tasks, seed=self.assignment.hash_function.seed
        ).with_table(table)
