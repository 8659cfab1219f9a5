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
from typing import Dict, Hashable, List

from repro.core.assignment import AssignmentFunction
from repro.core.load import max_balance_indicator
from repro.core.planner import PlannerConfig, RebalanceResult, build_result, off_hash_entries
from repro.core.statistics import StatisticsStore

__all__ = ["DKGPlanner"]

Key = Hashable


class DKGPlanner:
    """Greedy placement of heavy keys, hashing for the light tail
    (a :class:`~repro.core.planner.Planner`; ``θ_max`` only decides whether a
    replanning round is needed, and the table is rebuilt from scratch).

    Parameters
    ----------
    heavy_factor:
        A key is *heavy* when its cost exceeds ``heavy_factor × L̄ / num_keys``
        — i.e. it is responsible for more than ``heavy_factor`` "fair shares"
        of a single key.  The DEBS'15 paper derives a similar threshold from
        the desired imbalance ε.
    """

    name = "dkg"

    def __init__(self, heavy_factor: float = 5.0) -> None:
        if heavy_factor <= 0:
            raise ValueError("heavy_factor must be positive")
        self.heavy_factor = float(heavy_factor)

    def plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        started = time.perf_counter()
        costs = stats.cost_map()
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

        loads: Dict[int, float] = {task: 0.0 for task in range(assignment.num_tasks)}
        placements: Dict[Key, int] = {}
        for key, task in zip(light, assignment.hash_batch(light)):
            placements[key] = task
            loads[task] += costs[key]
        for key in heavy:
            task = min(loads, key=lambda d: (loads[d], d))
            placements[key] = task
            loads[task] += costs[key]

        max_theta = max_balance_indicator(loads)
        return build_result(
            self.name,
            assignment,
            stats,
            config,
            off_hash_entries(assignment, placements),
            placements.keys(),
            loads=loads,
            balanced=max_theta <= config.theta_max,
            max_theta=max_theta,
            retain_unobserved=False,
            started=started,
        )
