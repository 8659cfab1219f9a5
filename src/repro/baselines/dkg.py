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
from typing import Dict, Hashable

import numpy as np

from repro.core.assignment import AssignmentFunction
from repro.core.load import load_from_columns, max_balance_indicator
from repro.core.planner import PlannerConfig, RebalanceResult, build_result
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
        columns = stats.columns(config.window)
        keys, cost = columns.keys, columns.cost
        hashed, _ = assignment.route_columns(columns)
        # Product-form heavy test (cost · K > factor · total): a subnormal
        # total cost would underflow the divided mean and mark every key heavy.
        heavy = cost * len(keys) > self.heavy_factor * stats.latest.total_cost()
        loads = load_from_columns(hashed[~heavy], cost[~heavy], assignment.num_tasks)
        entries: Dict[Key, int] = {}
        for at in sorted(
            np.flatnonzero(heavy).tolist(), key=lambda at: (-cost.item(at), repr(keys[at]))
        ):
            task = min(loads, key=lambda d: (loads[d], d))
            loads[task] += cost.item(at)
            if task != hashed.item(at):
                entries[keys[at]] = task

        max_theta = max_balance_indicator(loads)
        return build_result(
            self.name,
            assignment,
            stats,
            config,
            entries,
            columns.index,
            loads=loads,
            balanced=max_theta <= config.theta_max,
            max_theta=max_theta,
            retain_unobserved=False,
            started=started,
        )
