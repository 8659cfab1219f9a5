"""Readj — re-implementation of Gedik's partitioning functions (VLDBJ 2014).

Readj uses the same mixed hash + explicit-table routing model as the paper —
so it runs in the same loop, :class:`~repro.baselines.base.RebalancingPartitioner`
— but a very different planning procedure:

1. it first tries to *move back* explicitly routed keys to their hash
   destination whenever that does not overload the receiving task (restoring
   the "ideal" compact table);
2. it then repeatedly searches over all pairs of (task, candidate key) — and
   pairs of candidate keys for swaps — applying the single move or swap that
   best reduces the load spread, until the operator is balanced or no operation
   improves it.

Only *hot* keys participate: a key is a candidate when its computation cost is
at least ``sigma`` times the average key cost.  A smaller ``sigma`` tracks more
keys and finds better plans at a steep planning-time cost — exactly the
behaviour the paper reports in Fig. 12 (Readj's generation time explodes under
frequent distribution change) and Fig. 14 (it only matches Mixed under loose
``θ_max``).
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.core.assignment import AssignmentFunction
from repro.core.load import load_ceiling, load_from_costs, max_balance_indicator
from repro.core.planner import PlannerConfig, RebalanceResult, build_result, off_hash_entries
from repro.core.statistics import StatisticsStore

__all__ = ["DEFAULT_SIGMA", "ReadjPlanner"]

Key = Hashable

_EPS = 1e-9

#: Default hot-key threshold σ (the ``readj_sigma`` tunable of the registry).
DEFAULT_SIGMA = 2.0


class ReadjPlanner:
    """Pairwise swap/move search over hot keys (a :class:`~repro.core.planner.Planner`).

    Parameters
    ----------
    sigma:
        Hot-key threshold: keys with cost ≥ ``sigma ×`` (average key cost) are
        candidates for moves and swaps.
    max_operations:
        Safety cap on the number of moves/swaps applied per planning round.
    """

    name = "readj"

    def __init__(self, sigma: float = DEFAULT_SIGMA, max_operations: int = 2000) -> None:
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.sigma = float(sigma)
        self.max_operations = int(max_operations)

    def _candidates(self, costs: Mapping[Key, float]) -> List[Key]:
        """Hot keys: cost at least ``sigma`` times the average key cost.

        Compared in product form (``cost · K ≥ σ · total``) so a subnormal
        total cost cannot underflow the mean to 0 and declare every key hot.
        """
        if not costs:
            return []
        total = sum(costs.values())
        count = len(costs)
        return [key for key, cost in costs.items() if cost * count >= self.sigma * total]

    def plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        started = time.perf_counter()
        costs = stats.cost_map()
        num_tasks = assignment.num_tasks
        keys = list(costs)
        working: Dict[Key, int] = dict(zip(keys, assignment.assign_batch(keys)))
        loads = load_from_costs(costs, working.__getitem__, num_tasks)
        ceiling = load_ceiling(loads, config.theta_max)

        # Step 1: move explicitly routed keys back to their hash destination
        # whenever the receiving task has room.
        for key in list(assignment.routing_table.keys()):
            if key not in working:
                continue
            home = assignment.hash_destination(key)
            current = working[key]
            if home == current:
                continue
            if loads[home] + costs[key] <= ceiling + _EPS:
                loads[current] -= costs[key]
                loads[home] += costs[key]
                working[key] = home

        # Step 2: best-operation search over hot keys.  Evaluating one move or
        # swap needs the load spread with two tasks excluded; keeping the three
        # highest and three lowest loads of the round makes that O(1) instead
        # of a full O(N_D) pass per candidate pair.
        candidates = self._candidates(costs)
        operations = 0
        while operations < self.max_operations:
            if max_balance_indicator(loads) <= config.theta_max:
                break
            best_gain = 0.0
            best_op: Optional[Tuple[str, Key, Optional[Key], int, int]] = None
            by_load = sorted(loads.items(), key=lambda item: item[1])
            lowest3 = by_load[:3]
            highest3 = by_load[-3:]
            spread = by_load[-1][1] - by_load[0][1]

            def spread_excluding(task_x: int, task_y: int, val_x: float, val_y: float) -> float:
                """Spread after tasks x/y take loads val_x/val_y."""
                high = val_x if val_x >= val_y else val_y
                for task, load in reversed(highest3):
                    if task != task_x and task != task_y:
                        if load > high:
                            high = load
                        break
                low = val_x if val_x <= val_y else val_y
                for task, load in lowest3:
                    if task != task_x and task != task_y:
                        if load < low:
                            low = load
                        break
                return high - low

            # Moves: hot key from its task to any other task.
            for key in candidates:
                source = working[key]
                cost = costs[key]
                for target in range(num_tasks):
                    if target == source:
                        continue
                    new_src = loads[source] - cost
                    new_dst = loads[target] + cost
                    gain = spread - spread_excluding(source, target, new_src, new_dst)
                    if gain > best_gain + _EPS:
                        best_gain = gain
                        best_op = ("move", key, None, source, target)

            # Swaps: exchange two hot keys sitting on different tasks.
            for i, key_a in enumerate(candidates):
                for key_b in candidates[i + 1 :]:
                    task_a, task_b = working[key_a], working[key_b]
                    if task_a == task_b:
                        continue
                    diff = costs[key_a] - costs[key_b]
                    new_a = loads[task_a] - diff
                    new_b = loads[task_b] + diff
                    gain = spread - spread_excluding(task_a, task_b, new_a, new_b)
                    if gain > best_gain + _EPS:
                        best_gain = gain
                        best_op = ("swap", key_a, key_b, task_a, task_b)

            if best_op is None:
                break
            kind, key_a, key_b, task_a, task_b = best_op
            if kind == "move":
                loads[task_a] -= costs[key_a]
                loads[task_b] += costs[key_a]
                working[key_a] = task_b
            else:
                assert key_b is not None
                working[key_a], working[key_b] = task_b, task_a
                diff = costs[key_a] - costs[key_b]
                loads[task_a] -= diff
                loads[task_b] += diff
            operations += 1

        return build_result(
            self.name,
            assignment,
            stats,
            config,
            off_hash_entries(assignment, working),
            working.keys(),
            loads=dict(loads),
            balanced=max(loads.values(), default=0.0) <= ceiling + _EPS,
            max_theta=max_balance_indicator(loads),
            started=started,
        )
