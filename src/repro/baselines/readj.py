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
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.assignment import AssignmentFunction
from repro.core.load import load_ceiling, max_balance_indicator
from repro.core.planner import PlannerConfig, RebalanceResult, build_result
from repro.core.statistics import StatisticsStore

__all__ = ["DEFAULT_SIGMA", "ReadjPlanner"]

_EPS = 1e-9

#: Default hot-key threshold σ (the ``readj_sigma`` tunable of the registry).
DEFAULT_SIGMA = 2.0

#: Cells of one block of the swap grid (hot key × hot key): bounds a round's
#: temporaries whatever the number of hot keys.
_BLOCK = 1 << 18


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

    def plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        started = time.perf_counter()
        columns = stats.columns(config.window)
        keys, cost = columns.keys, columns.cost
        hashed, working = assignment.route_columns(columns)
        loads = assignment.column_loads(columns)
        ceiling = load_ceiling(loads, config.theta_max)

        # Step 1: move explicitly routed keys back to their hash destination
        # whenever the receiving task has room.
        for at in map(columns.index.get, list(assignment.routing_table.keys())):
            if at is None:
                continue
            home, current = hashed.item(at), working.item(at)
            if home != current and loads[home] + cost.item(at) <= ceiling + _EPS:
                loads[current] -= cost.item(at)
                loads[home] += cost.item(at)
                working[at] = home

        # Step 2: best-operation search over hot keys, the keys whose cost is
        # at least σ times the average — compared in product form
        # (``cost · K ≥ σ · total``) so a subnormal total cost cannot
        # underflow the mean to 0 and declare every key hot.
        hot = np.flatnonzero(cost * len(keys) >= self.sigma * stats.latest.total_cost())
        operations = 0
        while operations < self.max_operations and max_balance_indicator(loads) > config.theta_max:
            operation = _best_operation(hot, working, cost, loads)
            if operation is None:
                break
            a, b, task_a, task_b = operation
            diff = cost.item(a) if b is None else cost.item(a) - cost.item(b)
            loads[task_a] -= diff
            loads[task_b] += diff
            working[a] = task_b
            if b is not None:
                working[b] = task_a
            operations += 1

        off_hash = np.flatnonzero(working != hashed).tolist()
        return build_result(
            self.name,
            assignment,
            stats,
            config,
            {keys[at]: working.item(at) for at in off_hash},
            columns.index,
            loads=dict(loads),
            balanced=max(loads.values(), default=0.0) <= ceiling + _EPS,
            max_theta=max_balance_indicator(loads),
            started=started,
        )


def _best_operation(
    hot: np.ndarray, working: np.ndarray, cost: np.ndarray, loads: Dict[int, float]
) -> Optional[Tuple[int, Optional[int], int, int]]:
    """The move or swap that narrows the load spread most, or ``None``: key
    position ``a`` goes from ``task_a`` to ``task_b``, swapping with ``b``
    unless ``b`` is ``None``.

    Candidates come in the loop's order — each hot key to each other task,
    then each pair ``i < j`` of hot keys on different tasks — and one wins by
    beating the best gain so far by more than ``_EPS``.  The gains are arrays
    made with the loop's float operations, a block of the swap grid at a time.
    """
    load = np.array(list(loads.values()))
    by_load = np.argsort(load, kind="stable")
    spread = load[by_load[-1]] - load[by_load[0]]

    def gains(x, y, new_x, new_y) -> np.ndarray:
        """Spread reduction once tasks ``x`` / ``y`` take loads ``new_x`` /
        ``new_y``, the other extremes read off the three highest and lowest."""

        def other(ranked: np.ndarray) -> np.ndarray:  # NaN: every task is x or y
            out = np.full(np.broadcast(x, y).shape, np.nan)
            for task in ranked[::-1].tolist():
                out = np.where((x != task) & (y != task), load[task], out)
            return out

        high = np.fmax(np.fmax(new_x, new_y), other(by_load[:-4:-1]))
        return spread - (high - np.fmin(np.fmin(new_x, new_y), other(by_load[:3])))

    best, choice = 0.0, None

    def winner(candidates: np.ndarray) -> Optional[int]:
        """The last candidate to beat the best before it by more than ``_EPS``
        (only one above every earlier candidate can)."""
        nonlocal best
        chosen = None
        above = candidates > np.maximum.accumulate(np.append(best, candidates))[:-1]
        for at in np.flatnonzero(above).tolist():
            if candidates.item(at) > best + _EPS:
                best, chosen = candidates.item(at), at
        return chosen

    source, hot_cost = working[hot], cost[hot]
    tasks = np.arange(len(load))
    mask = source[:, None] != tasks
    at = winner(gains(
        source[:, None], tasks, (load[source] - hot_cost)[:, None], load + hot_cost[:, None]
    )[mask])
    if at is not None:
        row, target = (index.item(at) for index in np.nonzero(mask))
        choice = (hot.item(row), None, source.item(row), target)
    step = max(1, _BLOCK // max(1, len(hot)))
    for lo in range(0, len(hot), step):
        rows = np.arange(lo, min(lo + step, len(hot)))[:, None]
        mask = (rows < np.arange(len(hot))) & (source[rows] != source)
        diff = hot_cost[rows] - hot_cost
        at = winner(gains(
            source[rows], source, load[source[rows]] - diff, load[source] + diff
        )[mask])
        if at is not None:
            i, j = (index.item(at) for index in np.nonzero(mask))
            choice = (hot.item(lo + i), hot.item(j), source.item(lo + i), source.item(j))
    return choice
