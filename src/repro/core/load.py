"""Load model of Section II-A: per-task load, balance indicator and skewness.

Given an interval snapshot and an assignment function ``F``:

* ``L_i(d, F) = Σ_{k : F(k) = d} c_i(k)`` — total computation load of task ``d``;
* ``L̄_i = (1 / N_D) Σ_d L_i(d, F)`` — the average load;
* ``θ_i(d, F) = |L_i(d, F) − L̄_i| / L̄_i`` — the balance indicator, which the
  controller keeps below the user-specified tolerance ``θ_max``;
* workload skewness ``max_d L_i(d, F) / L̄_i`` — the metric plotted in Fig. 7.

All ratios are computed from the *total* load rather than the divided mean:
``L̄ = total / N`` underflows to 0.0 when the total is subnormal (e.g.
``sum == 5e-324``), which would misfire the ``mean <= 0`` guards and report a
loaded operator as empty.  ``max / L̄`` is therefore evaluated as
``max / total · N`` and ``|L − L̄| / L̄`` as ``|L / total · N − 1|``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Mapping

import numpy as np

__all__ = [
    "load_from_costs",
    "load_from_columns",
    "total_load",
    "average_load",
    "safe_mean",
    "balance_indicator",
    "balance_indicators",
    "max_balance_indicator",
    "max_skewness",
    "overloaded_tasks",
    "load_ceiling",
]

Key = Hashable
Assignment = Callable[[Key], int]


def load_from_costs(
    costs: Mapping[Key, float],
    assignment: Assignment,
    num_tasks: int,
) -> Dict[int, float]:
    """Compute ``{d: L(d)}`` from a ``{key: cost}`` map and an assignment."""
    if num_tasks <= 0:
        raise ValueError(f"num_tasks must be positive, got {num_tasks}")
    loads: Dict[int, float] = {task: 0.0 for task in range(num_tasks)}
    assign_batch = getattr(assignment, "assign_batch", None)
    if assign_batch is not None:
        keys = list(costs)
        pairs = zip(keys, assign_batch(keys))
    else:
        pairs = ((key, assignment(key)) for key in costs)
    for key, destination in pairs:
        if destination not in loads:
            raise ValueError(
                f"assignment routed key {key!r} to task {destination}, "
                f"outside 0..{num_tasks - 1}"
            )
        loads[destination] += costs[key]
    return loads


def load_from_columns(
    destinations: np.ndarray,
    cost: np.ndarray,
    num_tasks: int,
) -> Dict[int, float]:
    """``{d: L(d)}`` from aligned destination / cost columns.

    ``np.bincount`` adds the weights one by one in column order, so the sums
    are bit-identical to :func:`load_from_costs` walking the same keys.
    """
    if num_tasks <= 0:
        raise ValueError(f"num_tasks must be positive, got {num_tasks}")
    if len(destinations) and (destinations.min() < 0 or destinations.max() >= num_tasks):
        at = int(np.flatnonzero((destinations < 0) | (destinations >= num_tasks))[0])
        raise ValueError(
            f"assignment routed key #{at} to task {int(destinations[at])}, "
            f"outside 0..{num_tasks - 1}"
        )
    loads = np.bincount(destinations, weights=cost, minlength=num_tasks)
    return dict(enumerate(loads.tolist()))


def total_load(loads: Mapping[int, float]) -> float:
    """``Σ_d L(d)`` — the underflow-safe basis for every relative load metric."""
    return sum(loads.values())


def safe_mean(total: float, count: int) -> float:
    """``total / count`` with a zero-count guard (0.0 for an empty population).

    Note that the quotient itself can still underflow to 0.0 for subnormal
    totals; callers comparing a value against the mean should compare
    ``value * count`` against ``total`` instead (see :func:`overloaded_tasks`).
    """
    if count <= 0:
        return 0.0
    return total / count


def average_load(loads: Mapping[int, float]) -> float:
    """``L̄``: the mean load over all tasks (0.0 for an empty mapping)."""
    return safe_mean(total_load(loads), len(loads))


def balance_indicator(load: float, mean: float) -> float:
    """``θ = |L(d) − L̄| / L̄``; defined as 0 when the mean load is 0.

    Prefer :func:`balance_indicators` when the full load map is available: it
    works from the total load and therefore survives subnormal means.
    """
    if mean <= 0.0:
        return 0.0
    return abs(load - mean) / mean


def balance_indicators(loads: Mapping[int, float]) -> Dict[int, float]:
    """Per-task balance indicators ``{d: θ(d)}``."""
    total = total_load(loads)
    if total <= 0.0:
        return {task: 0.0 for task in loads}
    count = len(loads)
    return {task: abs(load / total * count - 1.0) for task, load in loads.items()}


def max_balance_indicator(loads: Mapping[int, float]) -> float:
    """Largest ``θ(d)`` over all tasks (0.0 for an empty mapping)."""
    total = total_load(loads)
    if total <= 0.0:
        return 0.0
    count = len(loads)
    return max(abs(load / total * count - 1.0) for load in loads.values())


def max_skewness(loads: Mapping[int, float]) -> float:
    """Workload skewness ``max_d L(d) / L̄`` (the Fig. 7 metric).

    Returns 1.0 for a perfectly balanced operator and 0.0 when there is no load
    at all.  Evaluated as ``max / total · N`` so that a subnormal total (whose
    divided mean underflows to 0.0) still reports a skewness ≥ 1.
    """
    total = total_load(loads)
    if total <= 0.0:
        return 0.0
    return max(loads.values()) / total * len(loads)


def load_ceiling(loads: Mapping[int, float], theta_max: float) -> float:
    """``L_max = (1 + θ_max) · L̄`` — the per-task load ceiling.

    As a per-task float this can still underflow to 0.0 for subnormal totals
    (the quotient is below float resolution); overload *classification* must
    therefore go through :func:`overloaded_tasks`, which compares in product
    form and never divides.
    """
    if theta_max < 0:
        raise ValueError(f"theta_max must be non-negative, got {theta_max}")
    if not loads:
        return 0.0
    return (1.0 + theta_max) * total_load(loads) / len(loads)


def overloaded_tasks(loads: Mapping[int, float], theta_max: float) -> List[int]:
    """Tasks whose load exceeds the ceiling ``(1 + θ_max) · L̄``.

    The comparison is performed in product form (``L(d) · N`` against
    ``(1 + θ_max) · total``) so a subnormal total cannot zero out the ceiling
    and flag every loaded task as overloaded.
    """
    if theta_max < 0:
        raise ValueError(f"theta_max must be non-negative, got {theta_max}")
    total = total_load(loads)
    count = len(loads)
    if count == 0 or total <= 0.0:
        return []
    threshold = (1.0 + theta_max) * total
    slack = 1e-12 * count
    return sorted(
        task for task, load in loads.items() if load * count > threshold + slack
    )
