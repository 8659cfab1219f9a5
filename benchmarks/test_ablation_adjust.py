"""Ablation: LLFD's exchangeable-set Adjust step vs plain least-load fit.

The paper motivates the ``Adjust`` function with the "re-overloading" problem:
moving the heaviest key to the least-loaded task can overload *that* task
unless cheaper resident keys are exchanged out of the way (the Fig. 4 running
example).  This benchmark quantifies the effect: the same skewed snapshots are
balanced by (a) full LLFD and (b) a greedy least-load fit with the Adjust step
disabled, and the residual imbalance of both is reported.
"""

from typing import Dict

from repro.core.assignment import AssignmentFunction
from repro.core.llfd import least_load_fit_decreasing
from repro.core.load import load_from_costs, max_balance_indicator
from repro.core.statistics import IntervalStats
from repro.experiments.reporting import ExperimentResult
from repro.workloads import ZipfWorkload


def _greedy_without_adjust(costs: Dict, num_tasks: int) -> Dict[int, float]:
    """Plain least-load fit decreasing: no exchangeable set, no second chances."""
    loads = {task: 0.0 for task in range(num_tasks)}
    for key in sorted(costs, key=lambda k: -costs[k]):
        task = min(loads, key=lambda d: (loads[d], d))
        loads[task] += costs[key]
    return loads


def _ablation(scale) -> ExperimentResult:
    result = ExperimentResult(
        figure="Ablation A1",
        title="LLFD with vs without the Adjust exchangeable-set step",
        parameters={"theta_max": 0.0, "scale": scale.name},
        notes=(
            "With Adjust, LLFD resolves the re-overloading problem and reaches a "
            "tighter balance when only the keys of overloaded tasks are re-placed."
        ),
    )
    workload = ZipfWorkload(
        num_keys=scale.num_keys,
        skew=scale.skew,
        tuples_per_interval=scale.tuples_per_interval,
        fluctuation=scale.fluctuation,
        num_tasks=scale.num_tasks,
        intervals=scale.intervals,
        seed=3,
    ).take(scale.intervals)
    assignment = AssignmentFunction.hashed(scale.num_tasks, seed=3)
    for index, snapshot in enumerate(workload):
        costs = {
            key: stat.cost for key, stat in IntervalStats.from_frequencies(index, snapshot).items()
        }
        # Candidate set: keys of the overloaded tasks only (the Phase II choice).
        loads = load_from_costs(costs, assignment, scale.num_tasks)
        mean = sum(loads.values()) / len(loads)
        overloaded = {task for task, load in loads.items() if load > mean}
        candidates = {key for key in costs if assignment(key) in overloaded}
        remaining = {key: assignment(key) for key in costs if key not in candidates}

        llfd = least_load_fit_decreasing(
            candidates, remaining, costs, costs, scale.num_tasks, 0.0,
            assignment.hash_destination,
        )
        naive_loads = _greedy_without_adjust(
            {key: costs[key] for key in candidates}, scale.num_tasks
        )
        # Seed the naive variant with the loads the non-candidates already impose.
        for key, task in remaining.items():
            naive_loads[task] = naive_loads.get(task, 0.0) + costs[key]
        result.add_row(
            interval=index,
            theta_with_adjust=llfd.max_theta,
            theta_without_adjust=max_balance_indicator(naive_loads),
            exchanges=llfd.exchanges,
        )
    return result


def test_ablation_adjust(run_figure):
    result = run_figure(_ablation)
    with_adjust = sum(row["theta_with_adjust"] for row in result.rows)
    without = sum(row["theta_without_adjust"] for row in result.rows)
    assert with_adjust <= without + 1e-9
