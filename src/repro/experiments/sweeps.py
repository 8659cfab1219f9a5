"""Shared sweep machinery for the figure drivers.

Every evaluation figure is one of three shapes, and the helpers here implement
each shape once so the drivers in :mod:`repro.experiments.figures` only
declare *what* varies:

* :func:`planner_sweep` — stream a workload through rebalancers over the
  cartesian product of one or more parameter axes (Figs. 8–12, 17–21);
* :func:`simulate` — run one strategy through the fluid engine simulator with
  the scale preset supplying every knob the figure does not vary (Figs. 13–15);
* :func:`percentile_points` — collapse a sample list into the CDF percentile
  points the skewness figures plot (Fig. 7).

:func:`zipf_workload` materialises the default synthetic workload with
per-axis overrides; it is the "workload spec" behind most figures.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.snapshot import Snapshot, WorkloadSnapshot
from repro.engine.metrics import MetricsCollector
from repro.engine.operator import OperatorLogic
from repro.experiments.config import ExperimentScale
from repro.experiments.harness import PlannerRun, run_planner_sequence, run_simulation

__all__ = [
    "zipf_workload",
    "percentile_points",
    "planner_sweep",
    "simulate",
]


def zipf_workload(
    scale: ExperimentScale,
    *,
    num_keys: Optional[int] = None,
    num_tasks: Optional[int] = None,
    fluctuation: Optional[float] = None,
    intervals: Optional[int] = None,
    skew: Optional[float] = None,
    seed: int = 0,
) -> List[Snapshot]:
    """Materialise a Zipf workload with the scale's defaults and overrides."""
    from repro.workloads import ZipfWorkload

    workload = ZipfWorkload(
        num_keys=num_keys if num_keys is not None else scale.num_keys,
        skew=skew if skew is not None else scale.skew,
        tuples_per_interval=scale.tuples_per_interval,
        fluctuation=fluctuation if fluctuation is not None else scale.fluctuation,
        num_tasks=num_tasks if num_tasks is not None else scale.num_tasks,
        intervals=intervals if intervals is not None else scale.intervals,
        seed=seed,
    )
    return workload.take(intervals if intervals is not None else scale.intervals)


def percentile_points(
    samples: Iterable[float], percentiles: Sequence[int]
) -> List[Tuple[int, float]]:
    """``(percentile, value)`` points of the empirical CDF of ``samples``.

    Uses the same nearest-rank convention as the paper's CDF plots: the value
    at percentile ``p`` is the ``ceil(p/100 * n)``-th smallest sample (the
    rank is computed in floating point, matching the historical drivers).
    """
    ordered = sorted(samples)
    if not ordered:
        return []
    points: List[Tuple[int, float]] = []
    count = len(ordered)
    for percentile in percentiles:
        index = max(0, math.ceil(percentile / 100 * count) - 1)
        points.append((percentile, ordered[min(index, count - 1)]))
    return points


def planner_sweep(
    scale: ExperimentScale,
    *,
    axes: Mapping[str, Sequence[Any]],
    workload: Callable[[Dict[str, Any]], List[WorkloadSnapshot]],
    row: Callable[[PlannerRun, Dict[str, Any]], Any],
    varied: Callable[[Dict[str, Any]], Dict[str, Any]] = lambda axis: {},
    algorithms: Sequence[str] = ("mixed",),
    include_algorithm: bool = True,
    force_every_interval: bool = False,
    seed: int = 0,
) -> List[Dict[str, Any]]:
    """Run rebalancers over the cartesian product of parameter ``axes``.

    For every axis combination (iterated first-axis-major, matching the
    figures' nesting) the ``workload`` factory materialises the interval
    snapshots, each algorithm in ``algorithms`` is streamed through
    :func:`~repro.experiments.harness.run_planner_sequence` with the scale's
    ``num_tasks`` and tunables — except what ``varied`` returns for the
    combination, the knobs this figure sweeps or pins — and ``row`` maps the
    finished :class:`~repro.experiments.harness.PlannerRun` onto its metric
    columns: either one ``{column: value}`` dict or a list of them (for
    per-adjustment figures).  Each emitted row starts with the axis columns,
    then the ``algorithm`` column (unless ``include_algorithm`` is off), then
    the metric columns.
    """
    rows: List[Dict[str, Any]] = []
    names = list(axes.keys())
    for combo in itertools.product(*axes.values()):
        axis = dict(zip(names, combo))
        snapshots = workload(axis)
        knobs = {"num_tasks": scale.num_tasks, **scale.tunables(), **varied(axis)}
        for algorithm in algorithms:
            run = run_planner_sequence(
                algorithm,
                snapshots,
                seed=seed,
                force_every_interval=force_every_interval,
                **knobs,
            )
            metrics = row(run, axis)
            for columns in metrics if isinstance(metrics, list) else [metrics]:
                emitted = dict(axis)
                if include_algorithm:
                    emitted["algorithm"] = algorithm
                emitted.update(columns)
                rows.append(emitted)
    return rows


def simulate(
    scale: ExperimentScale,
    strategy: str,
    workload: Iterable[WorkloadSnapshot],
    logic: OperatorLogic,
    *,
    seed: int = 0,
    scale_out_at: Optional[Mapping[int, int]] = None,
    **varied: Any,
) -> MetricsCollector:
    """Run one strategy through the fluid simulator at the scale's settings.

    ``num_tasks`` and every tunable come from the scale preset; ``varied``
    names the ones this figure sweeps.
    """
    return run_simulation(
        strategy,
        workload,
        logic,
        num_tasks=scale.num_tasks,
        seed=seed,
        scale_out_at=scale_out_at,
        **{**scale.tunables(), **varied},
    )
