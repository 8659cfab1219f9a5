"""Experiment scale presets.

The paper's parameter defaults (Tab. II) are: key domain ``K = 10^5``, skew
``z = 0.85``, fluctuation ``f = 1.0``, ``θ_max = 0.08``, ``β = 1.5``, window
``w = 1``, ``N_D = 10`` task instances and routing-table cap ``N_A = 3000``.
Running every sweep at that size is minutes of wall time per figure in pure
Python, so the benchmarks default to a scaled-down preset with the same shape;
the ``paper`` preset restores the published defaults for full runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict

from repro.core.planner import PlannerConfig

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """A consistent set of workload sizes for the figure drivers."""

    name: str
    #: Key domain size K.
    num_keys: int
    #: Tuples generated per interval.
    tuples_per_interval: int
    #: Number of intervals per run (planner sweeps).
    intervals: int
    #: Number of intervals per run (full simulations, which are slower).
    sim_intervals: int
    #: Default number of downstream task instances N_D.
    num_tasks: int
    #: Default routing-table cap A_max.
    max_table_size: int
    #: Default Zipf skew z.
    skew: float = 0.85
    #: Default fluctuation rate f.
    fluctuation: float = 1.0
    #: Default imbalance tolerance θ_max (the planner's own default: Tab. II).
    theta_max: float = PlannerConfig.theta_max
    #: Default γ weight β (likewise).
    beta: float = PlannerConfig.beta
    #: Default state window w.
    window: int = 1

    def tunables(self) -> Dict[str, Any]:
        """The scale's strategy tunables, as ``StrategySpec.build`` keywords."""
        return {
            "theta_max": self.theta_max,
            "max_table_size": self.max_table_size,
            "beta": self.beta,
            "window": self.window,
        }

    def scaled(self, **overrides) -> "ExperimentScale":
        """Return a copy with some fields overridden."""
        return replace(self, **overrides)


SCALES: Dict[str, ExperimentScale] = {
    # Fast enough for CI / pytest-benchmark (seconds per figure).
    "tiny": ExperimentScale(
        name="tiny",
        num_keys=2_000,
        tuples_per_interval=20_000,
        intervals=6,
        sim_intervals=8,
        num_tasks=8,
        max_table_size=400,
    ),
    # Laptop-scale default used by the shipped benchmarks.
    "small": ExperimentScale(
        name="small",
        num_keys=10_000,
        tuples_per_interval=100_000,
        intervals=10,
        sim_intervals=15,
        num_tasks=10,
        max_table_size=1_000,
    ),
    # The paper's defaults (Tab. II); expect minutes per figure in Python.
    "paper": ExperimentScale(
        name="paper",
        num_keys=100_000,
        tuples_per_interval=1_000_000,
        intervals=50,
        sim_intervals=50,
        num_tasks=10,
        max_table_size=3_000,
    ),
}


def get_scale(scale: str | ExperimentScale) -> ExperimentScale:
    """Resolve a scale preset by name (or pass an explicit preset through)."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return SCALES[scale]
    except KeyError as exc:
        raise KeyError(f"unknown scale {scale!r}; known: {sorted(SCALES)}") from exc
