"""Experiment harness regenerating the paper's evaluation (Figs. 7–21).

The public experiment API has three layers:

* the **strategy registry** (:mod:`repro.core.strategy`) naming every
  partitioning strategy and its tunables;
* **ExperimentSpec + runner** (:mod:`repro.experiments.specs`): every figure
  of the evaluation is a registered experiment that can be run declaratively
  — pick a scale preset, override knobs, choose strategies and sweep axes;
* the **ResultsStore** (:mod:`repro.experiments.store`): JSON-per-run
  persistence with run metadata (scale, seed, git revision, wall time) and a
  loader for cross-run comparison.  ``python -m repro`` exposes all of it on
  the command line.

Quick use::

    from repro.experiments import ExperimentSpec, ResultsStore, run

    store = ResultsStore("results")
    outcome = run(ExperimentSpec("fig08", scale="small"), store=store)
    print(outcome.result.to_text())
"""

from repro.experiments.config import SCALES, ExperimentScale, get_scale
from repro.experiments.harness import (
    PlannerRun,
    run_planner_sequence,
    run_simulation,
)
from repro.experiments.reporting import ExperimentResult, format_table, mean
from repro.experiments.specs import (
    Claim,
    ExperimentRun,
    ExperimentSpec,
    RunMetadata,
    experiment_names,
    get_experiment,
    list_experiments,
    register_claim,
    register_experiment,
    run,
    run_batch,
)
from repro.experiments.store import ResultsStore
from repro.experiments.sweeps import (
    percentile_points,
    planner_sweep,
    simulate,
    zipf_workload,
)

__all__ = [
    "Claim",
    "ExperimentResult",
    "ExperimentRun",
    "ExperimentScale",
    "ExperimentSpec",
    "PlannerRun",
    "ResultsStore",
    "RunMetadata",
    "SCALES",
    "experiment_names",
    "format_table",
    "get_experiment",
    "get_scale",
    "list_experiments",
    "mean",
    "percentile_points",
    "planner_sweep",
    "register_claim",
    "register_experiment",
    "run",
    "run_batch",
    "run_planner_sequence",
    "run_simulation",
    "simulate",
    "zipf_workload",
]
