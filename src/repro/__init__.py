"""repro — reproduction of *Parallel Stream Processing Against Workload Skewness
and Variance* (Fang et al., HPDC 2017).

The package provides:

* :mod:`repro.core` — the paper's contribution: the mixed (hash + routing-table)
  key assignment function and the LLFD / MinTable / MinMig / Mixed rebalancing
  algorithms, together with the compact statistics representation and the HLHE
  value discretisation.
* :mod:`repro.baselines` — the comparison partitioners used in the evaluation:
  plain hashing (Storm default), shuffle ("Ideal"), Readj, PKG and DKG.
* :mod:`repro.engine` — a Storm-like distributed stream processing engine
  substrate (topologies, tasks, keyed state, windows, an interval-driven
  simulator with a fluid queueing model, and the pause/migrate/ack/resume
  migration protocol).
* :mod:`repro.operators` — stateful operators used by the paper's workloads:
  word count, windowed aggregation (with PKG partial/merge variant), windowed
  self-join and a continuous TPC-H Q5 pipeline.
* :mod:`repro.workloads` — synthetic workload generators: Zipf streams with
  controlled skew and fluctuation, Social-feed and Stock-exchange surrogates and
  a DBGen-like TPC-H generator.
* :mod:`repro.experiments` — the benchmark harness regenerating every figure of
  the paper's evaluation (Figs. 7–21).
* :mod:`repro.runtime` — the process-parallel execution engine: worker
  processes hosting operator task instances behind bounded queues, online
  rebalancing with live key migration, and wall-clock benchmarking
  (``python -m repro bench``).
"""

from repro.core.assignment import AssignmentFunction
from repro.core.hashing import ConsistentHashRing, UniversalHash
from repro.core.planner import RebalanceResult, get_algorithm
from repro.core.routing_table import RoutingTable
from repro.core.statistics import IntervalStats, StatisticsStore
from repro.core.strategy import (
    StrategySpec,
    get_strategy,
    list_strategies,
    register_strategy,
    strategy_names,
)

__all__ = [
    "AssignmentFunction",
    "ConsistentHashRing",
    "IntervalStats",
    "RebalanceResult",
    "RoutingTable",
    "StatisticsStore",
    "StrategySpec",
    "UniversalHash",
    "get_algorithm",
    "get_strategy",
    "list_strategies",
    "register_strategy",
    "strategy_names",
]

__version__ = "1.0.0"
