"""Core algorithms of the paper.

This subpackage implements the mixed key-based workload partitioning framework:

* the assignment function ``F(k) = A[k] if k in A else h(k)`` built from a
  bounded :class:`~repro.core.routing_table.RoutingTable` and a hash function
  (:mod:`repro.core.hashing`);
* the per-interval key statistics model (frequency ``g``, computation cost
  ``c``, memory ``s`` and windowed memory ``S(k, w)``) in
  :mod:`repro.core.statistics`, with the aligned key / cost / memory columns
  (:class:`~repro.core.statistics.KeyColumns`) the planner works on;
* the load model (per-task load ``L``, balance indicator ``θ`` and skewness) in
  :mod:`repro.core.load`;
* migration bookkeeping (``Δ(F, F′)`` and ``M_i(w, F, F′)``) in
  :mod:`repro.core.migration`;
* the rebalancing algorithms of Section III — :mod:`repro.core.llfd`
  (Algorithm 1), :mod:`repro.core.simple` (Algorithm 5),
  :mod:`repro.core.mintable` (Algorithm 2), :mod:`repro.core.minmig`
  (Algorithm 3) and :mod:`repro.core.mixed` (Algorithm 4 and its brute-force
  variant);
* the implementation optimisations of Section IV — the six-dimensional compact
  statistics representation (:mod:`repro.core.compact`) and the
  half-linear-half-exponential value discretisation
  (:mod:`repro.core.discretization`);
* the planner contract and result assembly every planning heuristic shares
  (:mod:`repro.core.planner`); the loop that decides when to trigger a plan
  and installs it is :class:`repro.baselines.base.RebalancingPartitioner`.
"""

from repro.core.assignment import AssignmentFunction
from repro.core.compact import CompactRecord, CompactStatistics
from repro.core.criteria import (
    HighestCostFirst,
    LargestGammaFirst,
    SelectionCriteria,
    SmallestMemoryFirst,
    gamma_index,
)
from repro.core.discretization import HLHEDiscretizer, NearestValueDiscretizer
from repro.core.hashing import ConsistentHashRing, UniversalHash
from repro.core.llfd import LLFDResult, least_load_fit_decreasing
from repro.core.load import (
    average_load,
    balance_indicator,
    max_skewness,
    overloaded_tasks,
    safe_mean,
    total_load,
)
from repro.core.migration import MigrationPlan
from repro.core.minmig import MinMigAlgorithm
from repro.core.mintable import MinTableAlgorithm
from repro.core.mixed import MixedAlgorithm, MixedBruteForceAlgorithm
from repro.core.planner import PlannerConfig, RebalanceResult, get_algorithm
from repro.core.routing_table import RoutingTable
from repro.core.simple import SimpleAlgorithm, simple_assign
from repro.core.statistics import IntervalStats, KeyColumns, KeyStats, StatisticsStore

__all__ = [
    "AssignmentFunction",
    "CompactRecord",
    "CompactStatistics",
    "ConsistentHashRing",
    "HLHEDiscretizer",
    "HighestCostFirst",
    "IntervalStats",
    "KeyColumns",
    "KeyStats",
    "LLFDResult",
    "LargestGammaFirst",
    "MigrationPlan",
    "MinMigAlgorithm",
    "MinTableAlgorithm",
    "MixedAlgorithm",
    "MixedBruteForceAlgorithm",
    "NearestValueDiscretizer",
    "PlannerConfig",
    "RebalanceResult",
    "RoutingTable",
    "SelectionCriteria",
    "SimpleAlgorithm",
    "SmallestMemoryFirst",
    "StatisticsStore",
    "UniversalHash",
    "average_load",
    "safe_mean",
    "total_load",
    "balance_indicator",
    "gamma_index",
    "get_algorithm",
    "least_load_fit_decreasing",
    "max_skewness",
    "overloaded_tasks",
    "simple_assign",
]
