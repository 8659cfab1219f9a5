"""Stateful operators used by the paper's workloads.

Each is written once against :class:`repro.engine.operator.OperatorLogic`: a
cost model, a state model (two attributes, or one ``batch_cost`` override) and
one ``process_batch``.

* :mod:`repro.operators.wordcount` — the Social-feed word-count topology
  (continuously maintained per-word appearance counts).
* :mod:`repro.operators.windowed_aggregate` — generic windowed key aggregation,
  including the partial-aggregate + merge pair that PKG requires.
* :mod:`repro.operators.windowed_join` — the windowed equi-join cost model
  and the self-join run on the Stock workload.
* :mod:`repro.operators.tpch_q5` — the continuous TPC-H Q5 pipeline (chained
  windowed joins + revenue aggregation) used for the Fig. 16 experiment.
"""

from repro.operators.tpch_q5 import DimensionJoin, Q5Stage, build_q5_topology
from repro.operators.windowed_aggregate import (
    MergeOperator,
    PartialWindowedAggregate,
    WindowedAggregate,
)
from repro.operators.windowed_join import WindowedJoin, WindowedSelfJoin
from repro.operators.wordcount import WordCountOperator

__all__ = [
    "DimensionJoin",
    "MergeOperator",
    "PartialWindowedAggregate",
    "Q5Stage",
    "WindowedAggregate",
    "WindowedJoin",
    "WindowedSelfJoin",
    "WordCountOperator",
    "build_q5_topology",
]
