"""Baseline partitioning / load-balancing strategies used in the paper's evaluation.

* :class:`~repro.baselines.hash_only.HashPartitioner` — Apache Storm's default
  key (fields) grouping: a static hash, never rebalanced ("Storm" curves).
* :class:`~repro.baselines.shuffle.ShufflePartitioner` — key-oblivious shuffle
  grouping; the "Ideal" upper bound that cannot be used for stateful operators.
* :class:`~repro.baselines.readj.ReadjPlanner` — Gedik's partitioning
  functions for stateful data parallelism (VLDBJ 2014): pairwise key
  swap/migrate search over the hot keys ("Readj").
* :class:`~repro.baselines.pkg.PartialKeyGrouping` — key splitting over the two
  hash choices with power-of-two-choices load estimation ("PKG"), plus the
  partial-aggregation/merge operator pair it requires.
* :class:`~repro.baselines.dkg.DKGPlanner` — distribution-aware key
  grouping: heavy keys placed greedily, light keys hashed (related-work
  baseline).

All partitioners implement the small :class:`~repro.baselines.base.Partitioner`
protocol so the engine can drive any of them interchangeably.  Readj and DKG
use the paper's mixed hash + routing-table assignment and differ from it only
in how they plan, so they are planners run by the one rebalance loop,
:class:`~repro.baselines.base.RebalancingPartitioner` (build them through the
strategy registry: ``get_strategy("readj").build(num_tasks)``).
"""

from repro.baselines.base import Partitioner, RebalancingPartitioner
from repro.baselines.dkg import DKGPlanner
from repro.baselines.hash_only import HashPartitioner
from repro.baselines.pkg import PartialKeyGrouping
from repro.baselines.readj import ReadjPlanner
from repro.baselines.shuffle import ShufflePartitioner

__all__ = [
    "DKGPlanner",
    "HashPartitioner",
    "PartialKeyGrouping",
    "Partitioner",
    "ReadjPlanner",
    "RebalancingPartitioner",
    "ShufflePartitioner",
]
