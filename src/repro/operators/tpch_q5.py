"""Continuous TPC-H Q5 — the multi-join topology of the Fig. 16 experiment.

Q5 ("local supplier volume") joins lineitem ⋈ orders ⋈ customer ⋈ supplier ⋈
nation ⋈ region and aggregates revenue per nation.  Revised into a continuous
query over a sliding window, it becomes a chain of keyed, stateful operators:

1. ``order-join``   — lineitems keyed by *order key* join the order/customer
   dimension (windowed state per order key);
2. ``customer-join`` — results re-keyed by *customer key* join the customer/
   nation dimension;
3. ``revenue-agg``   — results re-keyed by *nation key* are aggregated into the
   per-nation revenue of the window.

The foreign-key skew injected by the generator makes the first two joins
imbalanced; because they are chained, a slow task in the first join starves the
second one ("the data imbalance slows down the previous join operator … and
suspends the processing on downstream join operators"), which is exactly the
effect the experiment measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

from repro.baselines.base import Partitioner
from repro.engine.state import KeyedState
from repro.engine.topology import StageSpec, TopologySpec, map_keys
from repro.operators.windowed_aggregate import WindowedAggregate
from repro.operators.windowed_join import WindowedJoin, retain
from repro.workloads.tpch import ForeignKeyLookup, TPCHDataset

__all__ = [
    "Q5Stage",
    "DimensionJoin",
    "build_q5_topology",
    "q5_revenue_of",
    "q5_revenue_reducer",
]

Key = Hashable

#: Factory signature: (stage name, parallelism) -> partitioner for that stage.
PartitionerFactory = Callable[[str, int], Partitioner]


@dataclass(frozen=True)
class Q5Stage:
    """Names of the three stages of the continuous Q5 topology."""

    ORDER_JOIN: str = "order-join"
    CUSTOMER_JOIN: str = "customer-join"
    REVENUE_AGG: str = "revenue-agg"


class DimensionJoin(WindowedJoin):
    """Windowed join of a stream against a static dimension lookup.

    The streaming side keeps its tuples in windowed state (so key migration has
    a real cost); the dimension side is a broadcast lookup table (as a real
    deployment would hold the small TPC-H dimensions replicated on every task).
    The output enriches each tuple with the dimension attribute.
    """

    name = "dimension-join"

    def __init__(
        self,
        lookup: Callable[[Key], Any],
        window: int = 1,
        cost_per_tuple: float = 1.0,
        cost_per_match: float = 0.05,
        state_per_tuple: float = 1.0,
    ) -> None:
        super().__init__(
            window=window,
            cost_per_tuple=cost_per_tuple,
            cost_per_match=cost_per_match,
            state_per_tuple=state_per_tuple,
        )
        self.lookup = lookup

    def process_batch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: int,
        state: KeyedState,
        task_id: int,
    ) -> Tuple[List[Key], List[Any]]:
        # Keep each streaming tuple in the window (join state) and emit it
        # enriched with the dimension attribute.
        state.accumulate_batch(keys, values, interval, self.state_per_tuple, retain)
        return list(keys), list(zip(values, map_keys(self.lookup, keys)))


def q5_revenue_of(value: Any) -> float:
    """The revenue carried by a Q5 chain tuple, whatever stage it left.

    Each :class:`DimensionJoin` wraps the incoming value as ``(value,
    dimension_attribute)``, so after the two joins the lineitem's revenue
    (``extendedprice × (1 − discount)``) is the innermost element.  Module
    level (not a lambda/closure) so the revenue-aggregation stage pickles
    under any multiprocessing start method.
    """
    while isinstance(value, tuple):
        value = value[0]
    return float(value) if value is not None else 0.0


def q5_revenue_reducer(accumulator: Any, value: Any) -> float:
    """Reducer for the revenue-agg stage: per-nation revenue of the window."""
    return (accumulator or 0.0) + q5_revenue_of(value)


def build_q5_topology(
    dataset: TPCHDataset,
    partitioner_factory: PartitionerFactory,
    *,
    parallelism: int = 10,
    window: int = 5,
    aggregate_parallelism: Optional[int] = None,
    stage_costs: Tuple[float, float, float] = (1.0, 1.0, 0.5),
) -> TopologySpec:
    """Assemble the continuous Q5 pipeline — simulated by the fluid
    ``PipelineSimulator`` (Fig. 16), executed by ``repro bench tpch_q5_chain``.

    Parameters
    ----------
    dataset:
        The TPC-H slice providing the foreign-key mappings used to re-key the
        stream between stages.
    partitioner_factory:
        Called once per stage with ``(stage_name, parallelism)``; lets the
        caller choose the strategy under test for the join stages while the
        final (tiny, 25-key) aggregation typically keeps plain hashing.
    parallelism:
        Task count of the two join stages (the operators under study).
    window:
        Sliding-window length in intervals (the paper uses a 5-minute window
        with 1-minute intervals).
    aggregate_parallelism:
        Task count of the revenue aggregation (defaults to ``min(parallelism,
        5)`` — the nation key domain is only 25 keys).
    stage_costs:
        Per-tuple cost of the order join, the customer join and the revenue
        aggregation (the bench makes the customer join the bottleneck).
    """
    if parallelism <= 0:
        raise ValueError("parallelism must be positive")
    if aggregate_parallelism is None:
        aggregate_parallelism = max(1, min(parallelism, 5))

    # Slim, picklable lookups: workers need the foreign-key dicts, not the
    # whole dataset (bound methods would drag the lineitem table along).
    customer_of_order = ForeignKeyLookup(
        dataset.order_customer, dataset.num_customers
    )
    nation_of_customer = ForeignKeyLookup(dataset.customer_nation, 25)
    order_cost, customer_cost, revenue_cost = stage_costs
    stages = Q5Stage()
    joins = [
        StageSpec(
            name=name,
            logic=DimensionJoin(lookup=lookup, window=window, cost_per_tuple=cost),
            partitioner=partitioner_factory(name, parallelism),
            key_mapper=lookup,
        )
        for name, lookup, cost in (
            (stages.ORDER_JOIN, customer_of_order, order_cost),
            (stages.CUSTOMER_JOIN, nation_of_customer, customer_cost),
        )
    ]
    revenue = StageSpec(
        name=stages.REVENUE_AGG,
        logic=WindowedAggregate(
            reducer=q5_revenue_reducer,
            window=window,
            cost_per_tuple=revenue_cost,
            state_per_tuple=0.1,
        ),
        partitioner=partitioner_factory(stages.REVENUE_AGG, aggregate_parallelism),
    )
    return TopologySpec("tpch-q5", [*joins, revenue])
