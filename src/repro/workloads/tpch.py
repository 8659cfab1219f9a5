"""DBGen-like TPC-H generator and the continuous-Q5 stream.

The paper generates a 1 GB TPC-H dataset with DBGen, "producing zipf skewness
on foreign keys with z = 0.8", and revises Q5 (local supplier volume) into a
continuous query over a sliding window.  This module provides:

* :func:`generate_tpch` / :class:`TPCHDataset` — small-scale synthetic versions
  of the tables Q5 touches (region, nation, supplier, customer, orders,
  lineitem), with Zipf-skewed foreign keys;
* :class:`TPCHStreamWorkload` — the per-interval stream of lineitem arrivals
  keyed by order key, with the periodic distribution change the Fig. 16
  experiment triggers every 15 minutes.

Only the columns Q5 needs are materialised; the point of the substrate is the
join/aggregation structure and the foreign-key skew, not TPC-H's full schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TPCHDataset",
    "ForeignKeyLookup",
    "draw_lineitem_revenue",
    "generate_tpch",
    "TPCHStreamWorkload",
    "TPCHLineitemTrace",
]


class ForeignKeyLookup:
    """A picklable foreign-key mapping with hash-spread fallback.

    Carries *only* the mapping it needs — unlike a bound
    :class:`TPCHDataset` method, which would drag the whole dataset
    (lineitems included) into every worker process that pickles it.
    Unknown keys spread over ``modulus`` deterministically, matching the
    dataset's ``*_of_*`` helpers.
    """

    __slots__ = ("mapping", "modulus")

    def __init__(self, mapping: Dict[int, int], modulus: int) -> None:
        self.mapping = mapping
        self.modulus = max(1, int(modulus))

    def __call__(self, key: int) -> int:
        value = self.mapping.get(key)
        return value if value is not None else key % self.modulus

    def map_batch(self, keys: Sequence[int]) -> List[int]:
        """``[self(key) for key in keys]`` as one C-level map (the form
        :func:`repro.engine.topology.map_keys` looks for)."""
        mapped = list(map(self.mapping.get, keys))
        if None in mapped:
            modulus = self.modulus
            mapped = [
                key % modulus if value is None else value
                for key, value in zip(keys, mapped)
            ]
        return mapped

    def __getstate__(self):
        return (self.mapping, self.modulus)

    def __setstate__(self, state):
        self.mapping, self.modulus = state

#: The 5 TPC-H regions and 25 nations (name lists shortened to what Q5 needs).
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_NATIONS_PER_REGION = 5


def _zipf_weights(size: int, skew: float) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    return weights / weights.sum()


def draw_lineitem_revenue(rng: np.random.Generator, size: int) -> np.ndarray:
    """Lineitem revenue samples, ``extendedprice × (1 − discount)``.

    The DBGen-style price/discount ranges used by :func:`generate_tpch`,
    shared so synthetic streams price their tuples identically."""
    prices = rng.uniform(900.0, 105_000.0, size=size)
    discounts = rng.uniform(0.0, 0.1, size=size)
    return prices * (1.0 - discounts)


@dataclass
class TPCHDataset:
    """The slice of TPC-H that the continuous Q5 needs.

    Foreign keys are stored as dense integer arrays indexed by the referencing
    key, which keeps lookups O(1) for the stream topology's key mappers.
    """

    scale: float
    num_customers: int
    num_suppliers: int
    num_orders: int
    num_lineitems: int
    #: nation key -> region key
    nation_region: Dict[int, int] = field(default_factory=dict)
    #: customer key -> nation key
    customer_nation: Dict[int, int] = field(default_factory=dict)
    #: supplier key -> nation key
    supplier_nation: Dict[int, int] = field(default_factory=dict)
    #: order key -> customer key (zipf-skewed)
    order_customer: Dict[int, int] = field(default_factory=dict)
    #: lineitem id -> (order key, supplier key, extended price * (1 - discount))
    lineitems: List[Tuple[int, int, float]] = field(default_factory=list)

    # -- Q5 helpers -----------------------------------------------------------------

    def customer_of_order(self, order_key: int) -> int:
        """The customer that placed ``order_key`` (hash-spread for unknown keys)."""
        if order_key in self.order_customer:
            return self.order_customer[order_key]
        return order_key % max(1, self.num_customers)

    def nation_of_customer(self, customer_key: int) -> int:
        if customer_key in self.customer_nation:
            return self.customer_nation[customer_key]
        return customer_key % (len(_REGIONS) * _NATIONS_PER_REGION)

    def nation_of_supplier(self, supplier_key: int) -> int:
        if supplier_key in self.supplier_nation:
            return self.supplier_nation[supplier_key]
        return supplier_key % (len(_REGIONS) * _NATIONS_PER_REGION)

    def region_of_nation(self, nation_key: int) -> int:
        return self.nation_region.get(nation_key, nation_key % len(_REGIONS))

    def q5_reference_answer(self, region: int = 0) -> Dict[int, float]:
        """Batch (non-streaming) answer of Q5 restricted to ``region``.

        revenue per nation = Σ extendedprice·(1−discount) over lineitems whose
        order's customer and whose supplier share a nation in ``region``.
        Used by tests to validate the streaming topology's semantics.
        """
        revenue: Dict[int, float] = {}
        for order_key, supplier_key, price in self.lineitems:
            customer = self.customer_of_order(order_key)
            cust_nation = self.nation_of_customer(customer)
            supp_nation = self.nation_of_supplier(supplier_key)
            if cust_nation != supp_nation:
                continue
            if self.region_of_nation(cust_nation) != region:
                continue
            revenue[cust_nation] = revenue.get(cust_nation, 0.0) + price
        return revenue


def generate_tpch(
    scale: float = 0.01,
    *,
    fk_skew: float = 0.8,
    seed: int = 0,
) -> TPCHDataset:
    """Generate a synthetic TPC-H slice at ``scale`` (1.0 ≈ DBGen's 1 GB).

    Row counts follow TPC-H's ratios (150k customers, 10k suppliers, 1.5M
    orders and ~6M lineitems per scale factor); foreign keys from orders to
    customers and from lineitems to suppliers follow a Zipf distribution with
    exponent ``fk_skew`` — the skew the paper injects with z = 0.8.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if fk_skew < 0:
        raise ValueError("fk_skew must be non-negative")
    rng = np.random.default_rng(seed)
    num_customers = max(10, int(150_000 * scale))
    num_suppliers = max(5, int(10_000 * scale))
    num_orders = max(20, int(1_500_000 * scale))
    num_lineitems = max(40, int(6_000_000 * scale))
    num_nations = len(_REGIONS) * _NATIONS_PER_REGION

    dataset = TPCHDataset(
        scale=scale,
        num_customers=num_customers,
        num_suppliers=num_suppliers,
        num_orders=num_orders,
        num_lineitems=num_lineitems,
    )

    for nation in range(num_nations):
        dataset.nation_region[nation] = nation % len(_REGIONS)
    for customer in range(num_customers):
        dataset.customer_nation[customer] = int(rng.integers(0, num_nations))
    for supplier in range(num_suppliers):
        dataset.supplier_nation[supplier] = int(rng.integers(0, num_nations))

    customer_weights = _zipf_weights(num_customers, fk_skew)
    order_customers = rng.choice(num_customers, size=num_orders, p=customer_weights)
    for order, customer in enumerate(order_customers):
        dataset.order_customer[order] = int(customer)

    order_weights = _zipf_weights(num_orders, fk_skew)
    lineitem_orders = rng.choice(num_orders, size=num_lineitems, p=order_weights)
    supplier_weights = _zipf_weights(num_suppliers, fk_skew)
    lineitem_suppliers = rng.choice(num_suppliers, size=num_lineitems, p=supplier_weights)
    revenue = draw_lineitem_revenue(rng, num_lineitems)
    for order, supplier, amount in zip(lineitem_orders, lineitem_suppliers, revenue):
        dataset.lineitems.append((int(order), int(supplier), float(amount)))

    return dataset


class TPCHStreamWorkload:
    """Per-interval lineitem arrivals keyed by order key.

    The Fig. 16 experiment runs Q5 for one hour with a 5-minute window and a
    distribution change triggered every 15 minutes with ``f = 1``: the mapping
    from ranks to order keys is reshuffled among the hot orders, abruptly
    moving the heavy keys.

    Parameters
    ----------
    dataset:
        The TPC-H slice providing the order-key domain.
    tuples_per_interval:
        Lineitems arriving per interval.
    skew:
        Zipf skew of order popularity in the stream.
    change_every:
        Interval period of the triggered distribution change (``None`` = never).
    change_fraction:
        Fraction of the hot-key mass whose identity changes at each trigger
        (``f = 1`` in the paper corresponds to rotating the full hot set).
    intervals:
        Number of intervals (``None`` = unbounded).
    seed:
        RNG seed.
    """

    def __init__(
        self,
        dataset: TPCHDataset,
        tuples_per_interval: int = 50_000,
        skew: float = 0.8,
        change_every: Optional[int] = 15,
        change_fraction: float = 1.0,
        intervals: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        if tuples_per_interval < 0:
            raise ValueError("tuples_per_interval must be non-negative")
        if change_every is not None and change_every < 1:
            raise ValueError("change_every must be >= 1 or None")
        if not 0 <= change_fraction <= 1:
            raise ValueError("change_fraction must be in [0, 1]")
        self.dataset = dataset
        self.tuples_per_interval = int(tuples_per_interval)
        self.skew = float(skew)
        self.change_every = change_every
        self.change_fraction = float(change_fraction)
        self.intervals = intervals
        self.seed = int(seed)

    def __iter__(self) -> Iterator[Dict[int, float]]:
        rng = np.random.default_rng(self.seed)
        num_orders = self.dataset.num_orders
        weights = _zipf_weights(num_orders, self.skew)
        permutation = np.arange(num_orders)

        produced = 0
        while self.intervals is None or produced < self.intervals:
            if (
                self.change_every is not None
                and produced > 0
                and produced % self.change_every == 0
            ):
                hot = max(2, int(num_orders * 0.01))
                rotate = max(1, int(hot * self.change_fraction))
                # Move the hottest `rotate` orders to previously cold positions.
                cold_positions = rng.choice(
                    np.arange(hot, num_orders), size=rotate, replace=False
                )
                for hot_pos, cold_pos in zip(range(rotate), cold_positions):
                    permutation[[hot_pos, cold_pos]] = permutation[[cold_pos, hot_pos]]

            current = weights[np.argsort(permutation)]
            counts = rng.multinomial(self.tuples_per_interval, current / current.sum())
            yield {
                int(order): float(count)
                for order, count in enumerate(counts)
                if count > 0
            }
            produced += 1

    def take(self, intervals: int) -> List[Dict[int, float]]:
        """Materialise the first ``intervals`` snapshots."""
        result: List[Dict[int, float]] = []
        for snapshot in self:
            result.append(snapshot)
            if len(result) >= intervals:
                break
        return result


class TPCHLineitemTrace:
    """Replays the generated lineitem table as a per-interval tuple trace.

    Where :class:`TPCHStreamWorkload` *synthesises* per-interval key
    frequencies, the trace replays the concrete rows DBGen-style generation
    produced — ``(order key, revenue)`` tuples in arrival order, revenue
    being ``extendedprice × (1 − discount)`` — the open-loop "replayed
    trace" source of the runtime benchmarks.  The foreign-key Zipf skew of
    the generator (z = 0.8 in the paper) is therefore baked into the key
    stream.  A trace shorter than the requested volume wraps around.

    Parameters
    ----------
    dataset:
        The TPC-H slice whose ``lineitems`` are replayed.
    tuples_per_interval:
        Lineitems per interval.
    intervals:
        Number of intervals to materialise.
    """

    def __init__(
        self,
        dataset: TPCHDataset,
        tuples_per_interval: int = 50_000,
        intervals: int = 10,
    ) -> None:
        if tuples_per_interval <= 0:
            raise ValueError("tuples_per_interval must be positive")
        if intervals <= 0:
            raise ValueError("intervals must be positive")
        if not dataset.lineitems:
            raise ValueError("dataset has no lineitems to replay")
        self.dataset = dataset
        self.tuples_per_interval = int(tuples_per_interval)
        self.intervals = int(intervals)

    def take(self, intervals: Optional[int] = None) -> List[List[Tuple[int, float]]]:
        """Materialise ``intervals`` (default: all configured) tuple lists."""
        count = self.intervals if intervals is None else int(intervals)
        rows = self.dataset.lineitems
        trace: List[List[Tuple[int, float]]] = []
        cursor = 0
        for _ in range(count):
            interval: List[Tuple[int, float]] = []
            for _ in range(self.tuples_per_interval):
                order_key, _supplier, revenue = rows[cursor]
                interval.append((order_key, revenue))
                cursor = (cursor + 1) % len(rows)
            trace.append(interval)
        return trace
