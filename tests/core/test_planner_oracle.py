"""Oracle parity: the columnar planners against the dict-walking references.

``reference_planner.py`` holds the planner bodies this repo shipped before
planning moved onto aligned columns: the paper's algorithms, then Readj, DKG
and the compact planner.  The rewrite is a cost change, not a heuristic
change, so every plan must come out identical — same routing table (content
and entry order), same moves in the same order, bit-equal loads and
fractions — over several consecutive rounds, for every planner, with ties,
near-ties, multi-interval windows, a binding ``A_max`` and table entries for
keys the window never saw.

The order contract for moves is table-diff order: first the keys whose old
routing-table entry was dropped or retargeted, in the old table's entry
order, then the keys the new table adds, in its entry order.  The reference
finds ``Δ(F, F′)`` by evaluating ``F`` and ``F′`` on every observed key and
only then sorts the moves into that order, so it checks the set of moves
independently of the table diff ``src/`` reads them off.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_planner import (
    ReferenceCompactMixedPlanner,
    ReferenceDKGPlanner,
    ReferenceReadjPlanner,
    reference_algorithm,
    reference_cleaning_order,
    reference_compact_statistics,
    reference_llfd,
    reference_sort,
)
from repro.baselines.dkg import DKGPlanner
from repro.baselines.readj import ReadjPlanner
from repro.core.assignment import AssignmentFunction
from repro.core.compact import CompactMixedPlanner, CompactStatistics
from repro.core.criteria import HighestCostFirst, LargestGammaFirst, SmallestMemoryFirst
from repro.core.discretization import HLHEDiscretizer
from repro.core.hashing import UniversalHash
from repro.core.llfd import least_load_fit_decreasing
from repro.core.mixed import _cleaning_order
from repro.core.planner import PlannerConfig, RebalanceResult, get_algorithm
from repro.core.routing_table import RoutingTable
from repro.core.statistics import IntervalStats, KeyStats, StatisticsStore
from repro.workloads.zipf import ZipfWorkload

Key = Hashable

ALGORITHMS = ("mixed", "minmig", "mintable", "mixedbf")

#: Few distinct values, so equal costs / memories / γ are the norm, plus
#: non-integers whose powers do not round the same way in every libm.
_VALUES = st.sampled_from([0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 7.5, 9.0, 16.0, 0.1, 1e-3, 123.456])
#: Decimal fractions whose sums round: gains equal in exact arithmetic come
#: out a few ulps apart, where Readj's rule (a candidate wins only by beating
#: the best so far by more than 1e-9) and a plain argmax part ways.
_ROUNDING = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1.0, 2.0])


def _universe(kind: str, size: int) -> List[Key]:
    if kind == "str":
        return [f"k{i}" for i in range(size)]
    return [i * 7 - 5 for i in range(size)]  # ints, some negative


@st.composite
def _scenarios(draw, names=ALGORITHMS, pools=(_VALUES,)):
    values = draw(st.sampled_from(pools))
    kind = draw(st.sampled_from(["str", "int"]))
    universe = _universe(kind, draw(st.integers(min_value=3, max_value=24)))
    num_tasks = draw(st.integers(min_value=2, max_value=5))
    window = draw(st.integers(min_value=1, max_value=3))
    rounds = draw(st.integers(min_value=1, max_value=4))
    snapshots: List[Dict[Key, KeyStats]] = []
    for _ in range(rounds + window - 1):
        present = draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
        snapshots.append(
            {
                key: KeyStats(frequency=1.0, cost=draw(values), memory=draw(values))
                for key in present
            }
        )
    # Initial table: observed keys, keys only an older snapshot saw, keys never
    # seen at all (the last three of the universe plus one outside it), and
    # possibly entries equal to the hash destination.
    never_seen = [("ghost",) if kind == "str" else 10**6]
    pinned = draw(st.lists(st.sampled_from(universe + never_seen), unique=True, max_size=10))
    table = {key: draw(st.integers(min_value=0, max_value=num_tasks - 1)) for key in pinned}
    config = PlannerConfig(
        theta_max=draw(st.sampled_from([0.0, 0.02, 0.08, 0.3, 1.0])),
        max_table_size=draw(st.sampled_from([None, 0, 1, 2, 4])),
        beta=draw(st.sampled_from([1.5, 1.0, 0.5, 2.0])),
        window=draw(st.sampled_from([None, window, 1])),
    )
    return (
        draw(st.sampled_from(names)),
        num_tasks,
        draw(st.integers(min_value=0, max_value=3)),
        window,
        snapshots,
        table,
        config,
    )


def _assert_same_plan(actual: RebalanceResult, expected: RebalanceResult) -> None:
    assert list(actual.routing_table.items()) == list(expected.routing_table.items())
    assert actual.migration_plan.moves == expected.migration_plan.moves
    assert list(actual.loads.items()) == list(expected.loads.items())
    assert actual.balanced == expected.balanced
    assert actual.max_theta == expected.max_theta
    assert actual.migration_fraction == expected.migration_fraction
    assert actual.migration_cost == expected.migration_cost
    assert actual.cleaning_rounds == expected.cleaning_rounds
    assert actual.moved_back == expected.moved_back
    assert actual.table_size == expected.table_size
    assert actual.load_estimation_error == expected.load_estimation_error


def _replay(scenario, actual_planner, expected_planner, before_each=None) -> None:
    """Plan every interval of ``scenario`` (once the window is full) with both
    planners, each on its own statistics and the assignment its last plan
    installed, and require the same plan every time."""
    _, num_tasks, seed, window, snapshots, table, config = scenario
    actual_f = AssignmentFunction(UniversalHash(num_tasks, seed=seed), RoutingTable(table))
    expected_f = actual_f.with_table(RoutingTable(table))
    actual_stats = StatisticsStore(window=window)
    expected_stats = StatisticsStore(window=window)
    for interval, snapshot in enumerate(snapshots):
        actual_stats.push(IntervalStats(interval, snapshot))
        expected_stats.push(IntervalStats(interval, snapshot))
        if interval < window - 1:
            continue  # fill the window first, then plan on every interval
        if before_each is not None:
            before_each(actual_f, actual_stats, expected_f, expected_stats, config)
        actual = actual_planner.plan(actual_f, actual_stats, config)
        expected = expected_planner.plan(expected_f, expected_stats, config)
        _assert_same_plan(actual, expected)
        actual_f, expected_f = actual.assignment, expected.assignment


def _same_cleaning_order(actual_f, actual_stats, expected_f, expected_stats, config) -> None:
    assert _cleaning_order(actual_f, actual_stats, config) == reference_cleaning_order(
        expected_f, expected_stats, config
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_scenarios())
def test_columnar_planner_matches_dict_walking_reference(scenario):
    name = scenario[0]
    _replay(scenario, get_algorithm(name), reference_algorithm(name), _same_cleaning_order)


def _discretizer(degree: Optional[int]) -> Optional[HLHEDiscretizer]:
    return None if degree is None else HLHEDiscretizer(degree)


#: The planners outside the registry, each with the tunable drawn for it and
#: a function making ``(columnar planner, dict-walking reference)``.  σ = 0 makes
#: every key hot, so Readj's search meets many equal and near-equal gains;
#: the compact planner runs on the original key space and at R ∈ {1, 8}.
MOVED_PLANNERS = {
    "readj": (
        st.sampled_from([0.0, 0.5, 2.0]),
        lambda sigma: (ReadjPlanner(sigma), ReferenceReadjPlanner(sigma)),
    ),
    "dkg": (
        st.sampled_from([0.5, 1.0, 5.0]),
        lambda factor: (DKGPlanner(factor), ReferenceDKGPlanner(factor)),
    ),
    "compact-mixed": (
        st.sampled_from([None, 1, 8]),
        lambda degree: (
            CompactMixedPlanner(_discretizer(degree)),
            ReferenceCompactMixedPlanner(_discretizer(degree)),
        ),
    ),
}


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_scenarios(tuple(MOVED_PLANNERS), (_VALUES, _ROUNDING)), st.data())
def test_moved_planners_match_dict_walking_reference(scenario, data):
    name = scenario[0]
    tunable, build = MOVED_PLANNERS[name]
    actual, expected = build(data.draw(tunable))
    same_records = _same_records(actual.discretizer) if name == "compact-mixed" else None
    _replay(scenario, actual, expected, same_records)


def _same_records(discretizer: Optional[HLHEDiscretizer]):
    """Before each compact plan: the same records in the same (``repr``)
    order, and the same groups listing the same keys in the same order."""

    def check(actual_f, actual_stats, expected_f, expected_stats, config) -> None:
        actual = CompactStatistics.from_stats(actual_stats, actual_f, discretizer, config.window)
        expected = reference_compact_statistics(
            expected_stats, expected_f, discretizer, config.window
        )
        assert actual.records == expected.records
        keys = actual_stats.columns(config.window).keys
        assert [
            (signature, [keys[at] for at in group])
            for signature, group in actual.key_groups.items()
        ] == list(expected.key_groups.items())

    return check


@pytest.mark.parametrize("name", sorted(MOVED_PLANNERS))
def test_moved_planners_match_reference_at_zipf_magnitudes(name):
    # Tab. II's shape at `tiny`'s K = 2 000 (expected counts, a two-interval
    # window): hundreds of hot keys for Readj, thousands of keys to group.
    snapshots = ZipfWorkload(
        num_keys=2_000,
        skew=0.85,
        tuples_per_interval=20_000,
        fluctuation=1.0,
        num_tasks=10,
        intervals=4,
        seed=5,
        sampled=False,
    ).take(4)
    config = PlannerConfig(theta_max=0.02, max_table_size=200, beta=1.5, window=2)
    actual_planner, expected_planner = MOVED_PLANNERS[name][1](
        {"readj": 2.0, "dkg": 5.0, "compact-mixed": 8}[name]
    )
    actual_f = AssignmentFunction(UniversalHash(10, seed=5), RoutingTable())
    expected_f = actual_f.with_table(RoutingTable())
    actual_stats = StatisticsStore(window=2)
    expected_stats = StatisticsStore(window=2)
    moved = 0
    for interval, snapshot in enumerate(snapshots):
        for store in (actual_stats, expected_stats):
            store.push(
                IntervalStats.from_frequencies(interval, snapshot, memory_per_tuple=0.25)
            )
        actual = actual_planner.plan(actual_f, actual_stats, config)
        expected = expected_planner.plan(expected_f, expected_stats, config)
        _assert_same_plan(actual, expected)
        moved += len(actual.migration_plan.moves)
        actual_f, expected_f = actual.assignment, expected.assignment
    assert moved > 0


@settings(max_examples=200, deadline=None)
@given(
    st.data(),
    st.sampled_from([HighestCostFirst(), LargestGammaFirst(1.5), SmallestMemoryFirst(), None]),
    st.sampled_from(["str", "int"]),
    st.integers(min_value=1, max_value=4),
)
def test_llfd_front_door_matches_reference(data, criteria, kind, num_tasks):
    universe = _universe(kind, data.draw(st.integers(min_value=1, max_value=20)))
    costs = {key: data.draw(_VALUES) for key in universe}
    memories = {key: data.draw(_VALUES) for key in universe if data.draw(st.booleans())}
    candidates = data.draw(st.lists(st.sampled_from(universe), unique=True))
    assignment = {
        key: data.draw(st.integers(min_value=0, max_value=num_tasks - 1))
        for key in universe
        if data.draw(st.booleans())
    }
    base_loads: Optional[Dict[int, float]] = data.draw(
        st.one_of(st.none(), st.just({0: 2.5, num_tasks - 1: 0.75}))
    )
    theta_max = data.draw(st.sampled_from([0.0, 0.08, 0.5]))
    hash_function = UniversalHash(num_tasks, seed=1)
    arguments = (candidates, assignment, costs, memories, num_tasks, theta_max, hash_function)
    actual = least_load_fit_decreasing(*arguments, criteria, base_loads=base_loads)
    expected = reference_llfd(*arguments, criteria, base_loads=base_loads)
    assert actual.placements == expected.placements
    assert list(actual.routing_entries.items()) == list(expected.routing_entries.items())
    assert list(actual.loads.items()) == list(expected.loads.items())
    assert actual.balanced == expected.balanced
    assert actual.max_theta == expected.max_theta
    assert actual.exchanges == expected.exchanges
    assert actual.fallback_placements == expected.fallback_placements


@pytest.mark.parametrize("name", ["mixed", "minmig"])
def test_planner_matches_reference_at_zipf_magnitudes(name):
    # The hypothesis scenarios draw a dozen hand-picked values; here γ is
    # ranked over thousands of Zipf-shaped costs whose powers nearly tie
    # (Tab. II's shape at K = 5 000, expected counts, a two-interval window).
    snapshots = ZipfWorkload(
        num_keys=5_000,
        skew=0.85,
        tuples_per_interval=50_000,
        fluctuation=1.0,
        num_tasks=10,
        intervals=6,
        seed=3,
        sampled=False,
    ).take(6)
    config = PlannerConfig(theta_max=0.08, max_table_size=300, beta=1.5, window=2)
    actual_f = AssignmentFunction(UniversalHash(10, seed=3), RoutingTable())
    expected_f = actual_f.with_table(RoutingTable())
    actual_stats = StatisticsStore(window=2)
    expected_stats = StatisticsStore(window=2)
    moved = 0
    for interval, snapshot in enumerate(snapshots):
        for store in (actual_stats, expected_stats):
            store.push(
                IntervalStats.from_frequencies(interval, snapshot, memory_per_tuple=0.25)
            )
        actual = get_algorithm(name).plan(actual_f, actual_stats, config)
        expected = reference_algorithm(name).plan(expected_f, expected_stats, config)
        _assert_same_plan(actual, expected)
        moved += len(actual.migration_plan.moves)
        actual_f, expected_f = actual.assignment, expected.assignment
    assert moved > 0


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.tuples(_VALUES, _VALUES), max_size=30),
        # Enough distinct γ runs that the lazy ranking hands out several chunks.
        st.lists(st.tuples(_VALUES, _VALUES), min_size=60, max_size=200),
    ),
    st.sampled_from(
        [HighestCostFirst(), LargestGammaFirst(1.5), LargestGammaFirst(0.7), SmallestMemoryFirst()]
    ),
    st.sampled_from(["str", "int"]),
)
def test_vector_ranking_matches_scalar_sort(values, criteria, kind):
    keys = _universe(kind, len(values))
    costs = {key: cost for key, (cost, _) in zip(keys, values)}
    memories = {key: memory for key, (_, memory) in zip(keys, values)}
    assert criteria.sort(keys, costs, memories) == reference_sort(criteria, keys, costs, memories)
