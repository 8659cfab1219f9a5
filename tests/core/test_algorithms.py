"""Tests for the phase-based rebalancers: MinTable, MinMig, Mixed, MixedBF.

Covers the algorithm-specific contracts the paper states:

* all of them restore the balance constraint whenever that is achievable;
* MinTable's routing table never exceeds the others' for the same input;
* MinMig's migration cost never exceeds MinTable's for the same input;
* Mixed respects the table cap ``A_max`` (by degenerating towards MinTable) and
  MixedBF never does worse than Mixed on migration cost for feasible caps;
* Theorem 2/4: Mixed's balance is never worse than Simple's.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_planner import reference_cost_map
from repro.core.assignment import AssignmentFunction
from repro.core.load import load_from_costs, max_balance_indicator
from repro.core.planner import PlannerConfig, get_algorithm
from repro.core.simple import simple_assign
from repro.core.statistics import IntervalStats, StatisticsStore


def _store(frequencies, window: int = 1, intervals: int = 1) -> StatisticsStore:
    store = StatisticsStore(window=window)
    for index in range(intervals):
        store.push(IntervalStats.from_frequencies(index + 1, frequencies))
    return store


def _skewed(num_keys: int = 200, hot: int = 3, seed: int = 0):
    rng = random.Random(seed)
    freqs = {f"k{i}": float(rng.randint(1, 20)) for i in range(num_keys)}
    for index in range(hot):
        freqs[f"k{index}"] = 1000.0 - 100.0 * index
    return freqs


class TestRegistry:
    def test_all_algorithms_registered(self):
        for expected in ("simple", "mintable", "minmig", "mixed", "mixedbf"):
            assert get_algorithm(expected).name == expected

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            get_algorithm("nope")


class TestBalanceRestoration:
    @pytest.mark.parametrize("name", ["mintable", "minmig", "mixed", "mixedbf", "simple"])
    def test_restores_balance(self, name):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        config = PlannerConfig(theta_max=0.1, max_table_size=500)
        before = max_balance_indicator(
            load_from_costs(reference_cost_map(store), assignment, 5)
        )
        result = get_algorithm(name).plan(assignment, store, config)
        after = max_balance_indicator(result.loads)
        assert before > 0.1
        assert after < before
        assert result.balanced
        # The produced loads must equal re-evaluating the costs under F'.
        recomputed = load_from_costs(reference_cost_map(store), result.assignment, 5)
        for task in range(5):
            assert recomputed[task] == pytest.approx(result.loads[task])

    @pytest.mark.parametrize("name", ["mintable", "minmig", "mixed"])
    def test_no_migration_when_already_balanced(self, name):
        freqs = {f"k{i}": 10.0 for i in range(500)}
        store = _store(freqs)
        assignment = AssignmentFunction.hashed(5, seed=1)
        result = get_algorithm(name).plan(
            assignment, store, PlannerConfig(theta_max=0.3)
        )
        # Nothing is overloaded, so the candidate set is empty and no key moves.
        assert result.migration_cost == 0.0
        assert len(result.migration_plan) == 0

    def test_generation_time_recorded(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        result = get_algorithm("mixed").plan(assignment, store, PlannerConfig())
        assert result.generation_time > 0


class TestAlgorithmContracts:
    def test_mintable_cleans_existing_entries(self):
        # A uniform workload that is already balanced under hashing (within the
        # generous tolerance), so the only question is what happens to the
        # pre-existing routing table entries.
        freqs = {f"k{i}": 10.0 for i in range(500)}
        store = _store(freqs)
        assignment = AssignmentFunction.hashed(5, seed=42)
        for index in range(50, 60):
            key = f"k{index}"
            assignment.routing_table.set(key, (assignment.hash_destination(key) + 1) % 5)
        mintable = get_algorithm("mintable").plan(
            assignment, store, PlannerConfig(theta_max=0.5)
        )
        minmig = get_algorithm("minmig").plan(
            assignment, store, PlannerConfig(theta_max=0.5)
        )
        # MinTable moved every pinned key back (empty table); MinMig kept them all.
        assert mintable.table_size == 0
        assert minmig.table_size == 10
        for index in range(50, 60):
            assert f"k{index}" not in mintable.routing_table
            assert f"k{index}" in minmig.routing_table
        # Cleaning is what costs MinTable migration volume.
        assert mintable.migration_cost >= minmig.migration_cost

    def test_minmig_cheaper_migration_than_mintable(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        # Start from a previously balanced table so cleaning has a real cost.
        warmup = get_algorithm("mixed").plan(
            assignment, store, PlannerConfig(theta_max=0.05)
        )
        assignment = warmup.assignment
        # New interval with a different hot set triggers another adjustment.
        store2 = _store(_skewed(seed=9))
        mintable = get_algorithm("mintable").plan(
            assignment, store2, PlannerConfig(theta_max=0.05)
        )
        minmig = get_algorithm("minmig").plan(
            assignment, store2, PlannerConfig(theta_max=0.05)
        )
        assert minmig.migration_cost <= mintable.migration_cost + 1e-9

    def test_mixed_respects_table_cap(self):
        # Warm up without a cap so a routing table exists to clean; then plan a
        # second adjustment under a tight cap.
        store = _store(_skewed(num_keys=400, hot=6))
        assignment = AssignmentFunction.hashed(8, seed=3)
        warm = get_algorithm("mixed").plan(
            assignment, store, PlannerConfig(theta_max=0.1)
        )
        assert warm.table_size > 0
        store2 = _store(_skewed(num_keys=400, hot=6, seed=21))
        cap = max(2, warm.table_size // 3)
        result = get_algorithm("mixed").plan(
            warm.assignment, store2, PlannerConfig(theta_max=0.1, max_table_size=cap)
        )
        # Either the cap is met, or Mixed escalated the cleaning depth trying to
        # meet it (degenerating towards MinTable).
        assert result.table_size <= cap or result.moved_back > 0
        assert result.cleaning_rounds >= 1

    def test_mixed_unbounded_equals_minmig_plan(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        config = PlannerConfig(theta_max=0.1, max_table_size=None)
        mixed = get_algorithm("mixed").plan(assignment, store, config)
        minmig = get_algorithm("minmig").plan(assignment, store, config)
        # With no cap Mixed never cleans, so it matches MinMig exactly.
        assert mixed.routing_table == minmig.routing_table
        assert mixed.migrated_keys == minmig.migrated_keys

    def test_mixedbf_not_worse_than_mixed_when_feasible(self):
        store = _store(_skewed(num_keys=150, hot=4, seed=2))
        assignment = AssignmentFunction.hashed(5, seed=7)
        # Seed a routing table first so cleaning depth matters.
        warm = get_algorithm("mixed").plan(
            assignment, store, PlannerConfig(theta_max=0.05)
        )
        store2 = _store(_skewed(num_keys=150, hot=4, seed=5))
        config = PlannerConfig(theta_max=0.05, max_table_size=60)
        mixed = get_algorithm("mixed").plan(warm.assignment, store2, config)
        brute = get_algorithm("mixedbf").plan(warm.assignment, store2, config)
        if mixed.table_size <= 60 and brute.table_size <= 60:
            assert brute.migration_cost <= mixed.migration_cost + 1e-9

    def test_migration_plan_matches_assignment_diff(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        result = get_algorithm("mixed").plan(
            assignment, store, PlannerConfig(theta_max=0.05)
        )
        observed = set(reference_cost_map(store))
        delta = {
            key for key in observed if assignment(key) != result.assignment(key)
        }
        assert delta == result.migrated_keys

    def test_theorem2_mixed_balance_not_worse_than_simple(self):
        for seed in range(5):
            freqs = _skewed(seed=seed)
            store = _store(freqs)
            assignment = AssignmentFunction.hashed(5, seed=42)
            mixed = get_algorithm("mixed").plan(
                assignment, store, PlannerConfig(theta_max=0.0)
            )
            _, simple_loads, _ = simple_assign(reference_cost_map(store), 5, assignment.hash_destination)
            theta_mixed = max_balance_indicator(mixed.loads)
            theta_simple = max_balance_indicator(simple_loads)
            assert theta_mixed <= theta_simple + 1e-9


class TestPropertyBased:
    @given(
        st.dictionaries(
            st.integers(0, 300),
            st.floats(min_value=1.0, max_value=500.0),
            min_size=10,
            max_size=150,
        ),
        st.integers(2, 8),
        st.sampled_from(["mintable", "minmig", "mixed"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_observed_key_has_valid_destination(self, freqs, num_tasks, name):
        store = _store(freqs)
        assignment = AssignmentFunction.hashed(num_tasks, seed=11)
        result = get_algorithm(name).plan(
            assignment, store, PlannerConfig(theta_max=0.1)
        )
        for key in freqs:
            assert 0 <= result.assignment(key) < num_tasks
        # Migration fraction is a valid fraction.
        assert 0.0 <= result.migration_fraction <= 1.0 + 1e-9

    @given(
        st.dictionaries(
            st.integers(0, 300),
            st.floats(min_value=1.0, max_value=500.0),
            min_size=20,
            max_size=150,
        ),
        st.integers(2, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_mixed_never_increases_imbalance(self, freqs, num_tasks):
        store = _store(freqs)
        assignment = AssignmentFunction.hashed(num_tasks, seed=13)
        before = max_balance_indicator(
            load_from_costs(reference_cost_map(store), assignment, num_tasks)
        )
        result = get_algorithm("mixed").plan(
            assignment, store, PlannerConfig(theta_max=0.05)
        )
        after = max_balance_indicator(result.loads)
        assert after <= before + 1e-9
