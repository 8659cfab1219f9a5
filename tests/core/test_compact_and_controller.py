"""Tests for the compact representation, the adapted Mixed planner and the rebalance loop."""

import random

import pytest

from reference_planner import reference_cost_map
from repro.core.assignment import AssignmentFunction
from repro.core.compact import (
    CompactMixedPlanner,
    CompactRecord,
    CompactStatistics,
    load_estimation_error,
)
from repro.core.discretization import HLHEDiscretizer
from repro.core.load import load_from_costs, max_balance_indicator
from repro.core.planner import PlannerConfig
from repro.core.statistics import IntervalStats, StatisticsStore
from repro.core.strategy import get_strategy


def _skewed(num_keys=200, seed=0):
    rng = random.Random(seed)
    freqs = {f"k{i}": float(rng.randint(1, 20)) for i in range(num_keys)}
    freqs["k0"], freqs["k1"], freqs["k2"] = 900.0, 700.0, 500.0
    return freqs


def _store(freqs, window=1):
    store = StatisticsStore(window=window)
    store.push(IntervalStats.from_frequencies(1, freqs))
    return store


class TestCompactRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompactRecord(0, 0, 0, -1.0, 1.0, 1)
        with pytest.raises(ValueError):
            CompactRecord(0, 0, 0, 1.0, 1.0, -1)

    def test_split(self):
        record = CompactRecord(None, 1, 2, 4.0, 8.0, 10)
        taken, rest = record.split(3)
        assert taken.count == 3 and rest.count == 7
        assert taken.total_cost == 12.0 and rest.total_memory == 56.0
        with pytest.raises(ValueError):
            record.split(11)

    def test_signature_and_flags(self):
        explicit = CompactRecord(1, 1, 2, 4.0, 8.0, 5)
        implicit = CompactRecord(2, 2, 2, 4.0, 8.0, 5)
        assert explicit.is_explicit and not implicit.is_explicit
        assert explicit.signature == (1, 2, 4.0, 8.0)


class TestCompactStatistics:
    def test_grouping_counts_every_key(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        compact = CompactStatistics.from_stats(store, assignment, HLHEDiscretizer(8))
        assert compact.total_keys() == len(reference_cost_map(store))
        # Records group many keys, so there are far fewer records than keys.
        assert len(compact) < compact.total_keys()

    def test_no_discretizer_means_exact_costs(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        compact = CompactStatistics.from_stats(store, assignment, None)
        estimated = compact.estimated_loads()
        actual = load_from_costs(reference_cost_map(store), assignment, 5)
        for task in range(5):
            assert estimated[task] == pytest.approx(actual[task])

    def test_estimated_loads_close_with_discretizer(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        compact = CompactStatistics.from_stats(store, assignment, HLHEDiscretizer(8))
        estimated = compact.estimated_loads()
        actual = load_from_costs(reference_cost_map(store), assignment, 5)
        assert load_estimation_error(estimated, actual) < 0.05


class TestCompactMixedPlanner:
    def test_rebalances(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        before = max_balance_indicator(load_from_costs(reference_cost_map(store), assignment, 5))
        result = CompactMixedPlanner(HLHEDiscretizer(8)).plan(
            assignment, store, PlannerConfig(theta_max=0.1, max_table_size=200)
        )
        assert result.max_theta < before
        assert result.generation_time > 0
        assert 0 <= result.load_estimation_error < 0.05

    def test_coarser_degree_fewer_records(self):
        store = _store(_skewed(num_keys=500))
        assignment = AssignmentFunction.hashed(5, seed=42)
        fine = CompactStatistics.from_stats(store, assignment, HLHEDiscretizer(1))
        coarse = CompactStatistics.from_stats(store, assignment, HLHEDiscretizer(64))
        assert 0 < len(coarse) <= len(fine)

    def test_migration_matches_assignment_change(self):
        store = _store(_skewed())
        assignment = AssignmentFunction.hashed(5, seed=42)
        result = CompactMixedPlanner(HLHEDiscretizer(8)).plan(
            assignment, store, PlannerConfig(theta_max=0.1)
        )
        observed = set(reference_cost_map(store))
        delta = {key for key in observed if assignment(key) != result.assignment(key)}
        assert delta == result.migrated_keys


class TestLoadEstimationError:
    def test_zero_for_exact(self):
        assert load_estimation_error({0: 10.0}, {0: 10.0}) == 0.0

    def test_skips_empty_tasks(self):
        assert load_estimation_error({0: 10.0, 1: 99.0}, {0: 10.0, 1: 0.0}) == 0.0

    def test_average_relative_error(self):
        error = load_estimation_error({0: 11.0, 1: 9.0}, {0: 10.0, 1: 10.0})
        assert error == pytest.approx(0.1)


class TestRebalanceLoop:
    """The loop every rebalancing strategy shares (RebalancingPartitioner)."""

    def test_requires_observation_before_rebalance(self):
        loop = get_strategy("mixed").build(5, seed=1)
        with pytest.raises(RuntimeError):
            loop.rebalance()
        assert not loop.should_rebalance()

    def test_triggers_only_when_imbalanced(self):
        loop = get_strategy("mixed").build(5, theta_max=0.2, seed=1)
        balanced = IntervalStats.from_frequencies(1, {f"k{i}": 10 for i in range(5000)})
        assert loop.on_interval_end(balanced) is None
        assert not loop.should_rebalance()
        result = loop.on_interval_end(IntervalStats.from_frequencies(2, _skewed()))
        assert result is not None
        assert loop.history == [result]
        assert loop.assignment is result.assignment

    def test_compact_planner_in_the_loop(self):
        loop = get_strategy("compact").build(
            5, theta_max=0.1, discretization_degree=8, seed=1
        )
        result = loop.on_interval_end(IntervalStats.from_frequencies(1, _skewed()))
        assert result is not None
        assert result.algorithm == "compact-mixed"
        assert result.load_estimation_error is not None

    def test_forced_round_reports_time_and_migration(self):
        loop = get_strategy("mixed").build(5, theta_max=0.05, seed=1)
        loop.observe(IntervalStats.from_frequencies(1, _skewed()))
        result = loop.rebalance()
        assert result.generation_time > 0
        assert result.migration_cost > 0
        assert result.load_estimation_error is None

    def test_algorithm_selection(self):
        loop = get_strategy("mintable").build(5, theta_max=0.05, seed=1)
        loop.observe(IntervalStats.from_frequencies(1, _skewed()))
        assert loop.rebalance().algorithm == "mintable"
