"""Tests for the load model (θ, skewness) and the migration bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import AssignmentFunction
from repro.core.load import (
    average_load,
    balance_indicator,
    balance_indicators,
    load_ceiling,
    load_from_costs,
    max_balance_indicator,
    max_skewness,
    overloaded_tasks,
)
from repro.core.migration import KeyMove, MigrationPlan, build_migration_plan
from repro.core.planner import PlannerConfig, build_result
from repro.core.routing_table import RoutingTable
from repro.core.statistics import IntervalStats, StatisticsStore


class MembershipOnly:
    """A key collection that answers ``in`` (and counts the questions) but
    cannot be walked."""

    def __init__(self, keys):
        self._keys = set(keys)
        self.asked = 0

    def __contains__(self, key):
        self.asked += 1
        return key in self._keys

    def __iter__(self):
        raise AssertionError("the observed keys were walked")

    def __len__(self):
        raise AssertionError("the observed keys were counted")


class TestLoadModel:
    def test_load_from_costs(self):
        costs = {"a": 10.0, "b": 5.0, "c": 1.0}
        loads = load_from_costs(costs, lambda k: {"a": 0, "b": 1, "c": 1}[k], 3)
        assert loads == {0: 10.0, 1: 6.0, 2: 0.0}

    def test_load_from_costs_invalid_destination(self):
        with pytest.raises(ValueError):
            load_from_costs({"a": 1.0}, lambda k: 5, 3)

    def test_load_from_costs_invalid_num_tasks(self):
        with pytest.raises(ValueError):
            load_from_costs({}, lambda k: 0, 0)

    def test_load_from_interval_stats_costs(self):
        stats = IntervalStats.from_frequencies(0, {"a": 4, "b": 2})
        costs = {key: stat.cost for key, stat in stats.items()}
        loads = load_from_costs(costs, lambda k: 0 if k == "a" else 1, 2)
        assert loads == {0: 4.0, 1: 2.0}

    def test_average_and_indicator(self):
        loads = {0: 10.0, 1: 20.0}
        assert average_load(loads) == 15.0
        assert balance_indicator(20.0, 15.0) == pytest.approx(1 / 3)
        assert balance_indicator(10.0, 15.0) == pytest.approx(1 / 3)
        assert balance_indicator(5.0, 0.0) == 0.0
        assert max_balance_indicator(loads) == pytest.approx(1 / 3)
        indicators = balance_indicators(loads)
        assert set(indicators) == {0, 1}

    def test_empty_loads(self):
        assert average_load({}) == 0.0
        assert max_balance_indicator({}) == 0.0
        assert max_skewness({}) == 0.0

    def test_skewness(self):
        assert max_skewness({0: 10.0, 1: 10.0}) == 1.0
        assert max_skewness({0: 30.0, 1: 10.0}) == pytest.approx(1.5)
        assert max_skewness({0: 0.0, 1: 0.0}) == 0.0

    def test_ceiling_and_overload(self):
        loads = {0: 12.0, 1: 8.0}
        assert load_ceiling(loads, 0.1) == pytest.approx(11.0)
        assert overloaded_tasks(loads, 0.1) == [0]
        assert overloaded_tasks(loads, 0.2) == []

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            load_ceiling({0: 1.0}, -0.1)

    @given(
        st.dictionaries(st.integers(0, 9), st.floats(0.0, 1000.0), min_size=1, max_size=10)
    )
    @settings(max_examples=80)
    def test_skewness_at_least_one_when_loaded(self, loads):
        if sum(loads.values()) > 0:
            assert max_skewness(loads) >= 1.0 - 1e-9
        theta = max_balance_indicator(loads)
        assert theta >= 0.0


class TestMigration:
    def test_key_move_validation(self):
        with pytest.raises(ValueError):
            KeyMove("k", 1, 1)
        with pytest.raises(ValueError):
            KeyMove("k", 0, 1, state_size=-1)

    def test_plan_aggregates(self):
        plan = MigrationPlan(
            moves=[KeyMove("a", 0, 1, 5.0), KeyMove("b", 0, 2, 3.0), KeyMove("c", 2, 1, 1.0)]
        )
        assert len(plan) == 3
        assert plan.keys == {"a", "b", "c"}
        assert plan.total_state == 9.0
        assert set(plan.moves_by_source()) == {0, 2}
        assert bool(plan)

    def test_empty_plan(self):
        plan = MigrationPlan()
        assert not plan
        assert plan.total_state == 0.0

    def test_migration_cost_and_fraction(self):
        store = StatisticsStore(window=2)
        store.push(IntervalStats.from_frequencies(1, {"a": 10, "b": 30}))
        store.push(IntervalStats.from_frequencies(2, {"a": 10, "b": 10}))
        old = AssignmentFunction.hashed(3, seed=1)
        entries = {"a": (old("a") + 1) % 3}
        for window, cost, total in ((None, 20.0, 60.0), (1, 10.0, 20.0)):
            result = build_result(
                "test", old, store, PlannerConfig(window=window), entries, {"a", "b"},
                loads={}, balanced=True, max_theta=0.0,
            )
            assert result.migration_cost == cost
            assert result.migration_fraction == cost / total

    def test_fraction_zero_when_no_state(self):
        store = StatisticsStore(window=1)
        store.push(IntervalStats(0))
        old = AssignmentFunction.hashed(3, seed=1)
        result = build_result(
            "test", old, store, PlannerConfig(), {"a": (old("a") + 1) % 3}, {"a"},
            loads={}, balanced=True, max_theta=0.0,
        )
        assert result.migrated_keys == {"a"}
        assert result.migration_fraction == 0.0

    def test_build_migration_plan(self):
        store = StatisticsStore(window=1)
        store.push(IntervalStats.from_frequencies(1, {"a": 4, "b": 6}))
        old = AssignmentFunction.hashed(3, seed=1)
        new = old.with_table(RoutingTable({"a": (old("a") + 1) % 3}))
        plan = build_migration_plan(old, new, ["a", "b"], store)
        assert plan.keys == {"a"}
        assert plan.total_state == 4.0
        move = plan.moves[0]
        assert move.source == old("a") and move.target == new("a")

    def test_build_plan_without_stats_has_zero_sizes(self):
        old = AssignmentFunction.hashed(3, seed=1)
        new = old.with_table(RoutingTable({"a": (old("a") + 1) % 3}))
        plan = build_migration_plan(old, new, ["a"])
        assert plan.total_state == 0.0
        assert plan.keys == {"a"}

    def test_plan_only_asks_observed_for_membership(self):
        # Δ is read off the table diff: the observed keys are never walked,
        # and asked about once per changed entry, however many there are.
        old = AssignmentFunction.hashed(4, seed=3)
        keys = [f"k{i}" for i in range(40)]
        old_table = {key: (old(key) + 1) % 4 for key in keys[:10]}
        new_table = dict(old_table)
        del new_table["k0"]  # dropped: back to its hash
        new_table["k1"] = (old_table["k1"] + 1) % 4  # retargeted
        new_table["k2"] = old("k2")  # pinned on its hash: no move
        new_table.update({key: (old(key) + 2) % 4 for key in keys[20:25]})  # added
        new_table["k99"] = (old("k99") + 1) % 4  # added, never observed
        old = old.with_table(RoutingTable(old_table))
        new = old.with_table(RoutingTable(new_table))
        store = StatisticsStore(window=1)
        store.push(IntervalStats.from_frequencies(0, {key: 1 + i for i, key in enumerate(keys)}))
        observed = MembershipOnly(keys)
        plan = build_migration_plan(old, new, observed, store)
        expected = [
            KeyMove(key, old(key), new(key), store.windowed_memory(key))
            for key in ["k0", "k1", "k2", *keys[20:25]]
            if old(key) != new(key)
        ]
        assert plan.moves == expected
        assert [move.key for move in expected][:2] == ["k0", "k1"]
        assert observed.asked == len(old.routing_table.changed_keys(new.routing_table))
