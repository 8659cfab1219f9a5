"""Tests for the mixed assignment function F (Equation 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import assignment as assignment_module
from repro.core.assignment import AssignmentFunction
from repro.core.hashing import UniversalHash
from repro.core.load import load_from_columns
from repro.core.routing_table import RoutingTable
from repro.core.statistics import IntervalStats
from repro.core.strategy import get_strategy


class TestEvaluation:
    def test_hash_fallback(self):
        assignment = AssignmentFunction.hashed(4, seed=1)
        for key in range(100):
            assert assignment(key) == assignment.hash_destination(key)
            assert not assignment.is_explicit(key)

    def test_table_overrides_hash(self):
        assignment = AssignmentFunction.hashed(4, seed=1)
        key = "pinned"
        other = (assignment.hash_destination(key) + 1) % 4
        assignment.routing_table.set(key, other)
        assert assignment(key) == other
        assert assignment.is_explicit(key)

    def test_num_tasks_required_for_plain_callable(self):
        with pytest.raises(ValueError):
            AssignmentFunction(lambda key: 0)
        assignment = AssignmentFunction(lambda key: 0, num_tasks=3)
        assert assignment(123) == 0

    def test_invalid_num_tasks(self):
        with pytest.raises(ValueError):
            AssignmentFunction(UniversalHash(3), num_tasks=0)


class TestDeltaAndTables:
    def test_with_table_shares_hash(self):
        a = AssignmentFunction.hashed(4, seed=2)
        table = RoutingTable({"x": 1})
        b = a.with_table(table)
        assert b("x") == 1
        assert b.hash_destination("x") == a.hash_destination("x")

    def test_with_copied_table_is_independent(self):
        a = AssignmentFunction.hashed(4, seed=2)
        b = a.with_table(a.routing_table.copy())
        b.routing_table.set("x", 0)
        assert "x" not in a.routing_table

    @given(st.integers(1, 16), st.lists(st.integers(), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_always_routes_in_range(self, num_tasks, keys):
        assignment = AssignmentFunction.hashed(num_tasks, seed=5)
        for key in keys:
            assert 0 <= assignment(key) < num_tasks


class TestColumns:
    """``F`` over an interval's columns and its loads: computed once per
    columns and table version, handed out as copies."""

    @pytest.fixture
    def load_calls(self, monkeypatch):
        calls = []
        real = assignment_module.load_from_columns
        monkeypatch.setattr(
            assignment_module, "load_from_columns", lambda *args: calls.append(1) or real(*args)
        )
        return calls

    @staticmethod
    def columns():
        snapshot = {key: 1.0 + key % 5 for key in range(40)}
        return IntervalStats.from_frequencies(0, snapshot).columns()

    def test_loads_are_computed_once_per_table_version(self, load_calls):
        assignment = AssignmentFunction.hashed(4, seed=1)
        columns = self.columns()
        first = assignment.column_loads(columns)
        assert assignment.column_loads(columns) == first
        assert len(load_calls) == 1
        assignment.routing_table.set(3, (assignment.hash_destination(3) + 1) % 4)
        routed = np.array([assignment(key) for key in columns.keys])
        assert assignment.column_loads(columns) == load_from_columns(routed, columns.cost, 4)
        assert len(load_calls) == 2

    def test_callers_edit_copies(self):
        assignment = AssignmentFunction.hashed(4, seed=1)
        columns = self.columns()
        assignment.column_loads(columns)[0] = -1.0
        assignment.route_columns(columns)[1][:] = 0
        routed = [assignment(key) for key in columns.keys]
        assert assignment.route_columns(columns)[1].tolist() == routed
        assert assignment.column_loads(columns) == load_from_columns(
            np.array(routed), columns.cost, 4
        )

    def test_check_and_a_trial_that_cleans_nothing_share_the_loads(self, load_calls):
        partitioner = get_strategy("mixed").build(4, seed=7, theta_max=0.05)
        snapshot = dict.fromkeys(range(40), 1.0)
        snapshot[3] = 500.0
        result = partitioner.on_interval_end(IntervalStats.from_frequencies(0, snapshot))
        assert result is not None and result.moved_back == 0
        assert len(load_calls) == 1
