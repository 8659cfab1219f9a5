"""Tests for the mixed assignment function F (Equation 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import AssignmentFunction
from repro.core.hashing import UniversalHash
from repro.core.routing_table import RoutingTable


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
