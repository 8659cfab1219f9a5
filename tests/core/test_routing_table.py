"""Tests for the bounded routing table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing_table import RoutingTable, RoutingTableOverflowError


class TestBasics:
    def test_empty(self):
        table = RoutingTable()
        assert len(table) == 0
        assert table.size == 0
        assert "k" not in table
        assert table.get("k") is None

    def test_set_get_remove(self):
        table = RoutingTable()
        table.set("a", 3)
        assert table["a"] == 3
        assert "a" in table
        assert table.remove("a") == 3
        assert "a" not in table

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            RoutingTable().remove("missing")

    def test_discard_missing_is_none(self):
        assert RoutingTable().discard("missing") is None

    def test_initial_entries(self):
        table = RoutingTable({"a": 1, "b": 2})
        assert table.size == 2
        assert dict(table.items()) == {"a": 1, "b": 2}

    def test_iteration_and_views(self):
        table = RoutingTable({"a": 1, "b": 2})
        assert set(table) == {"a", "b"}
        assert set(table.keys()) == {"a", "b"}
        assert sorted(table.values()) == [1, 2]
        assert table.as_dict() == {"a": 1, "b": 2}

    def test_clear(self):
        table = RoutingTable({"a": 1})
        table.clear()
        assert len(table) == 0

    def test_equality(self):
        assert RoutingTable({"a": 1}) == RoutingTable({"a": 1})
        assert RoutingTable({"a": 1}) == {"a": 1}
        assert RoutingTable({"a": 1}) != RoutingTable({"a": 2})


class TestMaxSize:
    def test_negative_max_size_rejected(self):
        with pytest.raises(ValueError):
            RoutingTable(max_size=-1)

    def test_initial_overflow_rejected(self):
        with pytest.raises(RoutingTableOverflowError):
            RoutingTable({"a": 1, "b": 2}, max_size=1)

    def test_overflow_on_set(self):
        table = RoutingTable(max_size=1)
        table.set("a", 0)
        with pytest.raises(RoutingTableOverflowError):
            table.set("b", 1)

    def test_update_existing_never_overflows(self):
        table = RoutingTable({"a": 0}, max_size=1)
        table.set("a", 4)
        assert table["a"] == 4

    def test_enforce_limit_false(self):
        table = RoutingTable(max_size=1)
        table.set("a", 0)
        table.set("b", 1, enforce_limit=False)
        assert table.size == 2
        assert table.max_size == 1

    def test_copy_preserves_and_overrides_limit(self):
        table = RoutingTable({"a": 1}, max_size=5)
        clone = table.copy()
        assert clone.max_size == 5
        assert clone == table
        unbounded = table.copy(max_size=None)
        assert unbounded.max_size is None
        # copies are independent
        clone.set("b", 2)
        assert "b" not in table


class TestPropertyBased:
    @given(
        st.dictionaries(st.text(min_size=1, max_size=6), st.integers(0, 9), max_size=40)
    )
    @settings(max_examples=60)
    def test_roundtrip_matches_dict(self, entries):
        table = RoutingTable(entries)
        assert table.as_dict() == entries
        assert len(table) == len(entries)
        for key, task in entries.items():
            assert table[key] == task

    @given(
        st.dictionaries(st.integers(), st.integers(0, 9), min_size=1, max_size=30),
        st.integers(0, 29),
    )
    @settings(max_examples=60)
    def test_unenforced_sets_may_exceed_the_bound(self, entries, max_size):
        table = RoutingTable(max_size=max_size)
        for key, task in entries.items():
            table.set(key, task, enforce_limit=False)
        assert table.size == len(entries)
        assert table.max_size == max_size


class TestChangedKeys:
    def test_table_diff_order(self):
        old = RoutingTable({"a": 0, "b": 1, "c": 2, "d": 3})
        new = RoutingTable({"e": 0, "c": 1, "a": 0, "f": 2})
        # Old entries dropped or retargeted in old order, then new additions
        # in new order; "a" kept its task.
        assert old.changed_keys(new) == ["b", "c", "d", "e", "f"]
        assert new.changed_keys(old) == ["e", "c", "f", "b", "d"]
        assert old.changed_keys(old) == []

    @given(
        st.dictionaries(st.integers(0, 30), st.integers(0, 3), max_size=20),
        st.dictionaries(st.integers(0, 30), st.integers(0, 3), max_size=20),
    )
    @settings(max_examples=60)
    def test_equal_table_pairs_give_the_same_list(self, old, new):
        first = RoutingTable(old).changed_keys(RoutingTable(new))
        second = RoutingTable(dict(old.items())).changed_keys(RoutingTable(dict(new.items())))
        assert first == second
        assert len(set(first)) == len(first)
        assert set(first) == {
            key for key in set(old) | set(new) if old.get(key) != new.get(key)
        }
