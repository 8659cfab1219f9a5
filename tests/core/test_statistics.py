"""Tests for per-interval statistics and the rolling statistics store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statistics import IntervalStats, KeyStats, StatisticsStore


class TestKeyStats:
    def test_defaults(self):
        stat = KeyStats()
        assert stat.frequency == 0 and stat.cost == 0 and stat.memory == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            KeyStats(frequency=-1)

    def test_merge(self):
        merged = KeyStats(1, 2, 3).merged(KeyStats(4, 5, 6))
        assert (merged.frequency, merged.cost, merged.memory) == (5, 7, 9)


class TestIntervalStats:
    def test_from_frequencies_defaults(self):
        stats = IntervalStats.from_frequencies(3, {"a": 10, "b": 0, "c": 5})
        assert "b" not in stats  # zero-frequency keys are dropped
        assert stats.frequency("a") == 10
        assert stats.cost("a") == 10
        assert stats.memory("c") == 5
        assert stats.interval == 3

    def test_from_frequencies_scaling(self):
        stats = IntervalStats.from_frequencies(
            0, {"a": 4}, cost_per_tuple=2.5, memory_per_tuple=0.5
        )
        assert stats.cost("a") == 10
        assert stats.memory("a") == 2

    @pytest.mark.parametrize("count", [-1, -0.5, float("nan")])
    def test_from_frequencies_rejects_negative_and_nan_counts(self, count):
        # Like record(): such a count used to be dropped without a word.
        with pytest.raises(ValueError):
            IntervalStats.from_frequencies(0, {"a": 4, "b": count})

    @pytest.mark.parametrize("per_tuple", ["cost_per_tuple", "memory_per_tuple"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_from_frequencies_rejects_negative_per_tuple_values(self, per_tuple, value):
        with pytest.raises(ValueError):
            IntervalStats.from_frequencies(0, {"a": 4}, **{per_tuple: value})
        with pytest.raises(ValueError):  # also when no key would carry it
            IntervalStats.from_frequencies(0, {}, **{per_tuple: value})

    def test_from_frequencies_per_key_values_follow_the_mapping_order(self):
        stats = IntervalStats.from_frequencies(
            0, {"a": 4, "b": 0, "c": 2}, cost_per_tuple=[1.0, 9.0, 0.5], memory_per_tuple=2.0
        )
        assert list(stats.items()) == [("a", KeyStats(4, 4, 8)), ("c", KeyStats(2, 1, 4))]

    def test_from_columns(self):
        stats = IntervalStats.from_columns(2, ["a", "b"], [4, 0], [2.0, 0.0], [1.0, 3.0])
        assert stats.interval == 2
        assert list(stats.items()) == [("a", KeyStats(4, 2, 1)), ("b", KeyStats(0, 0, 3))]
        assert "b" in stats  # every row is kept, zero counts included
        assert stats.columns().cost.tolist() == [2.0, 0.0]

    def test_from_columns_copies_its_input(self):
        cost = np.array([2.0, 5.0])
        stats = IntervalStats.from_columns(0, ["a", "b"], [1, 1], cost, [0, 0])
        cost[0] = 99.0
        assert stats.cost("a") == 2.0

    def test_from_columns_merges_a_key_listed_twice(self):
        stats = IntervalStats.from_columns(0, ["a", "b", "a"], [1, 2, 3], [1, 1, 1], [0, 0, 5])
        assert list(stats.items()) == [("a", KeyStats(4, 2, 5)), ("b", KeyStats(2, 1, 0))]

    @pytest.mark.parametrize(
        "columns",
        [
            ([1], [1, 2], [1, 2]),  # not aligned with the keys
            ([1, 2], [-1, 2], [1, 2]),
            ([1, 2], [1, 2], [1, float("nan")]),
        ],
    )
    def test_from_columns_rejects_bad_columns(self, columns):
        with pytest.raises(ValueError):
            IntervalStats.from_columns(0, ["a", "b"], *columns)

    def test_record_rejects_negative(self):
        stats = IntervalStats(0)
        with pytest.raises(ValueError):
            stats.record("k", frequency=-1)
        with pytest.raises(ValueError):
            stats.record_bulk([("a", 1, 1, 1), ("b", 1, -1, 1)])
        with pytest.raises(ValueError):  # a NaN beside it must not hide the negative
            stats.record("k", frequency=float("nan"), cost=-1)
        assert "a" in stats and "b" not in stats and "k" not in stats

    def test_recording_leaves_served_columns_alone(self):
        stats = IntervalStats.from_frequencies(0, {"a": 1})
        served = stats.columns()
        stats.record("a", cost=5)
        stats.record("b", frequency=1, cost=1)
        assert list(served.keys) == ["a"] and served.cost.tolist() == [1.0]
        assert list(stats.columns().keys) == ["a", "b"]
        assert stats.columns().cost.tolist() == [6.0, 1.0]

    def test_record_accumulates(self):
        stats = IntervalStats(0)
        stats.record("k", frequency=1, cost=2, memory=3)
        stats.record("k", frequency=1, cost=2, memory=3)
        assert stats.frequency("k") == 2
        assert stats.cost("k") == 4
        assert stats.memory("k") == 6

    def test_totals(self):
        stats = IntervalStats.from_frequencies(0, {"a": 3, "b": 7})
        assert stats.total_frequency() == 10
        assert stats.total_cost() == 10
        assert stats.total_memory() == 10
        assert len(stats) == 2

    def test_totals_are_a_left_fold_in_key_order(self):
        # 1e16 absorbs every 1.0 added to it one at a time; np.sum adds
        # pairwise, sums some of the 1.0s first and ends higher.  The totals
        # must repeat the fold bit for bit.
        column = np.array(([1e16] + [1.0] * 15) * 64)
        assert np.sum(column) != sum(column.tolist())
        keys = list(range(len(column)))
        stats = IntervalStats.from_columns(0, keys, column, column, column)
        for total in (stats.total_frequency(), stats.total_cost(), stats.total_memory()):
            assert total.hex() == sum(column.tolist()).hex()
        zeros = IntervalStats.from_columns(0, [0, 1], [-0.0] * 2, [-0.0] * 2, [-0.0] * 2)
        assert zeros.total_memory().hex() == sum([-0.0, -0.0]).hex()
        assert IntervalStats(0).total_memory() == 0.0

    def test_recording_refolds_totals_that_were_read(self):
        totals = (
            IntervalStats.total_frequency,
            IntervalStats.total_cost,
            IntervalStats.total_memory,
        )
        stats = IntervalStats.from_frequencies(0, {"a": 1e16})
        assert [total(stats) for total in totals] == [1e16] * 3
        clone = stats.copy()
        stats.record("b", frequency=1.0, cost=1.0, memory=1.0)
        stats.record_bulk([("a", 2.0, 2.0, 2.0), ("c", 1.0, 1.0, 1.0)])
        # Left fold in key order: 1e16 + 2 + 1 + 1, one addition at a time.
        expected = ((1e16 + 2.0) + 1.0) + 1.0
        assert [total(stats) for total in totals] == [expected] * 3
        # The clone neither sees the records nor shares the refolded cache.
        assert [total(clone) for total in totals] == [1e16] * 3
        clone.record("d", frequency=4.0, cost=4.0, memory=4.0)
        assert [total(clone) for total in totals] == [1e16 + 4.0] * 3
        assert [total(stats) for total in totals] == [expected] * 3

    def test_unknown_key_is_zero(self):
        stats = IntervalStats(0)
        assert stats.cost("nope") == 0.0
        assert stats.get("nope") == KeyStats()

    def test_copy_is_independent(self):
        stats = IntervalStats.from_frequencies(0, {"a": 1})
        clone = stats.copy()
        clone.record("b", frequency=1)
        assert "b" not in stats


class TestStatisticsStore:
    def test_window_validation(self):
        with pytest.raises(ValueError):
            StatisticsStore(window=0)

    def test_latest_requires_push(self):
        with pytest.raises(LookupError):
            _ = StatisticsStore().latest

    def test_push_order_enforced(self):
        store = StatisticsStore(window=3)
        store.push(IntervalStats.from_frequencies(1, {"a": 1}))
        with pytest.raises(ValueError):
            store.push(IntervalStats.from_frequencies(1, {"a": 1}))

    def test_window_eviction(self):
        store = StatisticsStore(window=2)
        for interval in range(1, 5):
            store.push(IntervalStats.from_frequencies(interval, {"a": interval}))
        assert store.intervals == (3, 4)
        assert len(store) == 2

    def test_windowed_memory_sums_last_w(self):
        store = StatisticsStore(window=3)
        for interval in range(1, 4):
            store.push(IntervalStats.from_frequencies(interval, {"a": 10}))
        assert store.windowed_memory("a") == 30
        assert store.windowed_memory("a", window=1) == 10
        assert store.windowed_memory("a", window=2) == 20

    def test_windowed_memory_invalid_window(self):
        store = StatisticsStore(window=2)
        store.push(IntervalStats.from_frequencies(1, {"a": 1}))
        with pytest.raises(ValueError):
            store.windowed_memory("a", window=0)

    def test_cost_column_reflects_latest_only(self):
        store = StatisticsStore(window=2)
        store.push(IntervalStats.from_frequencies(1, {"a": 5}))
        store.push(IntervalStats.from_frequencies(2, {"a": 7, "b": 1}))
        columns = store.columns()
        assert dict(zip(columns.keys, columns.cost.tolist())) == {"a": 7.0, "b": 1.0}
        assert store.cost("a") == 7.0
        assert store.frequency("b") == 1.0

    def test_windowed_memory_of_every_key_in_the_window(self):
        store = StatisticsStore(window=2)
        store.push(IntervalStats.from_frequencies(1, {"a": 5, "b": 2}))
        store.push(IntervalStats.from_frequencies(2, {"a": 7}))
        held = {key: store.windowed_memory(key) for key in store.observed_keys()}
        assert held == {"a": 12.0, "b": 2.0}
        assert store.total_windowed_memory() == 14.0

    def test_observed_keys_union(self):
        store = StatisticsStore(window=2)
        store.push(IntervalStats.from_frequencies(1, {"a": 1}))
        store.push(IntervalStats.from_frequencies(2, {"b": 1, "a": 1}))
        assert store.observed_keys() == {"a", "b"}
        assert list(store.observed_keys()) == ["a", "b"]  # first appearance, oldest first

    @pytest.mark.parametrize("window", [1, 2])
    def test_columns_do_not_adopt_a_key_list_equal_only_by_numpy_broadcasting(self, window):
        """``[np.int64(2)] == [(2,)]`` (numpy compares a scalar with a tuple
        elementwise), but the two are different keys: the columns of
        ``{(2,): 1.0}`` keep their own key list and position index, and the
        window's memory column does not read ``np.int64(2)``'s state as
        ``(2,)``'s."""
        store = StatisticsStore(window=window)
        store.push(IntervalStats.from_frequencies(0, {np.int64(2): 5.0}))
        assert np.int64(2) in store.columns().index
        store.push(IntervalStats.from_frequencies(1, {(2,): 1.0}))
        columns = store.columns()
        assert (2,) in columns.index and np.int64(2) not in columns.index
        assert columns.keys == ((2,),)
        assert columns.memory.tolist() == [1.0]

    def test_copy_independent(self):
        store = StatisticsStore(window=2)
        store.push(IntervalStats.from_frequencies(1, {"a": 1}))
        clone = store.copy()
        clone.push(IntervalStats.from_frequencies(2, {"b": 1}))
        assert len(store) == 1 and len(clone) == 2

    @given(
        st.lists(
            st.dictionaries(
                st.integers(0, 20), st.floats(0.0, 100.0), min_size=1, max_size=10
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=50)
    def test_windowed_memory_never_exceeds_total(self, snapshots, window):
        store = StatisticsStore(window=window)
        for index, freqs in enumerate(snapshots):
            store.push(IntervalStats.from_frequencies(index, freqs))
        total = store.total_windowed_memory()
        per_key = sum(store.windowed_memory(key) for key in store.observed_keys())
        assert per_key == pytest.approx(total)
