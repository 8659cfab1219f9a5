"""Oracle parity: the columnar ``IntervalStats`` against the dict-of-``KeyStats`` one.

``reference_statistics.py`` holds the snapshot this repo shipped before the
per-key statistics became three float64 columns.  The rewrite changes what an
interval costs to describe, not what it says, so after any sequence of
constructions and recordings both must list the same keys in the same order
with bit-equal values — through ``items()``, ``columns()``, the per-key
accessors and the totals — and raise where the other raises; and a
``StatisticsStore`` fed either kind must answer the windowed queries alike.
"""

from __future__ import annotations

import struct
from typing import Hashable, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_statistics import ReferenceIntervalStats
from repro.core.statistics import IntervalStats, KeyStats, StatisticsStore

Key = Hashable

#: Zeros, subnormals, values whose sums round, ints (a ``Counter``'s counts).
_VALUES = st.sampled_from(
    [0.0, 0.0, 5e-324, 1e-310, 0.1, 0.3, 1.0, 1.0, 2.5, 7.0, 123.456, 1e6, 1e15, 0, 1, 3]
)
#: The same plus a value ``record`` must reject.
_RECORDED = st.one_of(_VALUES, _VALUES, _VALUES, st.just(-1.0))
_PER_TUPLE = st.sampled_from([1.0, 1.0, 0.5, 0.1, 2.5, 0.0, 3, 1e-3])


def _universe(kind: str) -> List[Key]:
    if kind == "str":
        return [f"k{i}" for i in range(12)]
    return [i * 7 - 5 for i in range(12)]  # ints, some negative


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def _stat_bits(stat: KeyStats):
    return _bits(stat.frequency), _bits(stat.cost), _bits(stat.memory)


def _assert_same_columns(actual, expected) -> None:
    assert list(actual.keys) == list(expected.keys)
    assert actual.cost.tobytes() == expected.cost.tobytes()
    assert actual.memory.tobytes() == expected.memory.tobytes()
    assert not actual.cost.flags.writeable and not actual.memory.flags.writeable
    assert list(actual.index.items()) == list(expected.index.items())


def _assert_same_snapshot(actual, expected, probes) -> None:
    assert actual.interval == expected.interval
    assert len(actual) == len(expected)
    assert list(actual.keys()) == list(expected.keys())
    actual_items, expected_items = list(actual.items()), list(expected.items())
    assert [key for key, _ in actual_items] == [key for key, _ in expected_items]
    assert [_stat_bits(stat) for _, stat in actual_items] == [
        _stat_bits(stat) for _, stat in expected_items
    ]
    _assert_same_columns(actual.columns(), expected.columns())
    assert _bits(actual.total_frequency()) == _bits(expected.total_frequency())
    assert _bits(actual.total_cost()) == _bits(expected.total_cost())
    assert _bits(actual.total_memory()) == _bits(expected.total_memory())
    for key in probes:
        assert (key in actual) == (key in expected)
        assert _stat_bits(actual.get(key)) == _stat_bits(expected.get(key))
        assert _bits(actual.frequency(key)) == _bits(expected.frequency(key))
        assert _bits(actual.cost(key)) == _bits(expected.cost(key))
        assert _bits(actual.memory(key)) == _bits(expected.memory(key))


def _both(actual_call, expected_call):
    """Run the same step on both; ``(results, raised)`` — the columnar one
    must raise ``ValueError`` exactly when the reference does."""
    try:
        expected = expected_call()
    except ValueError:
        with pytest.raises(ValueError):
            actual_call()
        return None, True
    return (actual_call(), expected), False


@st.composite
def _entries(draw, universe, values=_RECORDED, max_size=8):
    return draw(
        st.lists(
            st.tuples(st.sampled_from(universe), values, values, values), max_size=max_size
        )
    )


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["str", "int"]))
def test_any_sequence_of_constructions_and_recordings_matches_reference(data, kind):
    universe = _universe(kind)
    probes = universe + [("ghost",) if kind == "str" else 10**6]
    interval = data.draw(st.integers(min_value=0, max_value=9))

    start = data.draw(st.sampled_from(["empty", "from_frequencies", "from_columns", "mapping"]))
    if start == "empty":
        actual, expected = IntervalStats(interval), ReferenceIntervalStats(interval)
    elif start == "from_frequencies":
        frequencies = data.draw(st.dictionaries(st.sampled_from(universe), _VALUES))
        per_tuple = dict(
            cost_per_tuple=data.draw(_PER_TUPLE), memory_per_tuple=data.draw(_PER_TUPLE)
        )
        actual = IntervalStats.from_frequencies(interval, frequencies, **per_tuple)
        expected = ReferenceIntervalStats.from_frequencies(interval, frequencies, **per_tuple)
    elif start == "from_columns":
        # The reference has no from_columns: recording the rows one by one
        # into an empty snapshot is what it stands for (duplicates included).
        rows = data.draw(_entries(universe, max_size=12))
        keys = [row[0] for row in rows]
        columns = [[row[i] for row in rows] for i in (1, 2, 3)]

        def expected_from_columns():
            expected = ReferenceIntervalStats(interval)
            expected.record_bulk(rows)
            return expected

        built, raised = _both(
            lambda: IntervalStats.from_columns(interval, keys, *columns), expected_from_columns
        )
        if raised:
            return
        actual, expected = built
    else:
        mapping = {
            key: KeyStats(data.draw(_VALUES), data.draw(_VALUES), data.draw(_VALUES))
            for key in data.draw(st.lists(st.sampled_from(universe), unique=True))
        }
        actual = IntervalStats(interval, mapping)
        expected = ReferenceIntervalStats(interval, mapping)
    _assert_same_snapshot(actual, expected, probes)

    #: (served columns or copied-from snapshot, what it must still say at the end)
    frozen = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
        step = data.draw(st.sampled_from(["record", "record", "record_bulk", "copy", "columns"]))
        if step == "record":
            key = data.draw(st.sampled_from(universe))
            fields = {name: data.draw(_RECORDED) for name in ("frequency", "cost", "memory")}
            _both(lambda: actual.record(key, **fields), lambda: expected.record(key, **fields))
        elif step == "record_bulk":
            rows = data.draw(_entries(universe))
            # A rejected entry leaves the ones before it recorded, in both.
            _both(lambda: actual.record_bulk(iter(rows)), lambda: expected.record_bulk(iter(rows)))
        elif step == "copy":
            frozen.append((actual, expected))
            actual, expected = actual.copy(), expected.copy()
        else:
            frozen.append((actual.columns(), expected.columns()))
        # Comparing serves columns(), after which a recording writes to a
        # copy: skip it at times so runs of recordings grow the rows in place.
        if data.draw(st.booleans()):
            _assert_same_snapshot(actual, expected, probes)
    _assert_same_snapshot(actual, expected, probes)

    # Recording into a copy, or after columns() was served, changed neither
    # the original nor the served columns.
    for was_actual, was_expected in frozen:
        if isinstance(was_actual, IntervalStats):
            _assert_same_snapshot(was_actual, was_expected, probes)
        else:
            _assert_same_columns(was_actual, was_expected)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["str", "int"]), st.integers(min_value=1, max_value=3))
def test_store_answers_windowed_queries_alike(data, kind, window):
    universe = _universe(kind)
    actual_store = StatisticsStore(window=window)
    expected_store = StatisticsStore(window=window)
    for interval in range(data.draw(st.integers(min_value=1, max_value=5))):
        # Keys enter and leave: every interval observes its own subset.
        rows = [
            (key, data.draw(_VALUES), data.draw(_VALUES), data.draw(_VALUES))
            for key in data.draw(st.lists(st.sampled_from(universe), unique=True))
        ]
        actual_store.push(
            IntervalStats.from_columns(
                interval, [row[0] for row in rows], *([row[i] for row in rows] for i in (1, 2, 3))
            )
        )
        expected = ReferenceIntervalStats(interval)
        expected.record_bulk(rows)
        expected_store.push(expected)

        for asked in (None, 1, 2, 3):
            _assert_same_columns(actual_store.columns(asked), expected_store.columns(asked))
            assert _bits(actual_store.total_windowed_memory(asked)) == _bits(
                expected_store.total_windowed_memory(asked)
            )
            for key in universe:
                assert _bits(actual_store.windowed_memory(key, asked)) == _bits(
                    expected_store.windowed_memory(key, asked)
                )
        assert list(actual_store.observed_keys()) == list(expected_store.observed_keys())
