"""The ``Snapshot`` contract: a read-only ``{key: count}`` over columns.

Equal to the dict it was built from (both ways round), iterated in its
order, Python floats out, immutable, picklable; the live sub-snapshot and the
key-list identity are its own.  The last test pins what it is for: the
router and the statistics read its columns and never walk it key by key.
"""

import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.snapshot import KeyCounts, Snapshot, same_key_list
from repro.core.statistics import IntervalStats
from repro.core.strategy import get_strategy

_KEYS = st.one_of(st.integers(-5, 40), st.sampled_from(["a", "b", "c"]), st.tuples(st.integers(0, 3)))
_COUNTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=False, width=64),
    st.integers(-3, 1000),
)


def _bits(value):
    return struct.pack("<d", value)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_KEYS, _COUNTS, max_size=20))
def test_a_snapshot_is_the_mapping_it_was_built_from(frequencies):
    snapshot = Snapshot.of(frequencies)
    assert list(snapshot) == list(frequencies)
    assert list(snapshot.keys()) == list(frequencies.keys())
    assert snapshot.key_tuple == tuple(frequencies)
    assert len(snapshot) == len(frequencies)
    values = list(snapshot.values())
    assert all(type(value) is float for value in values)
    assert [_bits(value) for value in values] == [_bits(float(v)) for v in frequencies.values()]
    assert [(key, _bits(value)) for key, value in snapshot.items()] == [
        (key, _bits(float(value))) for key, value in frequencies.items()
    ]
    assert snapshot.counts.tobytes() == np.array(values, dtype=np.float64).tobytes()
    for key, value in frequencies.items():
        assert key in snapshot
        assert _bits(snapshot[key]) == _bits(float(value))
    if not any(value != value for value in frequencies.values()):  # NaN is never equal
        assert snapshot == frequencies and frequencies == snapshot
        assert snapshot == Snapshot.of(dict(frequencies))


def test_equality_is_the_mapping_equality():
    snapshot = Snapshot.of({"a": 1.0, "b": 2.0})
    assert snapshot == {"b": 2, "a": 1} and {"b": 2.0, "a": 1.0} == snapshot
    assert snapshot != {"a": 1.0} and {"a": 1.0, "b": 3.0} != snapshot
    assert snapshot != [("a", 1.0), ("b", 2.0)]
    assert Snapshot.of({}) == {} and "a" not in Snapshot.of({})
    with pytest.raises(KeyError):
        Snapshot.of({})["a"]


def test_a_snapshot_cannot_be_written():
    source = np.array([1.0, 2.0])
    snapshot = Snapshot(["a", "b"], source)
    source[0] = 99.0  # a writeable column is copied, not adopted
    assert snapshot["a"] == 1.0
    with pytest.raises(TypeError):
        snapshot["a"] = 5.0
    with pytest.raises(TypeError):
        del snapshot["a"]
    with pytest.raises(ValueError):
        snapshot.counts[0] = 5.0
    with pytest.raises(AttributeError):
        snapshot.counts = np.zeros(2)
    with pytest.raises(AttributeError):
        snapshot.extra = 1
    assert type(snapshot.key_tuple) is tuple
    with pytest.raises(TypeError):
        hash(snapshot)
    with pytest.raises(ValueError):
        Snapshot(["a", "b"], [1.0])


def test_a_read_only_column_is_adopted_as_it_is():
    column = np.array([1.0, 2.0])
    column.flags.writeable = False
    keys = ("a", "b")
    snapshot = Snapshot(keys, column)
    assert snapshot.counts is column and snapshot.key_tuple is keys
    assert Snapshot.of(snapshot) is snapshot


def test_a_snapshot_is_a_key_counts_bucket_over_a_column():
    snapshot = Snapshot.of({"a": 1.5, "b": 2.0})
    bucket = KeyCounts(("a", "b"), [1.5, 2.0])
    assert isinstance(snapshot, KeyCounts) and snapshot == bucket and bucket == snapshot
    assert repr(snapshot) == "Snapshot({'a': 1.5, 'b': 2.0})"
    assert repr(bucket) == "KeyCounts({'a': 1.5, 'b': 2.0})"


def test_pickle_round_trip():
    snapshot = Snapshot.of({"a": 1.5, (2,): 0.0, 7: -0.0, "z": float("nan")})
    clone = pickle.loads(pickle.dumps(snapshot))
    assert type(clone) is Snapshot
    assert clone.key_tuple == snapshot.key_tuple
    assert clone.counts.tobytes() == snapshot.counts.tobytes()
    assert not clone.counts.flags.writeable
    assert clone.live() == {"a": 1.5}


def test_live_drops_zero_negative_and_nan_counts():
    snapshot = Snapshot.of({"a": 1.0, "b": 0.0, "c": -2.0, "d": float("nan"), "e": 3.0})
    live = snapshot.live()
    assert live == {"a": 1.0, "e": 3.0} and list(live) == ["a", "e"]
    assert snapshot.live() is live and live.live() is live
    assert not live.counts.flags.writeable
    every = Snapshot.of({"a": 1.0})
    assert every.live() is every


@pytest.mark.parametrize(
    "first, second, same",
    [
        ([1, 2, 3], [1, 2, 3], True),
        ([0.0, 5, "a"], [-0.0, 5, "a"], True),
        ([(0,), 1], [(False,), True], True),
        ([1, 2], [2, 1], False),
        ([1, 2], [1, 2, 3], False),
        ([np.int64(2), 5], [(2,), 5], False),
        ([np.int64(2)], [(2,)], False),
    ],
)
def test_key_list_identity(first, second, same):
    t1, t2 = tuple(first), tuple(second)
    for _ in range(2):  # the second round reads the kept fingerprints
        assert same_key_list(t1, t2) is same and same_key_list(t2, t1) is same
        assert same_key_list(first, second) is same
    assert same_key_list(t1, t1) and same_key_list(t1, tuple(first))
    assert not same_key_list(first, t1)  # a list is never a tuple's key list


class _Unwalkable(Snapshot):
    """A snapshot that refuses to be walked key by key."""

    __slots__ = ()

    def __getitem__(self, key):
        raise AssertionError("looked up key by key")

    def __iter__(self):
        raise AssertionError("iterated key by key")


def test_router_and_statistics_read_the_columns_only():
    """``route_snapshot`` (plan built, kept, patched after a rebalance) and
    ``IntervalStats.from_frequencies`` never iterate or index a snapshot: a
    reused snapshot costs them no per-key Python work."""
    keys = tuple(range(300))
    warm = get_strategy("mixed").build(4, theta_max=0.05, seed=7)
    twin = get_strategy("mixed").build(4, theta_max=0.05, seed=7)
    for interval in range(4):
        counts = [1.0 + (key % 7) for key in keys]
        counts[(37 * interval) % len(keys)] = 3_000.0
        counts[5] = 0.0  # a dead key: the live sub-snapshot is built from columns too
        spy = _Unwalkable(keys, counts)
        reference = dict(zip(keys, counts))
        routed = warm.route_snapshot(spy)
        assert routed == twin.route_snapshot(reference)
        stats = IntervalStats.from_frequencies(interval, spy, cost_per_tuple=0.5)
        expected = IntervalStats.from_frequencies(interval, reference, cost_per_tuple=0.5)
        assert stats.items() == expected.items()
        assert (warm.on_interval_end(stats) is None) == (twin.on_interval_end(expected) is None)
    assert warm.history and warm._snapshot_plan.keys == keys[:5] + keys[6:]
