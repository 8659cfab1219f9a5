"""The bucket contract: ``KeyCounts`` is a read-only ``Mapping`` over two tuples."""

import pickle
from collections import abc

import pytest

from repro.baselines.base import KeyCounts
from repro.core.strategy import get_strategy

KEYS = ("a", 2, b"x")
COUNTS = (1.5, 3, 0.25)


@pytest.fixture
def bucket():
    return KeyCounts(KEYS, COUNTS)


def test_is_a_mapping_in_key_order(bucket):
    assert isinstance(bucket, abc.Mapping)
    assert list(bucket) == list(KEYS)
    assert len(bucket) == 3
    assert list(bucket.keys()) == list(KEYS)
    assert len(KeyCounts((), ())) == 0 and list(KeyCounts((), ())) == []


def test_values_and_items_are_reiterable_views(bucket):
    values, items = bucket.values(), bucket.items()
    assert isinstance(values, abc.ValuesView) and isinstance(items, abc.ItemsView)
    for _ in range(2):
        assert list(values) == list(COUNTS)
        assert list(items) == list(zip(KEYS, COUNTS))
    assert len(values) == len(items) == 3
    assert ("a", 1.5) in items and ("a", 2.0) not in items
    assert 0.25 in values
    assert sum(values) == sum(COUNTS)


def test_lookup(bucket):
    assert bucket["a"] == 1.5 and bucket[2] == 3
    assert bucket.get(b"x") == 0.25
    assert bucket.get("missing") is None and bucket.get("missing", 0.0) == 0.0
    assert "a" in bucket and "missing" not in bucket
    with pytest.raises(KeyError):
        bucket["missing"]


def test_equals_a_plain_dict_both_ways(bucket):
    plain = dict(zip(KEYS, COUNTS))
    assert bucket == plain and plain == bucket
    assert bucket == KeyCounts(KEYS, COUNTS)
    assert bucket != {**plain, "a": 9.0} and {**plain, "a": 9.0} != bucket
    assert bucket != {"a": 1.5}


def test_is_read_only(bucket):
    assert not hasattr(bucket, "__setitem__")
    assert not hasattr(bucket, "__delitem__")
    with pytest.raises(TypeError):
        bucket["a"] = 2.0
    with pytest.raises(AttributeError):
        bucket.extra = 1
    copy = dict(bucket)
    copy["a"] = 2.0
    assert bucket["a"] == 1.5


def test_pickle_round_trip(bucket):
    bucket["a"]  # builds the lookup index, which is not part of the state
    clone = pickle.loads(pickle.dumps(bucket))
    assert type(clone) is KeyCounts
    assert list(clone.items()) == list(bucket.items())


def test_memoising_strategies_route_into_key_counts():
    partitioner = get_strategy("mixed").build(4, seed=1)
    routed = partitioner.route_snapshot({key: 1.0 for key in range(20)})
    assert list(routed) == [0, 1, 2, 3]
    assert all(type(bucket) is KeyCounts for bucket in routed.values())
    assert sum(len(bucket) for bucket in routed.values()) == 20
