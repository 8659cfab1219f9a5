"""Tests for the universal hash and the consistent-hash ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import ConsistentHashRing, UniversalHash, fnv1a_64, stable_hash

#: ``(key, seed, stable_hash(key, seed))`` that must never move: the golden
#: figures and the benchmark route ``str`` / ``int`` keys, so the encodings of
#: ``str``, ``bytes`` and ``int`` keys and of tuples of them are fixed.
PINNED_DIGESTS = [
    ('alpha', 0, 8596495612706370024),
    ('', 3, 2581769810725055441),
    ('wörd', 0, 1703711906832007733),
    (b'\x00\xffraw', 1, 14429635929523029035),
    (b'', 0, 17665956581633026203),
    (0, 0, 2030052576842629094),
    (7, 7, 1417595975858790986),
    (255, 0, 11317362635519801073),
    (256, 11, 14427791682108588229),
    (-1, 0, 1411504392469254032),
    (-129, 2, 12721120710891408827),
    (9223372036854775813, 0, 16271012318793965254),
    (-1180591620717411303424, 5, 15811056403946200353),
    (('a', 1), 0, 15887581023009670586),
    (('vnode', 3, 17), 0, 7942995795760175604),
    (((1, 'x'), b'y', -4), 9, 3632903655353807207),
]


class TestStableHash:
    def test_deterministic_across_instances(self):
        assert stable_hash("alpha", seed=3) == stable_hash("alpha", seed=3)

    def test_seed_changes_hash(self):
        assert stable_hash("alpha", seed=1) != stable_hash("alpha", seed=2)

    def test_distinct_types_do_not_collide_trivially(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) == stable_hash(1)  # one dict key, one hash

    @pytest.mark.parametrize("key, seed, digest", PINNED_DIGESTS)
    def test_digest_is_pinned(self, key, seed, digest):
        assert stable_hash(key, seed) == digest

    def test_tuple_keys_supported(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))
        assert stable_hash(("a", 1)) != stable_hash(("a", 2))

    def test_fnv_known_property(self):
        # Same bytes, same seed -> same value; empty input is the offset basis mix.
        assert fnv1a_64(b"abc") == fnv1a_64(b"abc")
        assert fnv1a_64(b"") != fnv1a_64(b"a")

    @given(st.one_of(st.integers(), st.text(), st.floats(allow_nan=False), st.booleans()))
    @settings(max_examples=100)
    def test_hash_is_stable_for_any_key(self, key):
        assert stable_hash(key) == stable_hash(key)


class TestUniversalHash:
    def test_range(self):
        hash_fn = UniversalHash(7, seed=1)
        for key in range(1000):
            assert 0 <= hash_fn(key) < 7

    def test_invalid_num_tasks(self):
        with pytest.raises(ValueError):
            UniversalHash(0)

    def test_equality(self):
        a = UniversalHash(5, seed=2)
        b = UniversalHash(5, seed=2)
        assert a == b and hash(a) == hash(b)
        assert a != UniversalHash(9, seed=2)

    def test_reasonable_balance_over_many_keys(self):
        hash_fn = UniversalHash(10, seed=0)
        counts = [0] * 10
        for key in range(20_000):
            counts[hash_fn(key)] += 1
        assert max(counts) / min(counts) < 1.2

    def test_candidates_distinct(self):
        hash_fn = UniversalHash(10, seed=0)
        for key in range(100):
            candidates = hash_fn.candidates(key, 2)
            assert len(candidates) == 2
            assert len(set(candidates)) == 2

    def test_candidates_more_than_tasks(self):
        hash_fn = UniversalHash(2, seed=0)
        assert sorted(hash_fn.candidates("x", 5)) == [0, 1]

    def test_candidates_invalid(self):
        with pytest.raises(ValueError):
            UniversalHash(3).candidates("x", 0)

    @given(st.integers(min_value=1, max_value=64), st.integers())
    @settings(max_examples=100)
    def test_always_in_range(self, num_tasks, key):
        assert 0 <= UniversalHash(num_tasks)(key) < num_tasks

    def test_assign_array_reuses_the_same_list(self):
        hash_fn = UniversalHash(10, seed=3)
        keys = list(range(50))
        first = hash_fn.assign_array(keys)
        assert hash_fn.assign_array(keys) is first
        assert hash_fn.assign_array(list(range(50))) is first  # an equal list
        assert first.tolist() == [hash_fn(key) for key in keys]

    @pytest.mark.parametrize(
        "first, second",
        [
            ([1, 2], [True, 2]),
            (list(range(20)), [np.int64(key) for key in range(20)]),
            ([0, 1, 2.0, 3], [0, 1, 2, 3]),
            ([0.0, 1], [-0.0, 1]),
            ([(1,), "a"], [(True,), "a"]),
        ],
    )
    def test_assign_array_reuses_an_equal_list_of_other_classes(self, first, second):
        """Equal keys hash alike, so an equal key list whose keys differ in
        class is answered from the kept array."""
        hash_fn = UniversalHash(10, seed=3)
        kept = hash_fn.assign_array(first)
        assert first == second
        assert hash_fn.assign_array(second) is kept
        assert kept.tolist() == [hash_fn(key) for key in second]

    @pytest.mark.parametrize("scalar", [np.int64(k) for k in range(6)])
    def test_assign_array_rehashes_a_list_equal_only_by_numpy_broadcasting(self, scalar):
        """``[np.int64(k)] == [(k,)]`` (numpy compares elementwise), but the
        two are different keys: the second list hashes by its own keys."""
        hash_fn = UniversalHash(10, seed=3)
        first, second = [scalar, "a"], [(int(scalar),), "a"]
        hash_fn.assign_array(first)
        assert first == second
        assert hash_fn.assign_array(second).tolist() == [hash_fn(key) for key in second]


class TestConsistentHashRing:
    def test_routes_within_tasks(self):
        ring = ConsistentHashRing(range(4), replicas=32)
        for key in range(500):
            assert ring(key) in range(4)

    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])

    def test_duplicate_task_rejected(self):
        ring = ConsistentHashRing([0, 1])
        with pytest.raises(ValueError):
            ring.add_task(1)

    def test_remove_unknown_task(self):
        ring = ConsistentHashRing([0, 1])
        with pytest.raises(KeyError):
            ring.remove_task(7)

    def test_adding_task_moves_limited_keys(self):
        ring = ConsistentHashRing(range(5), replicas=64, seed=1)
        before = {key: ring(key) for key in range(5_000)}
        ring.add_task(5)
        after = {key: ring(key) for key in range(5_000)}
        moved = sum(1 for key in before if before[key] != after[key])
        # Consistent hashing should move roughly 1/6 of the keys, never most.
        assert moved < len(before) * 0.4
        # Every key that moved must have moved to the new task.
        assert all(after[key] == 5 for key in before if before[key] != after[key])

    def test_remove_task_restores_previous_owners(self):
        ring = ConsistentHashRing(range(5), replicas=64, seed=1)
        before = {key: ring(key) for key in range(2_000)}
        ring.add_task(5)
        ring.remove_task(5)
        after = {key: ring(key) for key in range(2_000)}
        assert before == after

    def test_reasonable_balance(self):
        ring = ConsistentHashRing(range(8), replicas=128, seed=3)
        counts = [0] * 8
        for key in range(40_000):
            counts[ring(key)] += 1
        assert max(counts) / min(counts) < 2.0
