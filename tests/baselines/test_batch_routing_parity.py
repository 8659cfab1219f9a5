"""Property tests: the batch routing API agrees with scalar routing.

For every partitioner strategy, ``assign_batch``/``route_snapshot`` must
produce exactly the destinations the scalar ``route``/``route_bulk`` calls
would have produced — including across interval boundaries, where rebalancing
strategies install a new assignment and the key→task memo is patched for the
re-routed keys (and dropped on a resize).

Each property drives *twin* instances (identical construction, identical
inputs): one through the scalar path, one through the batch path.  This keeps
the comparison valid for stateful strategies (PKG's load estimates, shuffle's
round-robin pointer) whose routing decisions depend on their own history.
"""

import operator
import struct
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HashPartitioner, PartialKeyGrouping, ShufflePartitioner, base
from repro.core import hashing
from repro.core.hashing import ConsistentHashRing, UniversalHash, stable_hash
from repro.core.snapshot import Snapshot
from repro.core.statistics import IntervalStats
from repro.core.strategy import get_strategy, list_strategies

NUM_TASKS = 4

#: Every rebalancing strategy in the registry (a newly registered one is covered).
REBALANCING = tuple(spec.name for spec in list_strategies() if spec.rebalancing)

#: strategy name -> zero-argument factory producing a fresh partitioner.
FACTORIES = {
    "hash": lambda: HashPartitioner(NUM_TASKS, seed=7),
    "hash-consistent": lambda: HashPartitioner(NUM_TASKS, seed=7, consistent=True),
    "shuffle": lambda: ShufflePartitioner(NUM_TASKS),
    "pkg": lambda: PartialKeyGrouping(NUM_TASKS, seed=7),
    **{
        name: lambda name=name: get_strategy(name).build(NUM_TASKS, theta_max=0.05, seed=7)
        for name in REBALANCING
    },
}

keys_strategy = st.lists(
    st.one_of(st.integers(0, 30), st.sampled_from(["alpha", "beta", "gamma", "delta"])),
    min_size=1,
    max_size=25,
)

snapshots_strategy = st.lists(
    st.dictionaries(
        st.integers(0, 20),
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        min_size=1,
        max_size=15,
    ),
    min_size=1,
    max_size=3,
)


def scalar_route_snapshot(partitioner, snapshot):
    """The pre-batch-API inner loop of the simulator (reference semantics)."""
    per_task = {task: {} for task in range(partitioner.num_tasks)}
    for key, count in snapshot.items():
        if not count > 0:  # non-positive and NaN counts carry no tuples
            continue
        for task, share in partitioner.route_bulk(key, count).items():
            bucket = per_task.setdefault(task, {})
            bucket[key] = bucket.get(key, 0.0) + share
    return per_task


def _bits(count):
    return struct.pack("<d", count)


def assert_routed_exactly(routed, reference, snapshot):
    """``routed`` is ``reference`` exactly: the same tasks in the same order,
    and per task equal keys in the same order, each holding the snapshot's
    count as a Python float, bit for bit."""
    assert list(routed) == list(reference)
    for task, bucket in reference.items():
        got = routed[task]
        assert list(got) == list(bucket), task
        assert list(got.values()) == list(bucket.values()), task
        assert all(
            type(count) is float and _bits(count) == _bits(float(snapshot[key]))
            for key, count in got.items()
        ), task


#: How a snapshot reaches ``route_snapshot``: the dict itself, a ``Snapshot``
#: built from it (a fresh key tuple each time), or a ``Snapshot`` over a key
#: tuple kept while the keys are the same objects (as a columnar generator
#: shares it).
SNAPSHOT_INPUTS = ("dict", "Snapshot", "shared")


class _SnapshotInput:
    """``snapshot`` (a dict) in the form ``kind`` names."""

    def __init__(self, kind):
        self.kind = kind
        self.keys = None

    def __call__(self, snapshot):
        if self.kind == "dict":
            return snapshot
        if self.kind == "Snapshot":
            return Snapshot.of(snapshot)
        keys = tuple(snapshot)
        if self.keys is None or len(keys) != len(self.keys) or not all(
            map(operator.is_, keys, self.keys)
        ):
            self.keys = keys
        return Snapshot(self.keys, list(snapshot.values()))


def assert_routing_equal(scalar, batch, strategy, snapshot):
    """Memoising strategies route exactly like the reference; key-splitting
    ones (PKG, shuffle) to within float rounding of their shares."""
    if FACTORIES[strategy]().cache_routes:
        assert_routed_exactly(batch, scalar, snapshot)
        return
    assert set(scalar) == set(batch), strategy
    for task in scalar:
        assert set(scalar[task]) == set(batch[task]), (strategy, task)
        for key, count in scalar[task].items():
            assert batch[task][key] == pytest.approx(count), (strategy, task, key)


@pytest.mark.parametrize("strategy", sorted(FACTORIES))
@given(keys=keys_strategy, more=keys_strategy)
@settings(max_examples=20, deadline=None)
def test_assign_batch_matches_scalar_route(strategy, keys, more):
    """Two consecutive batches: the second starts from the state the first
    left (PKG's load estimates and split counts must match the scalar twin's)."""
    scalar_part = FACTORIES[strategy]()
    batch_part = FACTORIES[strategy]()
    for batch_keys in (keys, more):
        scalar = [scalar_part.route(key) for key in batch_keys]
        batch = batch_part.assign_batch(batch_keys)
        assert batch == scalar
        if isinstance(batch_part, PartialKeyGrouping):
            assert batch_part.split_counts == scalar_part.split_counts
            assert batch_part._loads == scalar_part._loads


@pytest.mark.parametrize("strategy", sorted(FACTORIES))
@given(snapshots=snapshots_strategy)
@settings(max_examples=15, deadline=None)
def test_route_snapshot_matches_scalar_loop(strategy, snapshots):
    """Snapshot routing parity, including across rebalancing intervals.

    Between snapshots both twins observe the interval statistics, so
    rebalancing strategies (readj, dkg, mixed, …) install new assignments —
    the batch twin's memoised routes must follow and re-agree with the scalar
    twin on the next snapshot.
    """
    scalar_part = FACTORIES[strategy]()
    batch_part = FACTORIES[strategy]()
    for interval, snapshot in enumerate(snapshots):
        scalar = scalar_route_snapshot(scalar_part, snapshot)
        batch = batch_part.route_snapshot(snapshot)
        assert_routing_equal(scalar, batch, strategy, snapshot)
        stats = IntervalStats.from_frequencies(interval, snapshot)
        scalar_part.on_interval_end(stats)
        batch_part.on_interval_end(stats.copy())


def test_mixed_type_keys_do_not_collide_in_route_memo():
    """1, 1.0 and True (and 0.0 / -0.0) are one dict key and hash alike: they
    share one memo entry and route alike."""
    keys = [1, 1.0, True, 0.0, -0.0, "1"]
    part = FACTORIES["hash"]()
    batch = part.assign_batch(keys)
    fresh = FACTORIES["hash"]()
    assert batch == [fresh.route(key) for key in keys]
    assert batch[0] == batch[1] == batch[2] and batch[3] == batch[4]


def test_mixed_type_keys_do_not_collide_in_pkg_candidates():
    pkg = FACTORIES["pkg"]()
    pkg.candidate_tasks(2)  # prime the cache with the int key
    fresh = FACTORIES["pkg"]()
    assert pkg.candidate_tasks(2.0) == fresh.candidate_tasks(2.0) == pkg.candidate_tasks(2)
    assert pkg.candidate_tasks(True) == fresh.candidate_tasks(True) == fresh.candidate_tasks(1)


def test_route_cache_invalidated_on_scale_out():
    partitioner = HashPartitioner(NUM_TASKS, seed=1)
    keys = list(range(50))
    before = partitioner.assign_batch(keys)
    partitioner.scale_out(NUM_TASKS * 3)
    after = partitioner.assign_batch(keys)
    fresh = HashPartitioner(NUM_TASKS * 3, seed=1)
    assert after == [fresh.route(key) for key in keys]
    assert any(a != b for a, b in zip(before, after))


def test_route_cache_follows_rebalance():
    """A skewed snapshot forces a rebalance; memoised routes must follow F'."""
    partitioner = get_strategy("mixed").build(NUM_TASKS, theta_max=0.01, seed=3)
    snapshot = {key: 1.0 for key in range(40)}
    snapshot[0] = 10_000.0
    partitioner.route_snapshot(snapshot)
    result = partitioner.on_interval_end(IntervalStats.from_frequencies(0, snapshot))
    assert result is not None, "the skewed snapshot should trigger a rebalance"
    routed = partitioner.route_snapshot(snapshot)
    assignment = partitioner.assignment
    for task, freqs in routed.items():
        for key in freqs:
            assert assignment(key) == task


# -- memo patching: a rebalance rewrites only the re-routed keys ----------------------

#: Probe batches: all-int (one C-level pass over the int memo) and mixed classes
#: (per-key memo choice, some never memoised), each holding keys the snapshots
#: below can and cannot contain.
INT_PROBE = list(range(0, 40))
MIXED_PROBE = [0, 3, 19, 33, "alpha", "beta", 2.5, (1, 2), True]

operations_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("interval"),
            st.dictionaries(
                st.one_of(st.integers(0, 25), st.sampled_from(["alpha", "beta"])),
                st.sampled_from([1.0, 2.0, 5.0, 40.0, 900.0]),
                min_size=1,
                max_size=20,
            ),
        ),
        st.tuples(st.just("scale_out"), st.integers(1, 2)),
        st.tuples(st.just("scale_in"), st.integers(1, 2)),
    ),
    min_size=1,
    max_size=6,
)


def _apply(partitioner, interval, operation):
    kind, argument = operation
    if kind == "interval":
        partitioner.on_interval_end(IntervalStats.from_frequencies(interval, argument))
    elif kind == "scale_out":
        partitioner.scale_out(partitioner.num_tasks + argument)
    elif partitioner.num_tasks - argument >= 1:
        partitioner.scale_in(partitioner.num_tasks - argument)


def _assert_memo_agrees_with_cold(warm, cold):
    """Every batch entry point of ``warm`` (memo kept across the operations)
    answers like ``cold`` (same operations, never queried: an empty memo)."""
    for probe in (INT_PROBE, MIXED_PROBE):
        expected = [cold.route(key) for key in probe]
        assert warm.assign_batch(probe) == expected
        assert warm.assign_batch_array(probe).tolist() == expected
        assert cold.assign_batch(probe) == expected
    snapshot = {key: 1.0 for key in INT_PROBE + MIXED_PROBE[4:8]}
    assert warm.route_snapshot(snapshot) == cold.route_snapshot(snapshot)


@pytest.mark.parametrize("strategy", REBALANCING)
@given(operations=operations_strategy)
@settings(max_examples=40, deadline=None)
def test_patched_memo_matches_cold_partitioner(strategy, operations):
    """After any sequence of interval ends and resizes, the patched memo routes
    observed and unobserved keys exactly like a freshly built partitioner that
    went through the same sequence cold."""
    warm = FACTORIES[strategy]()
    _assert_memo_agrees_with_cold(warm, FACTORIES[strategy]())
    for count in range(1, len(operations) + 1):
        cold = FACTORIES[strategy]()
        for interval, operation in enumerate(operations[:count]):
            _apply(cold, interval, operation)
        _apply(warm, count - 1, operations[count - 1])
        _assert_memo_agrees_with_cold(warm, cold)


def test_memo_follows_an_entry_mintable_drops_while_unobserved():
    """MinTable drops the table entries of keys the window did not see; a
    memoised route of such a key must fall back to the hash with the table."""
    partitioner = get_strategy("mintable").build(NUM_TASKS, theta_max=0.01, seed=3)
    first = {key: 1.0 for key in range(40)}
    first[0] = first[1] = first[2] = 500.0
    partitioner.route_snapshot(first)
    partitioner.on_interval_end(IntervalStats.from_frequencies(0, first))
    pinned = [
        key
        for key, task in partitioner.assignment.routing_table.items()
        if task != partitioner.assignment.hash_destination(key)
    ]
    assert pinned, "the skewed snapshot should pin some keys away from their hash"
    assert partitioner.assign_batch(pinned) == [partitioner.route(key) for key in pinned]
    # The next interval does not contain the pinned keys and is skewed again.
    second = {key: 1.0 for key in range(40, 80)}
    second[40] = second[41] = 500.0
    result = partitioner.on_interval_end(IntervalStats.from_frequencies(1, second))
    assert result is not None
    assert not any(key in partitioner.assignment.routing_table for key in pinned)
    hashed = [partitioner.assignment.hash_destination(key) for key in pinned]
    assert partitioner.assign_batch(pinned) == hashed
    assert partitioner.assign_batch_array(pinned).tolist() == hashed


@pytest.mark.parametrize("strategy", REBALANCING)
def test_rebalancing_an_equal_key_of_another_class_repatches_the_memo(strategy):
    """A table entry for ``2.0`` routes ``2`` too (the table is a dict), so
    the memoised route of an int must follow a rebalance of its float twin."""
    partitioner = FACTORIES[strategy]()
    ints = list(range(40))
    partitioner.assign_batch(ints)  # memoises every int
    snapshot = {key: 1.0 for key in range(10, 40)}
    snapshot.update({float(key): 800.0 * (key + 1) for key in range(10)})
    assert partitioner.on_interval_end(IntervalStats.from_frequencies(0, snapshot)) is not None
    assert partitioner.assign_batch(ints) == [partitioner.route(key) for key in ints]


class _CountingMemo(dict):
    """A route memo that counts its rewrites and clears."""

    writes = 0
    clears = 0

    def __setitem__(self, key, value):
        self.writes += 1
        super().__setitem__(key, value)

    def clear(self):
        self.clears += 1
        super().clear()


@pytest.mark.parametrize("strategy", REBALANCING)
def test_rebalance_rewrites_at_most_the_table_diff(strategy):
    partitioner = FACTORIES[strategy]()
    keys = list(range(200))
    snapshot = {key: 1.0 + (key % 7) for key in keys}
    snapshot[0] = snapshot[1] = 4_000.0
    partitioner.route_snapshot(snapshot)  # warms the int memo
    memo = partitioner._route_memo = _CountingMemo(partitioner._route_memo)
    table_before = partitioner.assignment.routing_table
    result = partitioner.on_interval_end(IntervalStats.from_frequencies(0, snapshot))
    assert result is not None and len(result.migration_plan) > 0
    diff = table_before.changed_keys(result.routing_table)
    assert len(result.migrated_keys) <= len(diff) < len(keys)
    assert memo.clears == 0 and len(memo) == len(keys)
    assert memo.writes <= len(diff)
    assert partitioner.assign_batch(keys) == [partitioner.route(key) for key in keys]
    assert partitioner._route_memo is memo
    assert memo.writes <= len(diff) and memo.clears == 0


# -- one memo: equal keys of different classes route alike ------------------------------

#: Keys that look alike: one dict key across classes (``1 == True == 1.0 ==
#: np.int64(1) == Fraction(1)``, ``0.0 == -0.0``, ``(1,) == (True,)``) or not
#: equal at all (``"1"`` / ``b"1"`` / ``((1.0,),)``).
LOOKALIKES = [
    1, True, 1.0, np.int64(1), np.float64(1.0), Fraction(1), 0, False, 0.0, -0.0,
    1.5, np.float64(1.5), Fraction(3, 2), (1,), (True,), ((1.0,),), "1", b"1",
]

#: Every ordered pair of look-alikes that are one dict key.  ``==`` alone would
#: also pair ``np.int64(1)`` with ``(1,)``: numpy compares a scalar with a
#: tuple elementwise, though the two are different keys.
EQUAL_PAIRS = [(a, b) for a, b in permutations(LOOKALIKES, 2) if len({a: 0, b: 0}) == 1]

#: Every registered strategy that memoises its routes.
MEMOISING = tuple(
    spec.name for spec in list_strategies() if spec.build(NUM_TASKS).cache_routes
)


@pytest.mark.parametrize("strategy", MEMOISING)
@given(
    batch=st.lists(st.sampled_from(LOOKALIKES), min_size=1, max_size=12),
    hot=st.sampled_from([1, "1", b"1", 7]),
)
@settings(max_examples=25, deadline=None)
def test_heterogeneous_batch_equals_scalar_route(strategy, batch, hot):
    """``assign_batch`` / ``assign_batch_array`` / ``route_snapshot`` answer a
    batch of look-alike keys like ``route`` does — cold, warm, after a
    rebalance and after a resize each way."""

    def build():
        return get_strategy(strategy).build(NUM_TASKS, theta_max=0.05, seed=7)

    warm, cold = build(), build()  # ``cold`` is only ever asked key by key
    skewed = {**{key: 1.0 for key in range(2, 40)}, hot: 5_000.0}
    snapshot = dict.fromkeys(batch, 1.0)  # keeps the first of each group of equal keys
    steps = (
        lambda part: None,
        lambda part: part.on_interval_end(IntervalStats.from_frequencies(0, skewed)),
        lambda part: part.scale_out(NUM_TASKS + 2),
        lambda part: part.scale_in(NUM_TASKS - 1),
    )
    for step in steps:
        step(warm)
        step(cold)
        expected = [cold.route(key) for key in batch]
        for _ in range(2):  # the first round fills the memo, the second reads it
            assert warm.assign_batch(batch) == expected
            assert warm.assign_batch_array(batch).tolist() == expected
            routed = warm.route_snapshot(snapshot)
            assert_routed_exactly(routed, scalar_route_snapshot(cold, snapshot), snapshot)


def _cold(compute, key):
    """``compute(key)`` with the digest cache emptied first, so a digest an
    equal key left there cannot answer for ``key``."""
    hashing._DIGEST_CACHE.clear()
    return compute(key)


@given(pair=st.sampled_from(EQUAL_PAIRS), seed=st.integers(0, 10_000), num_tasks=st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_equal_keys_share_one_digest(pair, seed, num_tasks):
    """``stable_hash``, both hash functions and PKG's candidates agree on two
    keys that are one dict key, each computed from a cold digest cache."""
    universal = UniversalHash(num_tasks, seed)
    ring = ConsistentHashRing(range(num_tasks), replicas=16, seed=seed)
    for compute in (
        lambda key: stable_hash(key, seed),
        universal,
        ring,
        lambda key: PartialKeyGrouping(num_tasks, seed).candidate_tasks(key),
    ):
        assert _cold(compute, pair[0]) == _cold(compute, pair[1])


@pytest.mark.parametrize("strategy", MEMOISING)
@given(pair=st.sampled_from(EQUAL_PAIRS))
@settings(max_examples=20, deadline=None)
def test_equal_keys_route_alike(strategy, pair):
    """Every batch entry point of a memoising strategy answers a key like an
    equal key of another class: cold, and after a rebalance that gave the
    first of the two a routing-table entry."""
    first, second = pair
    skewed = {**dict.fromkeys(range(2, 40), 1.0), first: 5_000.0}

    def answers(key):
        hashing._DIGEST_CACHE.clear()
        partitioner = get_strategy(strategy).build(NUM_TASKS, theta_max=0.05, seed=7)
        rounds = []
        for rebalance in (False, True):
            if rebalance:
                partitioner.on_interval_end(IntervalStats.from_frequencies(0, skewed))
            routed = partitioner.route_snapshot({key: 1.0})
            rounds.append((
                partitioner.route(key),
                partitioner.assign_batch([key]),
                partitioner.assign_batch_array([key]).tolist(),
                [task for task, bucket in routed.items() if bucket],
            ))
        return rounds

    assert answers(first) == answers(second)


def test_planner_columns_of_an_equal_key_list_route_like_its_keys():
    """``KeyColumns.share_keys`` adopts the previous interval's key list when
    the new one is equal; equal keys hash alike, so ``F`` over the adopted
    list is ``route`` over the interval's own keys."""
    partitioner = get_strategy("mixed").build(NUM_TASKS, seed=7)
    first = dict.fromkeys(range(1, 40), 1.0)
    second = {True: 1.0, 2: 1.0, 3.0: 1.0, np.int64(4): 1.0, **dict.fromkeys(range(5, 40), 1.0)}
    assert list(first) == list(second)
    for interval, snapshot in enumerate((first, second)):
        partitioner.on_interval_end(IntervalStats.from_frequencies(interval, snapshot))
    store = partitioner.stats
    _, routed = partitioner.assignment.route_columns(store.columns())
    assert routed.tolist() == [partitioner.route(key) for key in store.latest.keys()]


# -- the snapshot plan: kept across intervals, patched with what moved -----------------

#: Keys of the interval sequence below: ints (0 and 1 have bool look-alikes) and
#: strings, then enough filler keys that a task holds about 50, so changing
#: one to three counts stays below the snapshot plan's patch cut-over.
PLAN_KEYS = [*range(22), "alpha", "beta", *range(100, 100 + 20 * base._PATCH_SHARE)]

#: Counts a ``recount_few`` step writes: none is a count the sequence holds otherwise.
FEW_COUNTS = [0.5, 5.25, 77.0, 1e6]

#: The int keys a ``reclass`` step swaps (the first two have the look-alikes).
RECLASSED = [0, 1, 2, 9]

#: What the int key ``k`` at a position may become: itself, an equal key of
#: another class, or a float / tuple form and its look-alike of the same
#: class (``0.0`` / ``-0.0``, ``(1,)`` / ``(True,)``).
RECLASS = {
    "int": lambda key: key,
    "bool": lambda key: bool(key) if key in (0, 1) else key,
    "float": float,
    "negative zero": lambda key: -0.0 if key == 0 else float(key),
    "int64": np.int64,
    "tuple": lambda key: (key,),
    "bool tuple": lambda key: (bool(key),) if key in (0, 1) else (key,),
}

plan_steps_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("recount"),
            st.lists(
                st.sampled_from([1.0, 2.0, 3, 7.5, 40.0, 900.0]),
                min_size=len(PLAN_KEYS),
                max_size=len(PLAN_KEYS),
            ),
        ),
        st.tuples(
            st.just("recount_few"),
            st.lists(
                st.tuples(st.integers(0, len(PLAN_KEYS) - 1), st.sampled_from(FEW_COUNTS)),
                min_size=1,
                max_size=3,
            ),
        ),
        st.tuples(st.just("reorder"), st.permutations(range(len(PLAN_KEYS)))),
        st.tuples(st.just("reclass"), st.sampled_from(RECLASSED), st.sampled_from(sorted(RECLASS))),
        st.tuples(
            st.just("skip"),
            st.integers(0, len(PLAN_KEYS) - 1),
            st.sampled_from([0.0, 0, -3.0, float("nan")]),
        ),
        st.tuples(st.just("interval_end")),
        st.tuples(st.just("rebalance_twice")),
        st.tuples(st.just("table_edit"), st.integers(0, len(PLAN_KEYS) - 1), st.integers(0, 7)),
        st.tuples(st.just("scale_out"), st.integers(1, 2)),
        st.tuples(st.just("scale_in"), st.integers(1, 2)),
    ),
    min_size=1,
    max_size=10,
)


class _IntervalSequence:
    """One key list with its counts, and the partitioner steps between snapshots."""

    def __init__(self):
        self.keys = list(PLAN_KEYS)
        self.base_keys = list(PLAN_KEYS)  # what a reclassed key was, position for position
        self.counts = [1.0 + (index % 5) * 30.0 for index in range(len(self.keys))]
        self.counts[3] = 2_000.0
        self.interval = 0

    def snapshot(self):
        return dict(zip(self.keys, self.counts))

    def stats(self):
        self.interval += 1
        live = {key: count for key, count in self.snapshot().items() if count > 0}
        return IntervalStats.from_frequencies(self.interval, live)

    def step(self, step, twins):
        kind, *args = step
        if kind == "recount":
            self.counts = list(args[0])
        elif kind == "recount_few":
            for position, count in args[0]:
                self.counts[position] = count
        elif kind == "reorder":
            self.keys = [self.keys[index] for index in args[0]]
            self.base_keys = [self.base_keys[index] for index in args[0]]
            self.counts = [self.counts[index] for index in args[0]]
        elif kind == "reclass":
            key, name = args
            self.keys[self.base_keys.index(key)] = RECLASS[name](key)
        elif kind == "skip":
            position, count = args
            self.counts[position] = count
        elif kind in ("interval_end", "rebalance_twice"):
            if not any(count > 0 for count in self.counts):
                return
            rebalancing = hasattr(twins[0], "rebalance")
            for _ in range(1 if kind == "interval_end" else 2):
                stats = self.stats()
                for partitioner in twins:
                    if kind == "interval_end":
                        partitioner.on_interval_end(stats.copy())
                    elif rebalancing:
                        partitioner.observe(stats.copy())
                        partitioner.rebalance()
        elif kind == "table_edit":
            position, task = args
            for partitioner in twins:
                if hasattr(partitioner, "assignment"):
                    partitioner.assignment.routing_table.set(
                        self.keys[position], task % partitioner.num_tasks, enforce_limit=False
                    )
        elif kind == "scale_out":
            for partitioner in twins:
                partitioner.scale_out(partitioner.num_tasks + args[0])
        elif twins[0].num_tasks - args[0] >= 1:
            for partitioner in twins:
                partitioner.scale_in(partitioner.num_tasks - args[0])


@pytest.mark.parametrize("kind", SNAPSHOT_INPUTS)
@pytest.mark.parametrize("strategy", MEMOISING)
@given(steps=plan_steps_strategy)
@settings(max_examples=30, deadline=None)
def test_snapshot_plan_matches_scalar_routing_across_intervals(strategy, kind, steps):
    """After every step, ``route_snapshot`` of a partitioner that keeps its
    snapshot plan is the reference loop over a cold twin, exactly — whether
    the step changed every count or a few (the plan re-takes, or patches),
    the key order, a key's class, which counts are live, or the assignment
    (an interval end, two rebalances in a row, a direct routing-table edit,
    a resize).  Every bucket handed out earlier still holds its own
    snapshot's counts."""

    def build():
        return get_strategy(strategy).build(NUM_TASKS, theta_max=0.05, seed=7)

    warm, cold = build(), build()
    sequence = _IntervalSequence()
    as_input = _SnapshotInput(kind)
    handed_out = []
    for step in [*steps, None]:
        snapshot = as_input(sequence.snapshot())
        routed = warm.route_snapshot(snapshot)
        handed_out.append((routed, scalar_route_snapshot(cold, snapshot), snapshot))
        for earlier in handed_out:
            assert_routed_exactly(*earlier)
        if step is not None:
            sequence.step(step, (warm, cold))


@pytest.mark.parametrize("kind", SNAPSHOT_INPUTS)
@pytest.mark.parametrize("strategy", MEMOISING)
@pytest.mark.parametrize(
    "first, second, kept",
    [
        ([0.0, 5, "a"], [-0.0, 5, "a"], True),
        ([(0,), (1,), 5], [(False,), (True,), 5], True),
        ([np.int64(2), 5, "a"], [(2,), 5, "a"], False),
    ],
)
def test_snapshot_plan_routes_lookalike_keys_by_their_own_hash(
    strategy, first, second, kept, kind
):
    """Equal keys (``0.0`` / ``-0.0``, ``(0,)`` / ``(False,)``) route alike, so
    an equal key list is answered from the plan of its look-alike.  A list
    that is ``==`` only because numpy compares a scalar with a tuple
    elementwise holds other keys, and is routed afresh."""

    def build():
        return get_strategy(strategy).build(NUM_TASKS, theta_max=0.05, seed=7)

    warm, cold = build(), build()
    assert first == second
    if kept:
        assert [cold.route(key) for key in first] == [cold.route(key) for key in second]
    plans = []
    as_input = _SnapshotInput(kind)
    for keys in (first, second, first):
        snapshot = as_input(dict.fromkeys(keys, 1.0))
        routed = warm.route_snapshot(snapshot)
        assert_routed_exactly(routed, scalar_route_snapshot(cold, snapshot), snapshot)
        assert warm.assign_batch_array(keys).tolist() == [cold.route(key) for key in keys]
        plans.append(warm._snapshot_plan)
    assert (plans[0] is plans[1] is plans[2]) == kept


@pytest.mark.parametrize("kind", SNAPSHOT_INPUTS)
@pytest.mark.parametrize("strategy", REBALANCING)
def test_snapshot_plan_is_built_once_and_patched_per_task(strategy, kind, monkeypatch):
    """Over a stationary key list the plan is built once, one pass over the
    task column per task; after that no call passes over the whole column
    per task: each rebalance's re-routed keys are spliced into the tasks
    they left or joined, and changed counts patched in."""
    gathers = []
    gather = base._gather
    monkeypatch.setattr(base, "_gather", lambda *args: gathers.append(1) or gather(*args))
    partitioner = FACTORIES[strategy]()
    keys = list(range(300))
    plan = None
    spliced = 0
    as_input = _SnapshotInput(kind)
    for interval in range(8):
        hot = keys[(37 * interval) % len(keys)]
        snapshot = {key: 1.0 + (key % 7) for key in keys}
        snapshot[hot] = 3_000.0
        snapshot = as_input(snapshot)
        before = None if plan is None else plan.tasks.copy()
        gathers.clear()
        routed = partitioner.route_snapshot(snapshot)
        if plan is None:
            plan = partitioner._snapshot_plan
            assert len(gathers) == NUM_TASKS
        else:
            assert partitioner._snapshot_plan is plan
            assert not gathers
            spliced += int(np.count_nonzero(plan.tasks != before))
        for task in range(NUM_TASKS):
            positions = np.flatnonzero(plan.tasks == task)
            assert plan.gathers[task].tolist() == positions.tolist()
            assert plan.key_tuples[task] == tuple(plan.keys[at] for at in positions)
        assert_routed_exactly(routed, scalar_route_snapshot(partitioner, snapshot), snapshot)
        partitioner.on_interval_end(IntervalStats.from_frequencies(interval, snapshot))
    assert spliced > 0, "no rebalance re-routed a key: the splice was never exercised"
