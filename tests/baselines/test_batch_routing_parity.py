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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HashPartitioner, PartialKeyGrouping, ShufflePartitioner
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
        if count <= 0:
            continue
        for task, share in partitioner.route_bulk(key, count).items():
            bucket = per_task.setdefault(task, {})
            bucket[key] = bucket.get(key, 0.0) + share
    return per_task


def assert_routing_equal(scalar, batch, strategy):
    assert set(scalar) == set(batch), strategy
    for task in scalar:
        assert set(scalar[task]) == set(batch[task]), (strategy, task)
        for key, count in scalar[task].items():
            assert batch[task][key] == pytest.approx(count), (strategy, task, key)


@pytest.mark.parametrize("strategy", sorted(FACTORIES))
@given(keys=keys_strategy)
@settings(max_examples=20, deadline=None)
def test_assign_batch_matches_scalar_route(strategy, keys):
    scalar_part = FACTORIES[strategy]()
    batch_part = FACTORIES[strategy]()
    scalar = [scalar_part.route(key) for key in keys]
    batch = batch_part.assign_batch(keys)
    assert batch == scalar


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
        assert_routing_equal(scalar, batch, strategy)
        stats = IntervalStats.from_frequencies(interval, snapshot)
        scalar_part.on_interval_end(stats)
        batch_part.on_interval_end(stats.copy())


def test_mixed_type_keys_do_not_collide_in_route_memo():
    """1, 1.0, True and ±0.0 are equal as dict keys but hash differently —
    the route memo must not conflate them (regression)."""
    keys = [1, 1.0, True, 0.0, -0.0, "1"]
    part = FACTORIES["hash"]()
    batch = part.assign_batch(keys)
    fresh = FACTORIES["hash"]()
    assert batch == [fresh.route(key) for key in keys]


def test_mixed_type_keys_do_not_collide_in_pkg_candidates():
    pkg = FACTORIES["pkg"]()
    pkg.candidate_tasks(2)  # prime the cache with the int key
    fresh = FACTORIES["pkg"]()
    assert pkg.candidate_tasks(2.0) == fresh.candidate_tasks(2.0)
    assert pkg.candidate_tasks(True) == fresh.candidate_tasks(True)


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
    memo = partitioner._route_memo[int] = _CountingMemo(partitioner._route_memo[int])
    table_before = partitioner.assignment.routing_table
    result = partitioner.on_interval_end(IntervalStats.from_frequencies(0, snapshot))
    assert result is not None and len(result.migration_plan) > 0
    diff = table_before.changed_keys(result.routing_table)
    assert len(result.migrated_keys) <= len(diff) < len(keys)
    assert memo.clears == 0 and len(memo) == len(keys)
    assert memo.writes <= len(diff)
    assert partitioner.assign_batch(keys) == [partitioner.route(key) for key in keys]
    assert partitioner._route_memo[int] is memo
    assert memo.writes <= len(diff) and memo.clears == 0


# -- one memo: equal keys of different classes stay apart ------------------------------

#: Keys that are equal as dict keys (``1 == True == 1.0``, ``0.0 == -0.0``) or
#: look alike (``"1"`` / ``b"1"`` / ``(1,)``) but hash to different tasks.
LOOKALIKES = [1, True, "1", b"1", 1.0, -0.0, 0.0, (1,), 0, False]

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
            assert routed == scalar_route_snapshot(cold, snapshot)
            for task, bucket in routed.items():
                assert [type(key) for key in bucket] == [
                    type(key) for key in snapshot if cold.route(key) == task
                ]
