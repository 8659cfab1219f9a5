"""One contract for every rebalancing strategy in the registry.

A rebalancing strategy is the shared loop (``RebalancingPartitioner``) around
a planner, so whatever the planner — a core algorithm, the compact planner,
Readj, DKG, or a third-party one registered later — the loop must trigger on
``θ > θ_max`` only, install exactly what the planner returned, report
``Δ(F, F′)`` truthfully and survive a resize.  The route-memo half of the
contract (patched memo == cold twin after any such sequence) is
``test_batch_routing_parity.py::test_patched_memo_matches_cold_partitioner``,
parametrised over the same registry list.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import AssignmentFunction
from repro.core.load import load_from_costs, max_balance_indicator
from repro.core.statistics import IntervalStats
from repro.core.strategy import get_strategy, list_strategies

REBALANCING = [spec.name for spec in list_strategies() if spec.rebalancing]

NUM_TASKS = 4
THETA_MAX = 0.1
SEED = 5

intervals_strategy = st.lists(
    st.dictionaries(
        st.one_of(st.integers(0, 40), st.sampled_from(["alpha", "beta", "gamma", "delta"])),
        st.sampled_from([1.0, 2.0, 3.0, 8.0, 50.0, 700.0]),
        min_size=1,
        max_size=30,
    ),
    min_size=1,
    max_size=5,
)


def _build(strategy):
    return get_strategy(strategy).build(NUM_TASKS, theta_max=THETA_MAX, seed=SEED)


@pytest.mark.parametrize("strategy", REBALANCING)
@given(snapshots=intervals_strategy)
@settings(max_examples=30, deadline=None)
def test_trigger_install_and_delta(strategy, snapshots):
    partitioner = _build(strategy)
    for interval, snapshot in enumerate(snapshots):
        stats = IntervalStats.from_frequencies(interval, snapshot)
        before = {key: partitioner.route(key) for key in snapshot}
        theta = max_balance_indicator(
            load_from_costs(
                {key: stat.cost for key, stat in stats.items()}, before.__getitem__, NUM_TASKS
            )
        )
        rounds = len(partitioner.history)
        result = partitioner.on_interval_end(stats)
        assert (result is None) == (theta <= THETA_MAX)
        if result is None:
            assert len(partitioner.history) == rounds
            assert before == {key: partitioner.route(key) for key in snapshot}
            continue
        assert partitioner.assignment is result.assignment
        assert partitioner.history[-1] is result and len(partitioner.history) == rounds + 1
        assert partitioner.routing_table_size == result.table_size
        # The window is one interval, so the keys holding state are this
        # snapshot's: Δ(F, F′) is exactly the ones that route differently now.
        moved = {key for key in snapshot if partitioner.route(key) != before[key]}
        assert result.migrated_keys == moved
        assert all(0 <= partitioner.route(key) < NUM_TASKS for key in snapshot)


@pytest.mark.parametrize("strategy", REBALANCING)
@given(snapshots=intervals_strategy)
@settings(max_examples=20, deadline=None)
def test_resize_keeps_the_surviving_explicit_routes(strategy, snapshots):
    partitioner = _build(strategy)
    for interval, snapshot in enumerate(snapshots):
        partitioner.on_interval_end(IntervalStats.from_frequencies(interval, snapshot))
    keys = sorted({key for snapshot in snapshots for key in snapshot}, key=repr)

    explicit = partitioner.assignment.routing_table.as_dict()
    partitioner.scale_out(NUM_TASKS + 1)
    assert partitioner.num_tasks == partitioner.assignment.num_tasks == NUM_TASKS + 1
    assert partitioner.assignment.routing_table.as_dict() == explicit
    grown = AssignmentFunction.hashed(NUM_TASKS + 1, seed=SEED)
    for key in keys:
        assert partitioner.route(key) == explicit.get(key, grown.hash_destination(key))

    partitioner.scale_in(NUM_TASKS - 1)
    assert partitioner.num_tasks == partitioner.assignment.num_tasks == NUM_TASKS - 1
    surviving = {key: task for key, task in explicit.items() if task < NUM_TASKS - 1}
    assert partitioner.assignment.routing_table.as_dict() == surviving
    shrunk = AssignmentFunction.hashed(NUM_TASKS - 1, seed=SEED)
    for key in keys:
        assert partitioner.route(key) == surviving.get(key, shrunk.hash_destination(key))
    # The loop keeps planning at the new parallelism.
    partitioner.on_interval_end(IntervalStats.from_frequencies(len(snapshots), snapshots[-1]))
    assert all(0 <= partitioner.route(key) < NUM_TASKS - 1 for key in keys)


BAD_KNOBS = {"theta_max": -0.01, "beta": -1.0, "max_table_size": -1, "window": 0}


@pytest.mark.parametrize(
    "strategy, knob",
    [
        (spec.name, knob)
        for spec in list_strategies()
        if spec.rebalancing
        for knob in BAD_KNOBS
        if knob in spec.tunables
    ],
)
def test_knobs_are_validated_for_every_strategy(strategy, knob):
    """``PlannerConfig`` is the one carrier of the shared knobs, so a bad
    value is refused whichever planner the strategy wraps (DKG used to accept
    a negative ``θ_max``)."""
    with pytest.raises(ValueError):
        get_strategy(strategy).build(NUM_TASKS, **{knob: BAD_KNOBS[knob]})
