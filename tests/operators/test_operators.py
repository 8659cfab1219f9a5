"""Tests for the stateful operators: word count, aggregation, joins and Q5."""

import pytest

from repro.baselines import HashPartitioner
from repro.engine.state import KeyedState
from repro.operators import (
    MergeOperator,
    PartialWindowedAggregate,
    WindowedAggregate,
    WindowedJoin,
    WindowedSelfJoin,
    WordCountOperator,
)
from repro.operators.tpch_q5 import DimensionJoin, Q5Stage, build_q5_topology
from repro.workloads import generate_tpch


def _run(op, state, tuples, task_id=0):
    """Feed ``(key, value, interval)`` tuples one batch each; the emissions of
    the last one as ``(key, value)`` pairs."""
    out = []
    for key, value, interval in tuples:
        out = list(zip(*op.process_batch([key], [value], interval, state, task_id)))
    return out


class TestWordCount:
    def test_counts_accumulate_per_interval(self):
        op = WordCountOperator(window=2)
        state = KeyedState(window=2)
        assert op.process_batch(["w"] * 3, [None] * 3, 1, state, 0) == (["w"] * 3, [1, 2, 3])
        op.process_batch(["w"], [None], 2, state, 0)
        assert sum(state.payloads("w")) == 4

    def test_window_expiry_limits_count(self):
        op = WordCountOperator(window=1)
        state = KeyedState(window=1)
        _run(op, state, [("w", None, 1), ("w", None, 2)])
        assert sum(state.payloads("w")) == 1

    def test_cost_and_state_models(self):
        op = WordCountOperator(cost_per_tuple=2.0, state_per_tuple=0.5)
        assert op.cost_per_tuple == op.batch_cost(["any"]) == 2.0
        assert op.state_per_tuple == op.batch_state_delta(["any"]) == 0.5
        assert op.merge_overhead(10) == 10.0

    def test_sink_mode(self):
        op = WordCountOperator(emit_updates=False)
        assert op.process_batch(["w"], [None], 0, KeyedState(), 0) == ([], [])

    def test_validation(self):
        with pytest.raises(ValueError):
            WordCountOperator(cost_per_tuple=0)
        with pytest.raises(ValueError):
            WordCountOperator(state_per_tuple=-1)


class TestWindowedAggregate:
    def test_sum_reduction(self):
        op = WindowedAggregate(reducer=lambda acc, v: (acc or 0) + v, window=2)
        state = KeyedState(window=2)
        assert _run(op, state, [("k", 5, 1), ("k", 7, 1)]) == [("k", 12)]
        _run(op, state, [("k", 1, 2)])
        assert list(state.payloads("k")) == [12, 1]

    def test_default_reducer_counts(self):
        op = WindowedAggregate()
        assert _run(op, KeyedState(), [("k", None, 0), ("k", None, 0)]) == [("k", 2)]

    def test_partial_plus_merge_equals_contiguous(self):
        """Splitting a key's tuples over two tasks and merging gives the same
        aggregate as processing them on one task (PKG correctness)."""
        reducer = lambda acc, v: (acc or 0) + v
        values = [3, 1, 4, 1, 5, 9, 2, 6]

        contiguous = WindowedAggregate(reducer=reducer)
        _, aggregates = contiguous.process_batch(["k"] * len(values), values, 0, KeyedState(), 0)
        expected = aggregates[-1]

        partial_op = PartialWindowedAggregate(reducer=reducer)
        task_states = {0: KeyedState(), 1: KeyedState()}
        merge_op = MergeOperator(reducer=reducer)
        merge_state = KeyedState()
        merged_value = None
        for index, value in enumerate(values):
            task = index % 2
            partials = partial_op.process_batch(["k"], [value], 0, task_states[task], task)
            _, merged = merge_op.process_batch(*partials, 0, merge_state, 0)
            merged_value = merged[0]
        assert merged_value == expected

    def test_merge_overhead_only_for_partial(self):
        assert WindowedAggregate().merge_overhead(5) == 0.0
        assert PartialWindowedAggregate().merge_overhead(5) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedAggregate(cost_per_tuple=0)
        with pytest.raises(ValueError):
            MergeOperator(cost_per_partial=0)


class TestWindowedJoin:
    def test_self_join_emits_pairs_in_arrival_order(self):
        op = WindowedSelfJoin(window=2)
        out = op.process_batch(["k", "k", "k"], ["a", "b", "c"], 1, KeyedState(window=2), 0)
        assert out == (["k", "k", "k"], [("b", "a"), ("c", "a"), ("c", "b")])

    def test_join_respects_window(self):
        op = WindowedSelfJoin(window=1)
        state = KeyedState(window=1)
        out = _run(op, state, [("k", "old", 1), ("k", "new", 3), ("k", "probe", 3)])
        assert [match for _, (_, match) in out] == ["new"]

    def test_self_join_counts_pairs(self):
        op = WindowedSelfJoin(window=1)
        outputs = _run(op, KeyedState(window=1), [("s", index, 0) for index in range(4)])
        # The 4th tuple matches the 3 earlier ones.
        assert len(outputs) == 3

    def test_cost_model_base_forwards_and_accounts_state(self):
        # WindowedJoin is the joins' cost model; on its own it is the base
        # operator: tuples pass through, state grows by state_per_tuple each.
        op = WindowedJoin(window=2, state_per_tuple=0.5)
        state = KeyedState(window=2)
        assert op.process_batch(["k", "k"], ["L1", "R1"], 0, state, 0) == (["k", "k"], ["L1", "R1"])
        assert state.key_size("k") == 1.0

    def test_cost_grows_with_match_factor(self):
        base = WindowedJoin(cost_per_tuple=1.0, cost_per_match=0.5)
        wide = WindowedJoin(cost_per_tuple=1.0, cost_per_match=0.5, match_factor=10.0)
        assert wide.batch_cost(["k"]) > base.batch_cost(["k"]) == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedJoin(cost_per_tuple=0)
        with pytest.raises(ValueError):
            WindowedJoin(cost_per_match=-1)


class TestQ5Topology:
    def test_dimension_join_enriches(self):
        join = DimensionJoin(lookup=lambda key: key * 10, window=1)
        state = KeyedState(window=1)
        assert join.process_batch([3], ["row"], 0, state, 0) == ([3], [("row", 30)])
        assert state.key_size(3) > 0

    def test_build_q5_structure(self):
        dataset = generate_tpch(scale=0.001, seed=0)
        topo = build_q5_topology(
            dataset, lambda name, n: HashPartitioner(n), parallelism=4, window=2
        )
        stages = Q5Stage()
        assert topo.stage_names() == [
            stages.ORDER_JOIN,
            stages.CUSTOMER_JOIN,
            stages.REVENUE_AGG,
        ]
        by_name = {stage.name: stage for stage in topo}
        assert by_name[stages.ORDER_JOIN].parallelism == 4
        # The aggregation stage is narrower (nation keys are few).
        assert by_name[stages.REVENUE_AGG].parallelism <= 4

    def test_q5_key_mappers_follow_foreign_keys(self):
        dataset = generate_tpch(scale=0.001, seed=0)
        topo = build_q5_topology(
            dataset, lambda name, n: HashPartitioner(n), parallelism=4, window=2
        )
        stages = Q5Stage()
        by_name = {stage.name: stage for stage in topo}
        order_key = 1
        customer = by_name[stages.ORDER_JOIN].key_mapper(order_key)
        assert customer == dataset.customer_of_order(order_key)
        nation = by_name[stages.CUSTOMER_JOIN].key_mapper(customer)
        assert nation == dataset.nation_of_customer(customer)
        assert 0 <= nation < 25

    def test_invalid_parallelism(self):
        dataset = generate_tpch(scale=0.001, seed=0)
        with pytest.raises(ValueError):
            build_q5_topology(dataset, lambda name, n: HashPartitioner(n), parallelism=0)
