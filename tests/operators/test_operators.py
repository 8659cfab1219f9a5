"""Tests for the stateful operators: word count, aggregation, joins and Q5."""

import pytest

from repro.baselines import HashPartitioner
from repro.engine.state import KeyedState
from repro.engine.tuples import StreamTuple
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


class TestWordCount:
    def test_counts_accumulate_per_interval(self):
        op = WordCountOperator(window=2)
        state = KeyedState(window=2)
        for _ in range(3):
            outputs = op.process(StreamTuple(key="w", interval=1), state, 0)
        assert outputs[0].value == 3
        op.process(StreamTuple(key="w", interval=2), state, 0)
        assert sum(state.payloads("w")) == 4

    def test_window_expiry_limits_count(self):
        op = WordCountOperator(window=1)
        state = KeyedState(window=1)
        op.process(StreamTuple(key="w", interval=1), state, 0)
        op.process(StreamTuple(key="w", interval=2), state, 0)
        assert sum(state.payloads("w")) == 1

    def test_cost_and_state_models(self):
        op = WordCountOperator(cost_per_tuple=2.0, state_per_tuple=0.5)
        assert op.tuple_cost("any") == 2.0
        assert op.state_delta("any") == 0.5
        assert op.merge_overhead(10) == 10.0

    def test_sink_mode(self):
        op = WordCountOperator(emit_updates=False)
        assert op.process(StreamTuple(key="w", interval=0), KeyedState(), 0) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            WordCountOperator(cost_per_tuple=0)
        with pytest.raises(ValueError):
            WordCountOperator(state_per_tuple=-1)


class TestWindowedAggregate:
    def test_sum_reduction(self):
        op = WindowedAggregate(reducer=lambda acc, v: (acc or 0) + v, window=2)
        state = KeyedState(window=2)
        op.process(StreamTuple(key="k", value=5, interval=1), state, 0)
        out = op.process(StreamTuple(key="k", value=7, interval=1), state, 0)
        assert out[0].value == 12
        op.process(StreamTuple(key="k", value=1, interval=2), state, 0)
        assert list(state.payloads("k")) == [12, 1]

    def test_default_reducer_counts(self):
        op = WindowedAggregate()
        state = KeyedState()
        op.process(StreamTuple(key="k", value=None, interval=0), state, 0)
        out = op.process(StreamTuple(key="k", value=None, interval=0), state, 0)
        assert out[0].value == 2

    def test_partial_plus_merge_equals_contiguous(self):
        """Splitting a key's tuples over two tasks and merging gives the same
        aggregate as processing them on one task (PKG correctness)."""
        reducer = lambda acc, v: (acc or 0) + v
        values = [3, 1, 4, 1, 5, 9, 2, 6]

        contiguous = WindowedAggregate(reducer=reducer)
        state = KeyedState()
        for value in values:
            full = contiguous.process(StreamTuple(key="k", value=value, interval=0), state, 0)
        expected = full[0].value

        partial_op = PartialWindowedAggregate(reducer=reducer)
        task_states = {0: KeyedState(), 1: KeyedState()}
        merge_op = MergeOperator(reducer=reducer)
        merge_state = KeyedState()
        merged_value = None
        for index, value in enumerate(values):
            task = index % 2
            partials = partial_op.process(
                StreamTuple(key="k", value=value, interval=0), task_states[task], task
            )
            merged = merge_op.process(partials[0], merge_state, 0)
            merged_value = merged[0].value
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
    def test_two_stream_join_matches(self):
        op = WindowedJoin(window=2)
        state = KeyedState(window=2)
        op.process(StreamTuple(key="k", value="L1", interval=1, stream="left"), state, 0)
        op.process(StreamTuple(key="k", value="L2", interval=1, stream="left"), state, 0)
        out = op.process(
            StreamTuple(key="k", value="R1", interval=1, stream="right"), state, 0
        )
        assert {match for _, match in (tup.value for tup in out)} == {"L1", "L2"}

    def test_join_respects_window(self):
        op = WindowedJoin(window=1)
        state = KeyedState(window=1)
        op.process(StreamTuple(key="k", value="old", interval=1, stream="left"), state, 0)
        op.process(StreamTuple(key="k", value="new", interval=3, stream="left"), state, 0)
        out = op.process(
            StreamTuple(key="k", value="probe", interval=3, stream="right"), state, 0
        )
        assert [match for _, match in (tup.value for tup in out)] == ["new"]

    def test_self_join_counts_pairs(self):
        op = WindowedSelfJoin(window=1)
        state = KeyedState(window=1)
        outputs = []
        for index in range(4):
            outputs = op.process(
                StreamTuple(key="s", value=index, interval=0), state, 0
            )
        # The 4th tuple matches the 3 earlier ones.
        assert len(outputs) == 3

    def test_cost_grows_with_match_factor(self):
        base = WindowedJoin(cost_per_tuple=1.0, cost_per_match=0.5)
        wide = WindowedJoin(cost_per_tuple=1.0, cost_per_match=0.5, match_factor=10.0)
        assert wide.tuple_cost("k") > base.tuple_cost("k") == 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedJoin(cost_per_tuple=0)
        with pytest.raises(ValueError):
            WindowedJoin(cost_per_match=-1)


class TestQ5Topology:
    def test_dimension_join_enriches(self):
        join = DimensionJoin(lookup=lambda key: key * 10, window=1)
        state = KeyedState(window=1)
        out = join.process(StreamTuple(key=3, value="row", interval=0), state, 0)
        assert out[0].value == ("row", 30)
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
