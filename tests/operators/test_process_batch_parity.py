"""Batch fast-path parity: ``process_batch`` must equal N scalar ``process``
calls — emissions, windowed state and metrics — and the interval statistics
the stage plans on (router counts x ``batch_cost`` / ``batch_state_delta``)
must equal the per-key scalar models, for every operator the repo ships
(including the default ``OperatorLogic``).

The worker's hot loop now runs :meth:`repro.engine.operator.Task.
process_batch` (one metrics update per batch, ``batch_cost`` instead of
per-tuple ``tuple_cost``); any divergence from the scalar path would
silently skew the measured runtime numbers, so this is pinned per operator.
"""

from collections import Counter

import numpy as np
import pytest

from repro.engine.operator import OperatorLogic, Task
from repro.engine.tuples import StreamTuple
from repro.operators.tpch_q5 import DimensionJoin
from repro.operators.windowed_aggregate import (
    MergeOperator,
    PartialWindowedAggregate,
    WindowedAggregate,
)
from repro.operators.windowed_join import WindowedJoin, WindowedSelfJoin
from repro.operators.wordcount import WordCountOperator
from repro.runtime.stage_loop import _StageLoop


def _nation_of(key):
    """Deterministic, picklable stand-in for a TPC-H foreign-key lookup."""
    return hash(key) % 5


class ValueDependentOperator(OperatorLogic):
    """Cost and state both depend on the tuple *value*: pins the batch
    fallbacks (batch_cost / batch_state_delta) to per-tuple evaluation."""

    name = "value-dependent"
    stateful = True

    def tuple_cost(self, key, value=None):
        return 0.25 * (1 + ((value or 0) & 3))

    def state_delta(self, key, value=None):
        return 0.5 * (1 + ((value or 0) & 1))


#: Factories (fresh instance per test — operators carry mutable config).
OPERATORS = {
    "default-logic": lambda: OperatorLogic(),
    "value-dependent": lambda: ValueDependentOperator(),
    "wordcount-emitting": lambda: WordCountOperator(window=2, emit_updates=True),
    "wordcount-sink": lambda: WordCountOperator(window=2, emit_updates=False),
    "windowed-aggregate": lambda: WindowedAggregate(window=2),
    "partial-aggregate": lambda: PartialWindowedAggregate(window=2),
    "merge": lambda: MergeOperator(window=2),
    "windowed-join": lambda: WindowedJoin(window=2),
    "windowed-self-join": lambda: WindowedSelfJoin(window=2),
    "dimension-join": lambda: DimensionJoin(lookup=_nation_of, window=2),
}


def _stream(seed=7, tuples_per_interval=60, intervals=2, keys=8):
    rng = np.random.default_rng(seed)
    out = []
    for interval in range(intervals):
        ks = rng.integers(0, keys, tuples_per_interval).tolist()
        vs = rng.integers(1, 5, tuples_per_interval).tolist()
        out.append((interval, ks, vs))
    return out


def _run_scalar(logic, stream):
    task = Task(0, logic)
    outputs = []
    for interval, keys, values in stream:
        for key, value in zip(keys, values):
            for tup in task.process(
                StreamTuple(key=key, value=value, interval=interval)
            ):
                outputs.append((tup.key, tup.value))
        task.end_interval(interval)
    return task, outputs


def _run_batched(logic, stream, chunk=17):
    task = Task(0, logic)
    outputs = []
    for interval, keys, values in stream:
        for start in range(0, len(keys), chunk):
            out_keys, out_values = task.process_batch(
                keys[start : start + chunk],
                values[start : start + chunk],
                interval,
            )
            outputs.extend(zip(out_keys, out_values))
        task.end_interval(interval)
    return task, outputs


def _state_payloads(task):
    return {key: task.state.payloads(key) for key in task.state.keys()}


@pytest.mark.parametrize("name", sorted(OPERATORS))
class TestProcessBatchParity:
    def test_emissions_state_and_metrics_match_scalar(self, name):
        stream = _stream()
        scalar_task, scalar_out = _run_scalar(OPERATORS[name](), stream)
        batch_task, batch_out = _run_batched(OPERATORS[name](), stream)

        assert batch_out == scalar_out
        assert _state_payloads(batch_task) == _state_payloads(scalar_task)
        assert (
            batch_task.metrics.tuples_processed
            == scalar_task.metrics.tuples_processed
        )
        assert batch_task.metrics.cost_processed == pytest.approx(
            scalar_task.metrics.cost_processed, rel=1e-12
        )
        assert batch_task.metrics.state_installed == pytest.approx(
            scalar_task.metrics.state_installed, rel=1e-12
        )
        assert batch_task.state_size == pytest.approx(
            scalar_task.state_size, rel=1e-12
        )

    def test_stage_statistics_match_per_key_models(self, name):
        # What the stage plans on: the router's per-key counts times the
        # batch models, against one scalar model call per key.
        logic = OPERATORS[name]()
        for interval, keys, _ in _stream():
            counts = Counter(keys)
            stats = _StageLoop._interval_stats(logic, interval, counts)
            assert stats.interval == interval
            assert list(stats.keys()) == list(counts)
            for key, count in counts.items():
                assert stats.frequency(key) == count
                assert stats.cost(key) == count * logic.tuple_cost(key)
                assert stats.memory(key) == count * logic.state_delta(key)

    def test_batch_cost_matches_per_tuple_cost(self, name):
        logic = OPERATORS[name]()
        _, keys, values = _stream(seed=11)[0]
        costs = logic.batch_cost(keys, values)
        expected = [
            logic.tuple_cost(key, value) for key, value in zip(keys, values)
        ]
        if np.ndim(costs) == 0:
            assert [float(costs)] * len(keys) == expected
        else:
            assert costs.tolist() == expected

    def test_empty_batch_is_a_noop(self, name):
        task = Task(0, OPERATORS[name]())
        assert task.process_batch([], [], 0) == ([], [])
        assert task.metrics.tuples_processed == 0


class TestDimensionJoinHotKey:
    """One window-list copy per distinct key of a batch: a hot key's payload
    order and sizes must still equal the tuple-by-tuple path's exactly."""

    STREAM = [(0, ["hot", "hot", "cold", "hot"], [1, 2, 3, 4]), (0, ["hot", "cold"], [5, 6])]

    def test_payloads_and_sizes_equal_scalar_path(self):
        scalar = Task(0, DimensionJoin(lookup=_nation_of, window=2, state_per_tuple=0.5))
        batched = Task(0, DimensionJoin(lookup=_nation_of, window=2, state_per_tuple=0.5))
        for interval, keys, values in self.STREAM:
            for key, value in zip(keys, values):
                scalar.process(StreamTuple(key=key, value=value, interval=interval))
            out_keys, out_values = batched.process_batch(keys, values, interval)
            assert out_keys == keys
            assert [value for value, _ in out_values] == values
        assert _state_payloads(batched) == {"hot": [[1, 2, 4, 5]], "cold": [[3, 6]]}
        assert _state_payloads(batched) == _state_payloads(scalar)
        for key in ("hot", "cold"):
            assert batched.state.key_size(key) == scalar.state.key_size(key)
        assert batched.state_size == scalar.state_size

    def test_window_list_is_replaced_not_extended(self):
        # A checkpoint snapshot shares the payload list by reference and is
        # pickled later: the next batch must not grow that list in place.
        task = Task(0, DimensionJoin(lookup=_nation_of, window=2))
        task.process_batch(["hot", "hot"], [1, 2], 0)
        shared = task.state.latest_payload("hot")
        task.process_batch(["hot"], [3], 0)
        assert shared == [1, 2]
        assert task.state.latest_payload("hot") == [1, 2, 3]


class TestLogicProcessBatchDefault:
    def test_default_flattens_multi_tuple_emissions(self):
        # The self-join emits one tuple per retained match: the default
        # process_batch must flatten exactly like the scalar loop does.
        logic = WindowedSelfJoin(window=2)
        task = Task(0, logic)
        out_keys, out_values = task.process_batch(
            ["s", "s", "s"], [1, 2, 3], 0
        )
        # 0 + 1 + 2 matches for the three consecutive tuples of one key.
        assert len(out_keys) == 3
        assert out_values == [(2, 1), (3, 1), (3, 2)]
