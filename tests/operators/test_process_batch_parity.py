"""Operator parity: the shipped ``process_batch`` must equal one per-tuple
reference call per tuple — emissions, windowed state and metrics — and the
interval statistics the stage plans on (router counts x ``batch_cost`` /
``batch_state_delta``) must equal the per-tuple reference models, for every
operator the repo ships (including the default ``OperatorLogic``).

``src/`` holds the batch contract only; the per-tuple semantics are the
oracle in ``reference_operators.py``.  The worker's hot loop runs
:meth:`repro.engine.operator.Task.process_batch` (one metrics update per
batch); any divergence from the per-tuple meaning would silently skew the
measured runtime numbers, so this is pinned per operator — and, since a
router cuts a stream wherever its ingress happens to be empty, for *every*
way of cutting an interval into batches (``TestChunkSplitInvariance``).
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_operators import PER_TUPLE, PerTuple, ReferenceTask, forward_and_retain, per_tuple_of

from repro.engine.operator import OperatorLogic, Task
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


def _value_cost(logic, key, value=None):
    return 0.25 * (1 + ((value or 0) & 3))


def _value_state(logic, key, value=None):
    return 0.5 * (1 + ((value or 0) & 1))


class ValueDependentOperator(OperatorLogic):
    """Cost and state both depend on the tuple *value*: pins the array branch
    of the batch models (and the base ``process_batch``, which accumulates
    what ``batch_state_delta`` says) to per-tuple evaluation."""

    name = "value-dependent"
    stateful = True

    def batch_cost(self, keys, values=None):
        values = [None] * len(keys) if values is None else values
        return np.array([_value_cost(self, key, value) for key, value in zip(keys, values)])

    def batch_state_delta(self, keys, values=None):
        values = [None] * len(keys) if values is None else values
        return np.array([_value_state(self, key, value) for key, value in zip(keys, values)])


PER_TUPLE[ValueDependentOperator] = PerTuple(_value_cost, _value_state, forward_and_retain)


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
    task = ReferenceTask(0, logic)
    outputs = []
    for interval, keys, values in stream:
        for key, value in zip(keys, values):
            outputs.extend(task.process(key, value, interval))
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
        assert batch_task.state_size == pytest.approx(
            scalar_task.state_size, rel=1e-12
        )

    def test_stage_statistics_match_per_key_models(self, name):
        # What the stage plans on: the router's per-key counts times the
        # batch models, against one per-tuple model call per key.
        logic = OPERATORS[name]()
        reference = per_tuple_of(logic)
        for interval, keys, _ in _stream():
            counts = Counter(keys)
            stats = _StageLoop._interval_stats(logic, interval, counts)
            assert stats.interval == interval
            assert list(stats.keys()) == list(counts)
            for key, count in counts.items():
                assert stats.frequency(key) == count
                assert stats.cost(key) == count * reference.cost(logic, key)
                assert stats.memory(key) == count * reference.state(logic, key)

    def test_batch_cost_matches_per_tuple_cost(self, name):
        logic = OPERATORS[name]()
        _, keys, values = _stream(seed=11)[0]
        costs = logic.batch_cost(keys, values)
        reference = per_tuple_of(logic)
        expected = [reference.cost(logic, key, value) for key, value in zip(keys, values)]
        if np.ndim(costs) == 0:
            assert [float(costs)] * len(keys) == expected
        else:
            assert costs.tolist() == expected

    def test_empty_batch_is_a_noop(self, name):
        task = Task(0, OPERATORS[name]())
        assert task.process_batch([], [], 0) == ([], [])
        assert task.metrics.tuples_processed == 0


def _run_split(logic, stream, cuts_of):
    """One task fed ``stream`` with interval ``i`` cut at ``cuts_of(i, n)``."""
    task = Task(0, logic)
    outputs = []
    for interval, keys, values in stream:
        bounds = [0, *sorted(cuts_of(interval, len(keys))), len(keys)]
        for start, stop in zip(bounds, bounds[1:]):
            out_keys, out_values = task.process_batch(keys[start:stop], values[start:stop], interval)
            assert len(out_keys) == len(out_values)
            outputs.extend(zip(out_keys, out_values))
        task.end_interval(interval)
    return task, outputs


@pytest.mark.parametrize("name", sorted(OPERATORS))
class TestChunkSplitInvariance:
    """A router dispatches whatever is waiting, so where an interval is cut
    into batches is an accident of timing: any split into consecutive chunks —
    all of size 1 included — must leave the same emissions, window payloads,
    per-key state sizes and processed cost as one call per interval.  (The
    batch-local running ``(payload, size)`` of ``accumulate_batch``, the lists
    and dicts grown in place and the self-join's reads of its own batch are
    the cases that could break.)  ``total_size()`` moves once per key per
    batch, so for a non-dyadic ``state_per_tuple`` it is split-invariant up
    to float summation order only."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_split_equals_one_call(self, name, data):
        # Four intervals against a window of two, so slots are evicted by a
        # batch's first tuple of a key while later tuples still read them.
        # Key 0 opens, halves and closes every interval and the cuts isolate
        # its first and last tuple: one key is hit by >= 3 chunks.
        tuples = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 9)), max_size=24)
        stream = []
        for interval, pairs in enumerate(data.draw(st.lists(tuples, min_size=1, max_size=4))):
            half = len(pairs) // 2
            pairs = [(0, 1), *pairs[:half], (0, 2), *pairs[half:], (0, 3)]
            stream.append((interval, [key for key, _ in pairs], [value for _, value in pairs]))
        cuts = {
            interval: {1, len(keys) - 1}
            | data.draw(st.sets(st.integers(1, len(keys) - 1)), label="cuts")
            for interval, keys, _ in stream
        }
        state_per_tuple = data.draw(st.sampled_from([None, 0.1, 0.3]), label="state_per_tuple")

        def build():
            logic = OPERATORS[name]()
            if state_per_tuple is not None:
                logic.state_per_tuple = state_per_tuple
            return logic

        whole_task, whole_out = _run_split(build(), stream, lambda i, n: ())
        for cuts_of in (lambda i, n: cuts[i], lambda i, n: range(1, n)):
            task, out = _run_split(build(), stream, cuts_of)
            assert out == whole_out
            assert _state_payloads(task) == _state_payloads(whole_task)
            for key in whole_task.state.keys():
                assert task.state.key_size(key) == whole_task.state.key_size(key)
            assert task.state.total_size() == pytest.approx(
                whole_task.state.total_size(), rel=1e-12
            )
            assert task.metrics.tuples_processed == whole_task.metrics.tuples_processed
            assert task.metrics.cost_processed == pytest.approx(
                whole_task.metrics.cost_processed, rel=1e-12
            )


class TestDimensionJoinHotKey:
    """A hot key's window list grows in place, written once per batch: its
    payload order and sizes must still equal the tuple-by-tuple path's
    exactly."""

    STREAM = [(0, ["hot", "hot", "cold", "hot"], [1, 2, 3, 4]), (0, ["hot", "cold"], [5, 6])]

    def test_payloads_and_sizes_equal_scalar_path(self):
        scalar = ReferenceTask(0, DimensionJoin(lookup=_nation_of, window=2, state_per_tuple=0.5))
        batched = Task(0, DimensionJoin(lookup=_nation_of, window=2, state_per_tuple=0.5))
        for interval, keys, values in self.STREAM:
            for key, value in zip(keys, values):
                scalar.process(key, value, interval)
            out_keys, out_values = batched.process_batch(keys, values, interval)
            assert out_keys == keys
            assert [value for value, _ in out_values] == values
        assert _state_payloads(batched) == {"hot": [[1, 2, 4, 5]], "cold": [[3, 6]]}
        assert _state_payloads(batched) == _state_payloads(scalar)
        for key in ("hot", "cold"):
            assert batched.state.key_size(key) == scalar.state.key_size(key)
        assert batched.state_size == scalar.state_size

    def test_snapshot_is_detached_from_later_batches(self):
        # The task owns its window lists and grows them in place; whoever
        # holds a snapshot keeps it while the task moves on to the next
        # batch, so the snapshot must hold copies.
        task = Task(0, DimensionJoin(lookup=_nation_of, window=2))
        task.process_batch(["hot", "hot"], [1, 2], 0)
        snapshot = task.snapshot_key("hot")
        task.process_batch(["hot"], [3], 0)
        assert snapshot == [(0, [1, 2], 2.0)]
        assert task.state.latest_payload("hot") == [1, 2, 3]


class TestLogicProcessBatchDefault:
    def test_default_flattens_multi_tuple_emissions(self):
        # The self-join emits one tuple per retained match: its process_batch
        # must flatten them in arrival order, oldest match first.
        logic = WindowedSelfJoin(window=2)
        task = Task(0, logic)
        out_keys, out_values = task.process_batch(
            ["s", "s", "s"], [1, 2, 3], 0
        )
        # 0 + 1 + 2 matches for the three consecutive tuples of one key.
        assert len(out_keys) == 3
        assert out_values == [(2, 1), (3, 1), (3, 2)]
