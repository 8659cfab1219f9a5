"""The per-tuple operator semantics, kept as the oracle for the batch-only contract in ``src/``.

Until PR 19 every shipped operator answered its three questions twice: a
per-tuple cost / state model next to ``batch_cost`` / ``batch_state_delta``, a
one-tuple ``process`` next to ``process_batch``, and ``Task.process`` on top.
``src/`` now keeps the batch half only.  The bodies below are the per-tuple
half, moved here unchanged apart from their shape: they are functions of the
shipped operator instance (whose configuration they read) instead of methods
on it, they take ``key, value, interval`` instead of a boxed tuple, and they
return ``(key, value)`` pairs.  Nothing under ``src/`` uses them;
``test_process_batch_parity.py`` asserts that the shipped ``process_batch``
produces, for any stream, the same emissions, window payloads, state sizes
and costs as one :class:`PerTuple` call per tuple.

Two deliberate differences from what was shipped:

* ``WindowedJoin`` is the join *cost model*; its two-stream event-level
  matching went with the per-tuple twin (it could not run through
  ``process_batch`` and nothing called it), so its reference here is the
  forward-and-retain default.
* ``WindowedSelfJoin`` stores the retained values of an interval as a plain
  list (as ``DimensionJoin`` does) where it used to store
  ``{"left": [...], "right": []}``; emissions and their order are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.engine.operator import OperatorLogic, TaskMetrics
from repro.engine.state import KeyedState
from repro.operators.tpch_q5 import DimensionJoin
from repro.operators.windowed_aggregate import (
    MergeOperator,
    PartialWindowedAggregate,
    WindowedAggregate,
)
from repro.operators.windowed_join import WindowedJoin, WindowedSelfJoin
from repro.operators.wordcount import WordCountOperator

Key = Hashable
Emissions = List[Tuple[Key, Any]]


# -- cost / state models: one call per tuple -----------------------------------


def _unit_cost(logic: OperatorLogic, key: Key, value: Any = None) -> float:
    return 1.0


def _unit_state(logic: OperatorLogic, key: Key, value: Any = None) -> float:
    return 1.0 if logic.stateful else 0.0


def _constant_cost(logic: OperatorLogic, key: Key, value: Any = None) -> float:
    return logic.cost_per_tuple


def _constant_state(logic: OperatorLogic, key: Key, value: Any = None) -> float:
    return logic.state_per_tuple


def _join_cost(logic: WindowedJoin, key: Key, value: Any = None) -> float:
    # One retained tuple per key is the fluid model's probe fan-out.
    return logic.cost_per_tuple + logic.cost_per_match * logic.match_factor


def _merge_state(logic: MergeOperator, key: Key, value: Any = None) -> float:
    # The merger only keeps the combined aggregate per key, not the tuples.
    return 0.1


# -- event-level model: one tuple against the task-local state -------------------


def forward_and_retain(
    logic: OperatorLogic, key: Key, value: Any, interval: int, state: KeyedState, task_id: int
) -> Emissions:
    """The base operator: forward the tuple unchanged and, for stateful
    operators, accumulate what the per-tuple state model says it adds."""
    if logic.stateful:
        state.accumulate(key, interval, per_tuple_of(logic).state(logic, key, value))
    return [(key, value)]


def _wordcount(
    logic: WordCountOperator, key: Key, value: Any, interval: int, state: KeyedState, task_id: int
) -> Emissions:
    count = state.accumulate(
        key, interval, logic.state_per_tuple, payload_update=lambda old: (old or 0) + 1
    )
    if not logic.emit_updates:
        return []
    return [(key, count)]


def _aggregate(
    logic: WindowedAggregate, key: Key, value: Any, interval: int, state: KeyedState, task_id: int
) -> Emissions:
    aggregate = state.accumulate(
        key,
        interval,
        logic.state_per_tuple,
        payload_update=lambda old: logic.reducer(old, value),
    )
    return [(key, aggregate)]


def _partial_aggregate(
    logic: PartialWindowedAggregate,
    key: Key,
    value: Any,
    interval: int,
    state: KeyedState,
    task_id: int,
) -> Emissions:
    partial = state.accumulate(
        key,
        interval,
        logic.state_per_tuple,
        payload_update=lambda old: logic.reducer(old, value),
    )
    partial_id = (logic.source_tag, task_id) if logic.source_tag else task_id
    return [(key, (partial_id, partial))]


def _merge(
    logic: MergeOperator, key: Key, value: Any, interval: int, state: KeyedState, task_id: int
) -> Emissions:
    if isinstance(value, tuple) and len(value) == 2:
        source, partial = value
    else:  # plain value (e.g. unit test feeding raw numbers)
        source, partial = 0, value

    def update(old: Optional[Dict[Any, Any]]) -> Dict[Any, Any]:
        merged = dict(old) if old else {}
        merged[source] = partial
        return merged

    partials = state.accumulate(key, interval, _merge_state(logic, key), payload_update=update)
    combined: Any = None
    for collected in partials.values():
        combined = logic.reducer(combined, collected)
    return [(key, combined)]


def _self_join(
    logic: WindowedSelfJoin, key: Key, value: Any, interval: int, state: KeyedState, task_id: int
) -> Emissions:
    # A tuple joins with every retained tuple of its key, across all retained
    # intervals.
    matches: List[Any] = []
    for payload in state.payloads(key):
        matches.extend(payload)

    def update(old: Optional[List[Any]]) -> List[Any]:
        return (old or []) + [value]

    state.accumulate(key, interval, logic.state_per_tuple, payload_update=update)
    return [(key, (value, match)) for match in matches]


def _dimension_join(
    logic: DimensionJoin, key: Key, value: Any, interval: int, state: KeyedState, task_id: int
) -> Emissions:
    # Keep the streaming tuple in the window (join state) and emit it
    # enriched with the dimension attribute.
    def update(old: Optional[List[Any]]) -> List[Any]:
        return (old or []) + [value]

    state.accumulate(key, interval, logic.state_per_tuple, payload_update=update)
    return [(key, (value, logic.lookup(key)))]


@dataclass(frozen=True)
class PerTuple:
    """One operator class's per-tuple answers: ``cost(logic, key, value)``,
    ``state(logic, key, value)`` and ``process(logic, key, value, interval,
    state, task_id) -> [(key, value), ...]``."""

    cost: Callable[..., float]
    state: Callable[..., float]
    process: Callable[..., Emissions]


#: The reference of every shipped operator, by exact class (a sub-class does
#: not inherit its parent's reference: the test file registers its own).
PER_TUPLE: Dict[type, PerTuple] = {
    OperatorLogic: PerTuple(_unit_cost, _unit_state, forward_and_retain),
    WordCountOperator: PerTuple(_constant_cost, _constant_state, _wordcount),
    WindowedAggregate: PerTuple(_constant_cost, _constant_state, _aggregate),
    PartialWindowedAggregate: PerTuple(_constant_cost, _constant_state, _partial_aggregate),
    MergeOperator: PerTuple(_constant_cost, _merge_state, _merge),
    WindowedJoin: PerTuple(_join_cost, _constant_state, forward_and_retain),
    WindowedSelfJoin: PerTuple(_join_cost, _constant_state, _self_join),
    DimensionJoin: PerTuple(_join_cost, _constant_state, _dimension_join),
}


def per_tuple_of(logic: OperatorLogic) -> PerTuple:
    return PER_TUPLE[type(logic)]


class ReferenceTask:
    """``Task`` as it processed one tuple at a time: one cost evaluation, one
    ``process`` and one counter update per tuple."""

    def __init__(self, task_id: int, logic: OperatorLogic) -> None:
        self.task_id = task_id
        self.logic = logic
        self.reference = per_tuple_of(logic)
        self.state = KeyedState(window=max(1, logic.window))
        self.metrics = TaskMetrics()

    def process(self, key: Key, value: Any, interval: int) -> Emissions:
        cost = self.reference.cost(self.logic, key, value)
        outputs = self.reference.process(
            self.logic, key, value, interval, self.state, self.task_id
        )
        self.metrics.tuples_processed += 1
        self.metrics.cost_processed += cost
        return outputs

    def end_interval(self, interval: int) -> None:
        if self.logic.stateful:
            self.state.expire(interval)

    @property
    def state_size(self) -> float:
        return self.state.total_size()
