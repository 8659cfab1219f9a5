"""Windowed key aggregation, with and without key splitting.

Two execution modes are provided:

* :class:`WindowedAggregate` — the key-contiguous version: every tuple of a key
  is processed by a single task, which maintains the full aggregate for the
  window.  This is the mode the mixed-routing strategies use.
* :class:`PartialWindowedAggregate` + :class:`MergeOperator` — the split-key
  version required by PKG (Fig. 2(a) of the paper): each task only holds a
  *partial* aggregate for the keys it happens to receive, and a downstream
  merge operator combines the partials every ``merge_period`` milliseconds.
  The merge stage is what costs PKG its extra latency and throughput in the
  paper's comparison.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.engine.operator import OperatorLogic
from repro.engine.state import KeyedState

__all__ = ["WindowedAggregate", "PartialWindowedAggregate", "MergeOperator"]

Key = Hashable
Reducer = Callable[[Any, Any], Any]


def _default_reducer(accumulator: Any, value: Any) -> Any:
    """Sum-like reduction treating ``None`` as the identity."""
    if accumulator is None:
        return value if value is not None else 1
    if value is None:
        return accumulator + 1
    return accumulator + value


class WindowedAggregate(OperatorLogic):
    """Key-contiguous aggregation over a sliding window.

    Parameters
    ----------
    reducer:
        Function folding a tuple's value into the per-key accumulator.
    window:
        Intervals of state retained.
    cost_per_tuple / state_per_tuple:
        Fluid-model coefficients.
    """

    name = "windowed-aggregate"
    stateful = True

    def __init__(
        self,
        reducer: Optional[Reducer] = None,
        window: int = 1,
        cost_per_tuple: float = 1.0,
        state_per_tuple: float = 1.0,
    ) -> None:
        if cost_per_tuple <= 0:
            raise ValueError("cost_per_tuple must be positive")
        if state_per_tuple < 0:
            raise ValueError("state_per_tuple must be non-negative")
        self.reducer = reducer if reducer is not None else _default_reducer
        self.window = int(window)
        self.cost_per_tuple = float(cost_per_tuple)
        self.state_per_tuple = float(state_per_tuple)

    def process_batch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: int,
        state: KeyedState,
        task_id: int,
    ) -> Tuple[List[Key], List[Any]]:
        # Emits the key's aggregate after each tuple, in arrival order.
        aggregates = state.accumulate_batch(
            keys, values, interval, self.state_per_tuple, self.reducer
        )
        return list(keys), aggregates


class PartialWindowedAggregate(WindowedAggregate):
    """The upstream half of the PKG execution mode.

    Behaviourally identical to :class:`WindowedAggregate`, but each task only
    sees the share of a key's tuples the splitter routed to it, so its state is
    a *partial* aggregate.  Emitted tuples are tagged with the producing task
    so the merger can deduplicate.

    ``source_tag`` labels the *stage* producing the partial: in a DAG whose
    merge stage fans in from several split stages, task ids collide across
    stages, so each branch tags its partials ``(source_tag, task_id)`` and the
    merger keeps one slot per (stage, task) instead of overwriting a sibling
    branch's partial.
    """

    name = "partial-aggregate"
    mergeable = True

    def __init__(
        self,
        reducer: Optional[Reducer] = None,
        window: int = 1,
        cost_per_tuple: float = 1.0,
        state_per_tuple: float = 1.0,
        source_tag: str = "",
    ) -> None:
        super().__init__(
            reducer=reducer,
            window=window,
            cost_per_tuple=cost_per_tuple,
            state_per_tuple=state_per_tuple,
        )
        self.source_tag = source_tag

    def _partial_id(self, task_id: int) -> Any:
        return (self.source_tag, task_id) if self.source_tag else task_id

    def process_batch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: int,
        state: KeyedState,
        task_id: int,
    ) -> Tuple[List[Key], List[Any]]:
        # The parent's aggregates, each tagged with the producing task so the
        # downstream merger can deduplicate.
        out_keys, partials = super().process_batch(keys, values, interval, state, task_id)
        partial_id = self._partial_id(task_id)
        return out_keys, [(partial_id, partial) for partial in partials]

    def merge(self, key: Key, partials: Sequence[Any]) -> Any:
        """Fold split-key partials of ``key`` with the aggregate's reducer."""
        result: Any = None
        for partial in partials:
            result = self.reducer(result, partial)
        return result

    def merge_overhead(self, distinct_partials: int) -> float:
        # One merge unit of work per (key, task) partial produced this interval.
        return float(distinct_partials)


class MergeOperator(OperatorLogic):
    """Downstream merger combining the partial aggregates of a key.

    Keys are routed to the merger by plain hashing (every partial of a key must
    meet at a single merger task), so the merger itself is a stateful
    key-contiguous operator — the extra hop PKG cannot avoid.  Partials arrive
    as ``(partial_id, partial)`` pairs; the id is the producing task, or a
    ``(source_tag, task_id)`` pair when several split stages fan in to the
    merger, so sibling branches never overwrite each other's slot.
    """

    name = "merge"
    stateful = True
    mergeable = True
    #: The merger only keeps the combined aggregate per key, not the tuples.
    state_per_tuple = 0.1

    def __init__(
        self,
        reducer: Optional[Reducer] = None,
        window: int = 1,
        cost_per_partial: float = 1.0,
    ) -> None:
        if cost_per_partial <= 0:
            raise ValueError("cost_per_partial must be positive")
        self.reducer = reducer if reducer is not None else _default_reducer
        self.window = int(window)
        self.cost_per_tuple = float(cost_per_partial)

    def merge(self, key: Key, partials: Sequence[Any]) -> Any:
        """Fold the collected per-producer partials of ``key`` into one value."""
        combined: Any = None
        for value in partials:
            combined = self.reducer(combined, value)
        return combined

    def process_batch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: int,
        state: KeyedState,
        task_id: int,
    ) -> Tuple[List[Key], List[Any]]:
        # A key's payload is its ``{producer: partial}`` dict, updated in
        # place; what is emitted after each tuple is the fold of the dict's
        # values at that moment, so it is taken inside the fold.
        merge = self.merge
        out_values: List[Any] = []
        emit = out_values.append

        def absorb(old: Optional[Dict[Any, Any]], keyed: Tuple[Key, Any]) -> Dict[Any, Any]:
            key, value = keyed
            if isinstance(value, tuple) and len(value) == 2:
                source, partial = value
            else:  # plain value (e.g. unit test feeding raw numbers)
                source, partial = 0, value
            partials = {} if old is None else old
            partials[source] = partial
            emit(merge(key, list(partials.values())))
            return partials

        state.accumulate_batch(keys, zip(keys, values), interval, self.state_per_tuple, absorb)
        return list(keys), out_values
