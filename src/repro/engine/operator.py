"""Logical operators and their task instances.

An :class:`OperatorLogic` describes *what* an operator does with a tuple: the
CPU cost of processing it, how much windowed state it adds for the tuple's key,
and (for the event-level API) the concrete processing function.  A
:class:`Task` is one parallel instance of the operator: it owns a
:class:`~repro.engine.state.KeyedState`, applies the logic to the tuples routed
to it and counts what it processed (:class:`TaskMetrics`).
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.state import KeyedState
from repro.engine.tuples import StreamTuple

__all__ = ["BatchCost", "OperatorLogic", "Task", "TaskMetrics"]

Key = Hashable

#: A whole batch's processing cost: either one scalar (the shared per-tuple
#: cost — every constant/affine cost model) or an array of per-tuple costs
#: aligned with the batch's keys.
BatchCost = Union[float, np.ndarray]


class OperatorLogic(ABC):
    """Behavioural description of a logical operator.

    Sub-classes override the cost/state models and, when event-level execution
    is wanted, :meth:`process`.  The defaults describe a stateless map-like
    operator with unit cost.
    """

    #: Operator name (topology display / metrics).
    name: str = "operator"
    #: Whether the operator keeps per-key state (and therefore needs key-based
    #: routing and state migration).
    stateful: bool = False
    #: Number of intervals of state retained per key.
    window: int = 1

    # -- fluid model ---------------------------------------------------------------

    def tuple_cost(self, key: Key, value: Any = None) -> float:
        """CPU cost units consumed by one tuple with ``key``."""
        return 1.0

    def state_delta(self, key: Key, value: Any = None) -> float:
        """Memory units of state added by one tuple with ``key``."""
        return 1.0 if self.stateful else 0.0

    def batch_cost(
        self, keys: Sequence[Key], values: Optional[Sequence[Any]] = None
    ) -> BatchCost:
        """Processing cost of a whole batch of tuples (router/worker hot path).

        Returns either a **scalar** — the shared per-tuple cost when every
        tuple of the batch costs the same, which is true of every constant or
        affine cost model in the repo (word count, windowed aggregate, the
        TPC-H joins) — or an ndarray of per-tuple costs aligned with
        ``keys``.  Callers multiply a scalar by per-destination tuple counts
        (no per-tuple work at all) and ``np.bincount``-reduce an array.

        The default falls back to one :meth:`tuple_cost` call per tuple, so
        any operator with a genuinely key/value-dependent cost stays correct
        without overriding anything.
        """
        if values is None:
            iterator = (self.tuple_cost(key) for key in keys)
        else:
            iterator = (
                self.tuple_cost(key, value) for key, value in zip(keys, values)
            )
        return np.fromiter(iterator, dtype=np.float64, count=len(keys))

    def batch_state_delta(
        self, keys: Sequence[Key], values: Optional[Sequence[Any]] = None
    ) -> BatchCost:
        """State added by a whole batch of tuples (same shape as batch_cost).

        Scalar when every tuple adds the same state (all shipped operators);
        the default falls back to one :meth:`state_delta` call per tuple —
        value included — so value-dependent state models stay exact.
        """
        if values is None:
            iterator = (self.state_delta(key) for key in keys)
        else:
            iterator = (
                self.state_delta(key, value) for key, value in zip(keys, values)
            )
        return np.fromiter(iterator, dtype=np.float64, count=len(keys))

    # -- event-level model ------------------------------------------------------------

    def process(
        self,
        tup: StreamTuple,
        state: KeyedState,
        task_id: int,
    ) -> List[StreamTuple]:
        """Process one tuple against the task-local ``state``.

        Returns the tuples emitted downstream.  The default implementation
        forwards the tuple unchanged and, for stateful operators, accumulates
        ``state_delta`` units of state for the key.
        """
        if self.stateful:
            state.accumulate(tup.key, tup.interval, self.state_delta(tup.key, tup.value))
        return [tup]

    def process_batch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: int,
        state: KeyedState,
        task_id: int,
    ) -> Tuple[List[Key], List[Any]]:
        """Process a whole batch; returns the emissions columnar.

        Semantically identical to calling :meth:`process` once per tuple (in
        order) and flattening the emitted tuples into parallel
        ``(out_keys, out_values)`` lists — which is exactly what this default
        does, so every operator is batch-callable.  Hot operators override it
        to skip the per-tuple :class:`StreamTuple` boxing, the kwargs dict
        and the output-list allocation of the scalar path.
        """
        out_keys: List[Key] = []
        out_values: List[Any] = []
        process = self.process
        for key, value in zip(keys, values):
            for tup in process(
                StreamTuple(key=key, value=value, interval=interval), state, task_id
            ):
                out_keys.append(tup.key)
                out_values.append(tup.value)
        return out_keys, out_values

    #: Whether the operator participates in the split-key execution mode:
    #: its emissions are *partial* aggregates that a downstream merge stage
    #: recombines per original key via :meth:`merge`.
    mergeable: bool = False

    def merge(self, key: Key, partials: Sequence[Any]) -> Any:
        """Combine split-key partial aggregates of ``key`` into one value.

        The merge-stage contract of the PKG execution mode (paper Fig. 2):
        an upstream operator fans a hot key's tuples across replicas, each
        replica emits a partial result, and the merge stage — fed by one or
        more upstream branches — calls this with every partial collected for
        ``key``.  Must be associative in the partials (replicas and branches
        deliver in arbitrary order) so that merging any grouping of the
        partials yields the same value.

        Only meaningful when :attr:`mergeable` is True; key-contiguous
        operators have nothing to merge.
        """
        raise NotImplementedError(
            f"{type(self).__name__} is not mergeable: it emits final values, "
            f"not split-key partials"
        )

    def merge_overhead(self, distinct_partials: int) -> float:
        """Extra per-interval cost of merging split-key partial results.

        Only non-zero for operators that support the PKG execution mode; the
        default (key-contiguous operators) is zero.
        """
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, stateful={self.stateful})"


@dataclass
class TaskMetrics:
    """Running counters of one task instance."""

    tuples_processed: int = 0
    cost_processed: float = 0.0
    state_installed: float = 0.0
    state_evicted: float = 0.0
    migrations_in: int = 0
    migrations_out: int = 0


def _running_sum(per_tuple: BatchCost, count: int) -> float:
    """Left-to-right sum of a batch's per-tuple values (a scalar counts once
    per tuple) — the additions the scalar path makes, in its order."""
    values = per_tuple.tolist() if np.ndim(per_tuple) else [float(per_tuple)] * count
    total = 0.0
    for value in values:
        total += value
    return total


class Task:
    """One parallel instance of a logical operator.

    A task runs the logic, owns the windowed state and keeps the
    :class:`TaskMetrics` counters.  It does not measure per-key statistics:
    the router (process runtime) and the simulator count the keys they route
    and build the interval's :class:`~repro.core.statistics.IntervalStats`
    from those counts.
    """

    def __init__(self, task_id: int, logic: OperatorLogic) -> None:
        if task_id < 0:
            raise ValueError("task_id must be non-negative")
        self.task_id = int(task_id)
        self.logic = logic
        self.state = KeyedState(window=max(1, logic.window))
        self.metrics = TaskMetrics()
        self._interval_open = False
        self._current_interval: Optional[int] = None

    # -- processing -------------------------------------------------------------------

    def begin_interval(self, interval: int) -> None:
        """Open ``interval`` (called by the simulator)."""
        self._current_interval = interval
        self._interval_open = True

    def process(self, tup: StreamTuple) -> List[StreamTuple]:
        """Event-level processing of a single tuple."""
        if not self._interval_open:
            self.begin_interval(tup.interval)
        cost = self.logic.tuple_cost(tup.key, tup.value)
        delta = self.logic.state_delta(tup.key, tup.value)
        outputs = self.logic.process(tup, self.state, self.task_id)
        self.metrics.tuples_processed += 1
        self.metrics.cost_processed += cost
        self.metrics.state_installed += delta
        return outputs

    def process_batch(
        self, keys: Sequence[Key], values: Sequence[Any], interval: int
    ) -> Tuple[List[Key], List[Any]]:
        """Event-level processing of a whole batch (runtime worker hot path).

        The batch sibling of :meth:`process`: the operator logic runs once
        per tuple (through :meth:`OperatorLogic.process_batch`, which hot
        operators vectorise), but the metrics counters are updated **once
        per batch** from the operator's :meth:`~OperatorLogic.batch_cost` /
        :meth:`~OperatorLogic.batch_state_delta`.  Both batch models default
        to exact per-tuple evaluation (value included) and are evaluated
        **before** the processing mutates the windowed state, matching the
        scalar path's ordering (a cost model that reads its own accumulated
        state still sees pre-batch rather than pre-tuple state — chunk
        granularity is the documented resolution of the batch path).
        """
        if not self._interval_open:
            self.begin_interval(interval)
        logic = self.logic
        count = len(keys)
        if count:
            costs = logic.batch_cost(keys, values)
            deltas = logic.batch_state_delta(keys, values)
        outputs = logic.process_batch(keys, values, interval, self.state, self.task_id)
        if count:
            self.metrics.tuples_processed += count
            if np.ndim(costs) == 0 and np.ndim(deltas) == 0:
                self.metrics.cost_processed += float(costs) * count
                self.metrics.state_installed += float(deltas) * count
            else:
                self.metrics.cost_processed += _running_sum(costs, count)
                self.metrics.state_installed += _running_sum(deltas, count)
        return outputs

    def ingest_counts(
        self,
        interval: int,
        frequencies: Dict[Key, float],
        cost_of: Optional[Dict[Key, float]] = None,
        delta_of: Optional[Dict[Key, float]] = None,
    ) -> None:
        """Fluid-model ingestion: account for ``frequencies`` without running
        the event-level logic (used by the interval simulator for speed).

        ``cost_of``/``delta_of`` optionally carry per-key unit cost and state
        delta precomputed by the caller (the simulator evaluates them once per
        snapshot and shares the maps across all tasks of the stage).
        """
        if not self._interval_open or self._current_interval != interval:
            self.begin_interval(interval)
        logic = self.logic
        stateful = logic.stateful
        state = self.state
        tuples = 0
        total_cost = 0.0
        total_delta = 0.0
        for key, freq in frequencies.items():
            unit_cost = cost_of[key] if cost_of is not None else logic.tuple_cost(key)
            unit_delta = delta_of[key] if delta_of is not None else logic.state_delta(key)
            delta = unit_delta * freq
            if stateful and delta > 0:
                state.accumulate(key, interval, delta)
            tuples += int(freq)
            total_cost += unit_cost * freq
            total_delta += delta
        self.metrics.tuples_processed += tuples
        self.metrics.cost_processed += total_cost
        self.metrics.state_installed += total_delta

    @property
    def has_open_interval(self) -> bool:
        """True when tuples were processed since the last :meth:`end_interval`."""
        return self._interval_open

    def end_interval(self, interval: Optional[int] = None) -> None:
        """Close the current interval: expire the state that left the window.

        ``interval`` overrides the expiry horizon (default: the interval that
        was opened).  The process runtime passes the marker's interval
        explicitly: in a pipelined topology the task may already have
        processed tuples of a later interval from a fast upstream producer,
        and expiring at that watermark would drop window state one interval
        early.
        """
        if not self._interval_open:
            raise RuntimeError("end_interval called before begin_interval")
        self._interval_open = False
        horizon = interval if interval is not None else self._current_interval
        if self.logic.stateful and horizon is not None:
            before = self.state.total_size()
            self.state.expire(horizon)
            self.metrics.state_evicted += before - self.state.total_size()

    # -- migration ------------------------------------------------------------------------

    def extract_key(self, key: Key):
        """Hand over the windowed state of ``key`` (source side of a move)."""
        self.metrics.migrations_out += 1
        return self.state.extract(key)

    def snapshot_key(self, key: Key):
        """Copy the windowed state of ``key`` without giving it up.

        Checkpointing path: unlike :meth:`extract_key` the key stays owned
        by (and served on) this task, and no migration is counted.
        """
        return self.state.snapshot(key)

    def install_key(self, key: Key, snapshot) -> None:
        """Receive the windowed state of ``key`` (target side of a move)."""
        self.metrics.migrations_in += 1
        self.state.install(key, snapshot)

    @property
    def state_size(self) -> float:
        """Total windowed state currently held by the task."""
        return self.state.total_size()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task(id={self.task_id}, logic={self.logic.name!r}, keys={len(self.state)})"
