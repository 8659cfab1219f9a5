"""Logical operators and their task instances.

An :class:`OperatorLogic` is written once, batch-wise.  It states the two
quantities the paper's planner consumes — the computation cost ``c(k)`` and
the windowed state ``S(k, w)`` a tuple adds — as two attributes
(:attr:`~OperatorLogic.cost_per_tuple`, :attr:`~OperatorLogic.state_per_tuple`)
and implements :meth:`~OperatorLogic.process_batch`: apply a batch of tuples
to the task-local keyed state, return the emissions.  There is no per-tuple
twin of any of the three; the per-tuple semantics the batches must equal live
in ``tests/operators/reference_operators.py`` as the oracle.

A :class:`Task` is one parallel instance of the operator: it owns a
:class:`~repro.engine.state.KeyedState`, applies the logic to the tuples routed
to it and counts what it processed (:class:`TaskMetrics`).  Its one way in is
:meth:`Task.process_batch` (the process runtime); the fluid simulator runs no
tasks and keeps the windowed state as statistics only.
"""

from __future__ import annotations

from abc import ABC
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.state import KeyedState

__all__ = ["BatchCost", "OperatorLogic", "Task", "TaskMetrics"]

Key = Hashable

#: A batch model's answer: either one scalar (the shared per-tuple value —
#: every constant/affine model, i.e. every shipped operator) or an array of
#: per-tuple values aligned with the batch's keys.
BatchCost = Union[float, np.ndarray]


class OperatorLogic(ABC):
    """Behavioural description of a logical operator.

    A sub-class sets :attr:`cost_per_tuple` / :attr:`state_per_tuple` (class
    attributes or in ``__init__``) and implements :meth:`process_batch`.  The
    defaults describe a unit-cost operator that forwards its input and, when
    :attr:`stateful`, retains one unit of state per tuple.
    """

    #: Operator name (topology display / metrics).
    name: str = "operator"
    #: Whether the operator keeps per-key state (and therefore needs key-based
    #: routing and state migration).
    stateful: bool = False
    #: Number of intervals of state retained per key.
    window: int = 1
    #: CPU cost units consumed by one tuple — the planner's ``c(k)`` per tuple.
    cost_per_tuple: float = 1.0
    #: Memory units of windowed state one tuple adds — ``S(k, w)`` per tuple
    #: (read as zero while the operator is not :attr:`stateful`).
    state_per_tuple: float = 1.0

    def batch_cost(
        self, keys: Sequence[Key], values: Optional[Sequence[Any]] = None
    ) -> BatchCost:
        """Processing cost of a batch, per tuple (router / worker / simulator).

        The scalar :attr:`cost_per_tuple`: callers multiply it by tuple
        counts, no per-tuple work at all.  An operator whose cost really
        depends on the key or the value overrides this to return an ndarray
        of per-tuple costs aligned with ``keys``, which callers
        ``np.bincount``-reduce.
        """
        return self.cost_per_tuple

    def batch_state_delta(
        self, keys: Sequence[Key], values: Optional[Sequence[Any]] = None
    ) -> BatchCost:
        """State added by a batch, per tuple (same shape as :meth:`batch_cost`)."""
        return self.state_per_tuple if self.stateful else 0.0

    def process_batch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: int,
        state: KeyedState,
        task_id: int,
    ) -> Tuple[List[Key], List[Any]]:
        """Apply a batch of tuples, in order, to the task-local ``state``.

        Returns the tuples emitted downstream as parallel ``(out_keys,
        out_values)`` lists.  The result must not depend on where a stream is
        cut into batches.  State goes through
        :meth:`~repro.engine.state.KeyedState.accumulate_batch` — one lookup
        into the interval's table per tuple — and belongs to the task: a list
        or dict payload may be grown in place, and no emitted value may be an
        object the state holds.  The default forwards the batch unchanged
        and, for stateful operators, accumulates what
        :meth:`batch_state_delta` says each tuple adds.
        """
        if self.stateful:
            deltas = self.batch_state_delta(keys, values)
            state.accumulate_batch(
                keys, values, interval, deltas.tolist() if np.ndim(deltas) else float(deltas)
            )
        return list(keys), list(values)

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
    migrations_in: int = 0
    migrations_out: int = 0


class Task:
    """One parallel instance of a logical operator.

    A task runs the logic, owns the windowed state and keeps the
    :class:`TaskMetrics` counters.  It does not measure per-key statistics:
    the router (process runtime) and the simulator count the keys they route
    and build the interval's :class:`~repro.core.statistics.IntervalStats`
    from those counts.  How much state it holds is
    :attr:`state_size`, read off the :class:`KeyedState` itself.
    """

    def __init__(self, task_id: int, logic: OperatorLogic) -> None:
        if task_id < 0:
            raise ValueError("task_id must be non-negative")
        self.task_id = int(task_id)
        self.logic = logic
        self.state = KeyedState(window=max(1, logic.window))
        self.metrics = TaskMetrics()
        self._interval_open = False

    # -- processing -------------------------------------------------------------------

    def process_batch(
        self, keys: Sequence[Key], values: Sequence[Any], interval: int
    ) -> Tuple[List[Key], List[Any]]:
        """Event-level processing of a batch (the runtime worker's way in).

        One :meth:`OperatorLogic.process_batch` call and one counter update
        per batch.  :meth:`~OperatorLogic.batch_cost` is evaluated **before**
        the processing mutates the windowed state, so a cost model that reads
        its own accumulated state sees pre-batch state.
        """
        self._interval_open = True
        count = len(keys)
        costs = self.logic.batch_cost(keys, values) if count else 0.0
        outputs = self.logic.process_batch(keys, values, interval, self.state, self.task_id)
        self.metrics.tuples_processed += count
        self.metrics.cost_processed += (
            float(np.sum(costs)) if np.ndim(costs) else float(costs) * count
        )
        return outputs

    @property
    def has_open_interval(self) -> bool:
        """True when tuples were processed since the last :meth:`end_interval`."""
        return self._interval_open

    def end_interval(self, interval: int) -> None:
        """Close ``interval``: expire the state that left the window.

        The horizon is the closing marker's interval, not the newest one the
        task saw: in a pipelined topology the task may already have processed
        tuples of a later interval from a fast upstream producer, and
        expiring at that watermark would drop window state one interval
        early.
        """
        if not self._interval_open:
            raise RuntimeError("end_interval called before any batch was processed")
        self._interval_open = False
        if self.logic.stateful:
            self.state.expire(interval)

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
