"""Batch dispatcher feeding the worker queues.

The router is the runtime twin of the simulator's snapshot routing: it groups
each chunk of tuples by destination with the partitioner's memoised
:meth:`~repro.baselines.base.Partitioner.assign_batch` fast path and enqueues
one :class:`~repro.runtime.messages.TupleBatch` per destination worker.  A
chunk is whatever the stage loop hands to :meth:`StreamRouter.dispatch`, cut
at ``batch_size``: one ingress message when the router keeps up with its
producers, several small ones merged (``stage_loop.coalesce_ingress``) when
they were already waiting — so the per-chunk and per-message costs below are
paid per ``batch_size`` tuples, not per upstream message.

The dispatch path is **chunk-vectorised**: per chunk it performs one
``assign_batch`` call, one :class:`collections.Counter` update over the keys,
one ``np.bincount`` over the destination array for per-task tuple counts, one
batched cost evaluation (:meth:`~repro.engine.operator.OperatorLogic.
batch_cost` — a scalar multiply for the constant/affine cost operators), and
one stable argsort that builds every destination's columnar tuple list in a
single pass.  No per-tuple Python bookkeeping runs on the common path, so the
coordinator thread stops being the measured bottleneck before the workers are
(ROADMAP "Router fast path").

The worker queues are *bounded*: a full one blocks the dispatcher, so the
whole pipeline runs at the pace of the slowest task — Storm's backpushing
effect, the very phenomenon the paper measures.  Nothing is dropped.

During a live migration the controller *pauses* the affected keys: their
tuples are held in a router-side buffer (stamped on arrival, so the pause
shows up in their measured latency) and are re-dispatched under the new
assignment when the controller resumes — grouped by their logical interval,
so a buffer spanning an interval boundary never mis-tags downstream
accounting.  The common no-migration case pays only one ``if`` per chunk for
this machinery.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.baselines.base import Partitioner
from repro.engine.operator import OperatorLogic
from repro.runtime.messages import TupleBatch

__all__ = ["IntervalAccount", "StreamRouter"]

Key = Hashable


class IntervalAccount:
    """Dispatch accounting of one logical interval.

    Kept per interval (not per "current interval") because a pipelined
    upstream stage can emit tuples of interval ``k+1`` before interval
    ``k`` closed downstream; charging them to the open interval would feed
    the rebalancing planner and the skewness metrics mixed-interval
    statistics.

    Per-task quantities are **dense arrays** indexed by task id — the
    vectorised dispatch adds whole ``np.bincount`` results to them — and are
    converted to the ``{task: value}`` dict shape consumers expect only when
    the interval closes (the :attr:`offered_cost` view), keeping the report
    schemas unchanged.
    """

    __slots__ = ("freqs", "offered_tuples_by_task", "offered_cost_by_task")

    def __init__(self, num_tasks: int) -> None:
        #: Per-key dispatch counts (integer-exact); the interval's statistics
        #: are built from them at the close.
        self.freqs: Counter = Counter()
        self.offered_tuples_by_task = np.zeros(num_tasks, dtype=np.float64)
        self.offered_cost_by_task = np.zeros(num_tasks, dtype=np.float64)

    def fit(self, num_tasks: int) -> None:
        """Grow the dense arrays to cover ``num_tasks`` tasks (elastic scale).

        An account can outlive a resize in either direction: a pipelined
        upstream may emit next-interval tuples before the boundary at which
        the stage scales out (the account exists, sized for the old group),
        and after a scale-in the arrays intentionally keep their old length
        so the drained tasks' already-charged counts survive into the
        interval report.  Growing is therefore the only adjustment.
        """
        have = len(self.offered_tuples_by_task)
        if num_tasks > have:
            pad = np.zeros(num_tasks - have, dtype=np.float64)
            self.offered_tuples_by_task = np.concatenate(
                [self.offered_tuples_by_task, pad]
            )
            self.offered_cost_by_task = np.concatenate(
                [self.offered_cost_by_task, pad]
            )

    @property
    def offered_cost(self) -> Dict[int, float]:
        """Dense ``{task: offered cost}`` view (every task present)."""
        return dict(enumerate(self.offered_cost_by_task.tolist()))


class StreamRouter:
    """Routes micro-batches of ``(key, value)`` tuples to worker queues."""

    def __init__(
        self,
        partitioner: Partitioner,
        logic: OperatorLogic,
        worker_queues: Sequence[Any],
        *,
        batch_size: int = 256,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.partitioner = partitioner
        self.logic = logic
        #: Destination queues (``abortable_queues``).  In production these
        #: are abort-aware proxies (``runtime.queues._AbortableQueue``), so
        #: the blocking no-timeout put below cannot hang past a crashed run —
        #: the RPL002 lint rule recognises the receiver by this name.
        self.set_queues(worker_queues)
        self.batch_size = int(batch_size)
        #: Lifetime transport counters: routed chunks, and the ``TupleBatch``
        #: messages (and the tuples in them) the worker queues accepted.
        self.chunks = 0
        self.worker_messages = 0
        self.worker_tuples = 0

        self._paused_keys: set = set()
        #: Held tuples of paused keys: ``(key, value, interval, buffered_at,
        #: origin_at)``.
        self._pause_buffer: List[Tuple[Key, Any, int, float, float]] = []

        # Dispatch accounting, bucketed by the batches' logical interval.
        self._accounts: Dict[int, IntervalAccount] = {}
        self._interval = 0

        #: Cumulative split-key routing statistics (``None`` until a
        #: snapshot finds a key-splitting partitioner underneath).
        self._split_stats: Optional[Dict[str, float]] = None

    # -- interval accounting ------------------------------------------------------

    def _account(self, interval: int) -> IntervalAccount:
        account = self._accounts.get(interval)
        if account is None:
            account = self._accounts[interval] = IntervalAccount(self._num_tasks)
        return account

    def begin_interval(self, interval: int) -> None:
        """Advance the default interval tag (untagged dispatch charges here)."""
        self._interval = int(interval)
        self._account(self._interval)

    def pop_interval(self, interval: int) -> IntervalAccount:
        """Take (and drop) the closed interval's dispatch accounting."""
        return self._accounts.pop(interval, None) or IntervalAccount(
            self._num_tasks
        )

    # -- dispatch -----------------------------------------------------------------

    def dispatch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        pump: Optional[Callable[[], None]] = None,
        *,
        interval: Optional[int] = None,
        origin_at: Optional[float] = None,
    ) -> None:
        """Route and enqueue a columnar tuple batch in micro-batch chunks.

        ``keys``/``values`` are the parallel lists of one
        :class:`~repro.runtime.messages.EmittedBatch`, of several of the same
        interval the stage loop merged, or of any materialised columnar
        stream slice.  ``pump`` is called between micro-batches;
        the coordinator uses it to advance an in-flight migration hand-off
        while dispatch continues.  ``interval`` tags the dispatched batches
        (default: the router's current interval — in a pipelined topology an
        upstream stage may still emit tuples of an earlier interval);
        ``origin_at`` carries the source-offer stamp of the oldest tuple for
        end-to-end latency.
        """
        if len(keys) != len(values):
            raise ValueError(
                f"columnar batch length mismatch: {len(keys)} keys vs "
                f"{len(values)} values"
            )
        batch_size = self.batch_size
        if len(keys) <= batch_size:
            if keys:
                self._dispatch_chunk(keys, values, interval, origin_at)
                if pump is not None:
                    pump()
            return
        for start in range(0, len(keys), batch_size):
            stop = start + batch_size
            self._dispatch_chunk(keys[start:stop], values[start:stop], interval, origin_at)
            if pump is not None:
                pump()

    def _dispatch_chunk(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: Optional[int] = None,
        origin_at: Optional[float] = None,
    ) -> None:
        self.chunks += 1
        destinations = self.partitioner.assign_batch_array(keys)
        now = time.monotonic()
        tag = self._interval if interval is None else int(interval)
        origin = now if origin_at is None else origin_at
        account = self._account(tag)

        # One-pass chunk accounting: no per-tuple dict updates.  Sliced adds
        # because an account's arrays can be larger than the current task
        # group after an elastic scale-in (``IntervalAccount.fit``).
        account.freqs.update(keys)
        account.fit(self._num_tasks)
        counts = np.bincount(destinations, minlength=self._num_tasks)
        account.offered_tuples_by_task[: len(counts)] += counts
        costs = self.logic.batch_cost(keys, values)
        if np.ndim(costs) == 0:
            account.offered_cost_by_task[: len(counts)] += counts * float(costs)
        else:
            account.offered_cost_by_task[: len(counts)] += np.bincount(
                destinations,
                weights=np.asarray(costs, dtype=np.float64),
                minlength=self._num_tasks,
            )

        if self._paused_keys:  # rare: a live migration hand-off is in flight
            keys, values, destinations, counts = self._buffer_paused(
                keys, values, destinations, tag, now, origin
            )
            if not keys:
                return
        self._enqueue_grouped(keys, values, destinations, counts, tag, now, origin)

    def _buffer_paused(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        destinations: np.ndarray,
        tag: int,
        now: float,
        origin: float,
    ) -> Tuple[List[Key], List[Any], np.ndarray, np.ndarray]:
        """Divert tuples of paused keys into the pause buffer (slow path)."""
        paused = self._paused_keys
        buffer_append = self._pause_buffer.append
        kept_keys: List[Key] = []
        kept_values: List[Any] = []
        kept_dest: List[int] = []
        for key, value, task in zip(keys, values, destinations.tolist()):
            if key in paused:
                buffer_append((key, value, tag, now, origin))
            else:
                kept_keys.append(key)
                kept_values.append(value)
                kept_dest.append(task)
        dest = np.asarray(kept_dest, dtype=np.intp)
        counts = np.bincount(dest, minlength=self._num_tasks)
        return kept_keys, kept_values, dest, counts

    def _enqueue_grouped(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        destinations: np.ndarray,
        counts: np.ndarray,
        tag: int,
        sent_at: float,
        origin: float,
    ) -> None:
        """Group a routed chunk task-major and enqueue one batch per task.

        A stable argsort of the destination array yields every task's tuple
        indices as one contiguous segment, with the original order preserved
        inside each segment — the per-key FIFO order the migration protocol
        relies on.  Keys/values are gathered through object-dtype fancy
        indexing, so the grouping is a single C-level pass instead of a
        per-tuple ``setdefault``/``append`` loop.
        """
        count = len(keys)
        if count == 0:
            return
        tasks = np.flatnonzero(counts)
        if len(tasks) == 1:
            # Whole chunk goes to one worker: skip the sort and the gathers.
            self._put(
                int(tasks[0]),
                TupleBatch(
                    interval=tag,
                    sent_at=sent_at,
                    keys=list(keys),
                    values=list(values),
                    origin_at=origin,
                ),
            )
            return
        order = np.argsort(destinations, kind="stable")
        # ``fromiter`` (not ``array``): elements may themselves be tuples,
        # which np.array would try to broadcast into a 2-D array.
        keys_arr = np.fromiter(keys, dtype=object, count=count)
        values_arr = np.fromiter(values, dtype=object, count=count)
        ends = np.cumsum(counts)
        for task in tasks.tolist():
            end = ends[task]
            segment = order[end - counts[task] : end]
            self._put(
                task,
                TupleBatch(
                    interval=tag,
                    sent_at=sent_at,
                    keys=keys_arr[segment].tolist(),
                    values=values_arr[segment].tolist(),
                    origin_at=origin,
                ),
            )

    def _put(self, task: int, batch: TupleBatch) -> None:
        self.abortable_queues[task].put(batch)
        self.worker_messages += 1
        self.worker_tuples += len(batch.keys)

    # -- split-key routing statistics ---------------------------------------------

    def snapshot_split_stats(self) -> Optional[Dict[str, float]]:
        """Fold the partitioner's per-interval split bookkeeping into the
        router's cumulative split-key statistics.

        Key-splitting partitioners (PKG) fan a key's tuples over several
        replicas and track the fan in ``split_counts``; the coordinator calls
        this at each interval close, *before*
        :meth:`~repro.baselines.base.Partitioner.on_interval_end` resets that
        book.  Returns the updated totals, or ``None`` for key-contiguous
        partitioners (nothing to read — every key has exactly one replica).
        """
        split_counts = getattr(self.partitioner, "split_counts", None)
        if split_counts is None:
            return None
        stats = self._split_stats
        if stats is None:
            stats = self._split_stats = {
                "routed_keys": 0.0,
                "split_keys": 0.0,
                "split_tuples": 0.0,
                "total_partials": 0.0,
                "max_partials_per_key": 0.0,
            }
        for per_task in split_counts.values():
            fan = len(per_task)
            stats["routed_keys"] += 1.0
            stats["total_partials"] += float(fan)
            if fan > 1:
                stats["split_keys"] += 1.0
                stats["split_tuples"] += float(sum(per_task.values()))
            if fan > stats["max_partials_per_key"]:
                stats["max_partials_per_key"] = float(fan)
        return dict(stats)

    @property
    def split_stats(self) -> Optional[Dict[str, float]]:
        """Cumulative split-key statistics across closed intervals (a copy)."""
        return None if self._split_stats is None else dict(self._split_stats)

    # -- elastic scaling ----------------------------------------------------------

    def set_queues(self, worker_queues: Sequence[Any]) -> None:
        """Point the router at a resized worker-queue list (elastic scaling).

        Called at an interval boundary with dispatch quiescent, after the
        partitioner was resized — the new list must match its task count.
        """
        if len(worker_queues) != self.partitioner.num_tasks:
            raise ValueError(
                f"partitioner routes over {self.partitioner.num_tasks} tasks "
                f"but {len(worker_queues)} worker queues were given"
            )
        self.abortable_queues = list(worker_queues)
        self._num_tasks = len(self.abortable_queues)

    # -- pause / resume (live migration support) ----------------------------------

    def pause(self, keys) -> None:
        """Stop dispatching ``keys``; their tuples are buffered until resume."""
        self._paused_keys.update(keys)

    def resume(self) -> int:
        """Release every paused key and re-dispatch the buffered tuples.

        The buffered tuples are routed under the *current* assignment (the
        rebalanced one), **grouped by the logical interval they were
        buffered under** — a pause can span an interval boundary, and
        re-dispatching a mixed buffer under one tag would mis-charge the
        downstream per-interval accounting.  Each released chunk is stamped
        with its oldest buffering time, so the pause the tuples sat through
        is part of their measured latency.  Returns the number of released
        tuples.
        """
        self._paused_keys.clear()
        buffered, self._pause_buffer = self._pause_buffer, []
        if not buffered:
            return 0
        by_interval: Dict[int, List[Tuple[Key, Any, int, float, float]]] = {}
        for entry in buffered:
            by_interval.setdefault(entry[2], []).append(entry)
        for tag in sorted(by_interval):
            entries = by_interval[tag]
            for start in range(0, len(entries), self.batch_size):
                chunk = entries[start : start + self.batch_size]
                keys = [entry[0] for entry in chunk]
                values = [entry[1] for entry in chunk]
                destinations = self.partitioner.assign_batch_array(keys)
                counts = np.bincount(destinations, minlength=self._num_tasks)
                # Stamped with the chunk's oldest buffer time so the wait is
                # charged to the released tuples' latency.
                oldest = min(entry[3] for entry in chunk)
                origin = min(entry[4] for entry in chunk)
                self._enqueue_grouped(
                    keys, values, destinations, counts, tag, oldest, origin
                )
        return len(buffered)

    @property
    def paused_keys(self) -> frozenset:
        return frozenset(self._paused_keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamRouter(tasks={len(self.abortable_queues)}, "
            f"batch={self.batch_size}, paused={len(self._paused_keys)})"
        )
