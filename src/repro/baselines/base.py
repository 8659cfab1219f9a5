"""The partitioner interface and the one rebalance loop.

The engine talks to every strategy through the small :class:`Partitioner`
protocol:

* :meth:`Partitioner.route` decides the destination task of one tuple;
* :meth:`Partitioner.assign_batch` and :meth:`Partitioner.route_snapshot` are
  the batch fast path: an entire ``{key: count}`` interval snapshot is routed
  in a single call (memoised key→task results for deterministic strategies)
  instead of one Python call per key;
* :meth:`Partitioner.on_interval_end` hands the partitioner the statistics of
  the finished interval and lets it rebalance; it returns a
  :class:`~repro.core.planner.RebalanceResult` when keys (and their state) were
  migrated, or ``None`` when nothing changed;
* :meth:`Partitioner.supports_stateful` advertises whether the strategy keeps
  the key-contiguity guarantee stateful operators need (PKG does not);
* :meth:`Partitioner.resize` scales the strategy and returns the placement
  diff the resize makes — the keys whose state both engines migrate.

:class:`RebalancingPartitioner` is the paper's framework (Fig. 5) written
once: observe the interval, compare ``θ`` with ``θ_max``, plan ``F′``, install
it, hand back ``Δ(F, F′)``.  The paper's algorithms, the compact planner and
the two table-based competitors (Readj, DKG) all use the same mixed hash +
routing-table assignment and differ only in the planning step, so each is
this class around a :class:`~repro.core.planner.Planner`; the registry
builders in :mod:`repro.engine.strategies` say which.

Strategies whose ``route`` is deterministic, side-effect free and
key-contiguous (plain hashing, every rebalancing strategy) declare
``cache_routes = True``: the base class then memoises key→task results
across intervals in **one** ``{key: task}`` memo, read by one miss-filling
``map(memo.get, keys)`` behind :meth:`Partitioner.assign_batch`,
:meth:`Partitioner.assign_batch_array` and :meth:`Partitioner.route_snapshot`.
Keys that are one dict key hash alike (:mod:`repro.core.hashing`) and share
one routing-table entry, so they share one route and one memo entry.
A rebalance re-routes only the keys whose routing-table entry changed, so
:class:`RebalancingPartitioner` rewrites exactly those memo entries and keeps
the rest; a resize (or any assignment change the base class did not see — the
epoch of :meth:`Partitioner._route_epoch` moved) drops the memo.

:meth:`Partitioner.route_snapshot` of a memoising strategy reads the
snapshot's columns (:class:`~repro.core.snapshot.Snapshot`; a mapping is
converted once) and keeps one :class:`_SnapshotPlan` — the last live key
list it routed, grouped by task, with the counts it handed out — across
intervals.  A stationary key population (the same key tuple, or one listing
the same keys) is then routed in time proportional to what changed since
the last call: the keys a rebalance re-routed are handed to the plan with
the memo patch and spliced out of the tasks they left and into the tasks
they joined; the counts that differ from the last column (one vectorised
``!=``) are patched into copies of their tasks' count lists, and a task
with a large changed share re-takes its counts instead.  Any other change
rebuilds the plan.  The buckets are :class:`KeyCounts`: read-only mappings
over aligned key and count sequences, which the plan never writes to once
handed out.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable, Collection, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.assignment import AssignmentFunction
from repro.core.snapshot import (
    KeyCounts, Snapshot, WorkloadSnapshot, key_positions, same_key_list,
)
from repro.core.load import max_balance_indicator
from repro.core.planner import Planner, PlannerConfig, RebalanceResult
from repro.core.statistics import IntervalStats, StatisticsStore

__all__ = ["KeyCounts", "Partitioner", "RebalancingPartitioner"]

Key = Hashable

#: Sentinel marking a route memo whose epoch has never been sampled.
_EPOCH_UNSET = object()

#: Bound on memoised key→task entries (matches the digest-cache cap): a
#: workload that keeps minting fresh keys must not grow the memo without
#: limit.
_ROUTE_MEMO_MAX = 1 << 20


#: The patch cut-over: a task whose changed keys are more than one in
#: ``_PATCH_SHARE`` of its keys re-takes its counts instead.  Copying a
#: task's count list and setting ``c`` items beats one ``take`` + ``tolist``
#: of its ``n`` counts while ``c / n`` stays below about 1/10 to 1/7
#: (measured at n = 1 000 … 50 000 over a 100 000-key column).
_PATCH_SHARE = 10


def _gather(tasks: np.ndarray, task: int) -> np.ndarray:
    """Where ``task``'s keys sit, ascending: one pass over the whole task
    column, made per task only when the plan is built."""
    return np.flatnonzero(tasks == task)


def _spliced(seq: Sequence, drop: List[int], at: List[int], items: List) -> List:
    """``seq`` without the items at the ascending indices ``drop``, then with
    ``items[i]`` inserted before index ``at[i]`` (ascending) of what is left,
    as a fresh list.  Each removal or insertion shifts the list once (≈ 3 µs
    at 10 000 items, where re-taking a task's keys and counts from its gather
    costs ≈ 0.5 ms): a rebalance moves a handful of keys."""
    out = list(seq)
    for index in reversed(drop):
        del out[index]
    for index, item in zip(reversed(at), reversed(items)):
        out.insert(index, item)
    return out


class _SnapshotPlan:
    """The last live key list :meth:`Partitioner.route_snapshot` routed, by task.

    ``keys`` is the key tuple of the live :class:`Snapshot` the plan was
    built from; ``tasks[i]`` is the task of ``keys[i]``.  For each task
    ``t``, ``gathers[t]`` lists, ascending, the positions of its keys,
    ``key_tuples[t]`` holds those keys (the plan's key objects, equal to the
    snapshot's) and ``count_lists[t]`` their counts in ``counts``, the
    column last routed, as Python floats.  A count list is handed out in a
    bucket and never written to afterwards: a change makes a new list.  The
    plan is valid for the assignment of ``epoch`` once the keys in
    ``pending`` (whose routing-table entry changed since) are re-routed by
    :meth:`reroute`.
    """

    __slots__ = (
        "keys", "epoch", "tasks", "gathers", "key_tuples", "count_lists", "counts",
        "pending", "_key_column",
    )

    def __init__(
        self,
        keys: Tuple[Key, ...],
        tasks: np.ndarray,
        counts: np.ndarray,
        num_tasks: int,
        epoch: object,
    ) -> None:
        self.keys = keys
        self.epoch = epoch
        self.tasks = np.array(tasks, dtype=np.intp)
        self._key_column = np.fromiter(keys, dtype=object, count=len(keys))
        self.gathers = [_gather(self.tasks, task) for task in range(num_tasks)]
        self.key_tuples = [self._task_keys(gather) for gather in self.gathers]
        self.counts = counts
        self.count_lists = [counts.take(gather).tolist() for gather in self.gathers]
        self.pending: List[Key] = []

    def _task_keys(self, gather: np.ndarray) -> Tuple[Key, ...]:
        return tuple(self._key_column.take(gather).tolist())

    def matches(self, keys: Tuple[Key, ...], epoch: object) -> bool:
        """True when ``keys`` lists this plan's keys in order under ``epoch``
        (:func:`~repro.core.snapshot.same_key_list`: the same key tuple, or
        one listing the same dict keys)."""
        return epoch == self.epoch and same_key_list(keys, self.keys)

    def reroute(self, routes: Callable[[List[Key]], List[int]]) -> None:
        """Move the pending keys of this plan to the tasks ``routes`` gives
        them: each task a key left or joined has it spliced out of, or into,
        its gather, key tuple and count list.  The keys are found through
        the key tuple's one index, which the planner's columns over the
        same tuple built already (:func:`~repro.core.snapshot.key_positions`)."""
        index = key_positions(self.keys)
        candidates = sorted({index[key] for key in self.pending if key in index})
        self.pending = []
        leaving: Dict[int, List[int]] = {}
        joining: Dict[int, List[int]] = {}
        for position, task in zip(candidates, routes([self.keys[p] for p in candidates])):
            old = self.tasks.item(position)
            if task != old:
                self.tasks[position] = task
                leaving.setdefault(old, []).append(position)
                joining.setdefault(task, []).append(position)
        for task in leaving.keys() | joining.keys():
            out, into = leaving.get(task, []), joining.get(task, [])
            drop = np.searchsorted(self.gathers[task], out).tolist()
            kept = np.delete(self.gathers[task], drop)
            at = np.searchsorted(kept, into).tolist()
            self.gathers[task] = np.insert(kept, at, into)
            keys = [self.keys[position] for position in into]
            self.key_tuples[task] = tuple(_spliced(self.key_tuples[task], drop, at, keys))
            self.count_lists[task] = _spliced(
                self.count_lists[task], drop, at, self.counts.take(into).tolist()
            )

    def recount(self, counts: np.ndarray) -> None:
        """Make the count lists those of ``counts``, a column over the plan's
        keys: the positions whose count differs from the last column's are
        patched into a copy of their task's list, or the task re-takes its
        counts when more than one in ``_PATCH_SHARE`` of its keys changed."""
        if counts is self.counts:
            return
        changed = np.flatnonzero(counts != self.counts)
        self.counts = counts
        owners = self.tasks.take(changed)
        for task, many in enumerate(np.bincount(owners, minlength=len(self.gathers)).tolist()):
            gather = self.gathers[task]
            if many * _PATCH_SHARE > len(gather):
                self.count_lists[task] = counts.take(gather).tolist()
            elif many:
                positions = changed[owners == task]
                patched = self.count_lists[task] = self.count_lists[task].copy()
                for at, count in zip(
                    np.searchsorted(gather, positions).tolist(), counts.take(positions).tolist()
                ):
                    patched[at] = count


class Partitioner(ABC):
    """Strategy deciding which downstream task processes each tuple."""

    #: Display name used by experiments and reports.
    name: str = "partitioner"

    #: True when ``route`` is deterministic, side-effect free and
    #: key-contiguous, enabling the key→task memo used by the batch API.
    cache_routes: bool = False

    def __init__(self, num_tasks: int) -> None:
        if num_tasks <= 0:
            raise ValueError(f"num_tasks must be positive, got {num_tasks}")
        self.num_tasks = int(num_tasks)
        #: The key→task memo.
        self._route_memo: Dict[Key, int] = {}
        self._route_memo_epoch: object = _EPOCH_UNSET
        self._snapshot_plan: Optional[_SnapshotPlan] = None

    @abstractmethod
    def route(self, key: Key) -> int:
        """Return the destination task index for a tuple with ``key``."""

    # -- batch routing ------------------------------------------------------

    def _route_epoch(self) -> object:
        """Token identifying the current assignment; a change drops the memo.

        Static strategies return a constant; the rebalance loop returns
        ``(rounds, routing_table.version)``, which changes whenever its
        assignment function does.
        """
        return None

    def invalidate_route_cache(self) -> None:
        """Drop all memoised key→task results and the snapshot plan (after a resize)."""
        self._route_memo.clear()
        self._route_memo_epoch = _EPOCH_UNSET
        self._snapshot_plan = None

    def _patch_route_cache(self, keys: Collection[Key], synced_epoch: object) -> None:
        """Re-route the memo entries of ``keys`` — the only keys the assignment
        change just installed can have moved — and adopt the new epoch.

        ``synced_epoch`` is the epoch the assignment had before the change;
        a memo that was not in sync with it holds entries of unknown age and
        is dropped instead.  The snapshot plan is handed ``keys`` to re-route
        on its next use (dropped likewise, or once rebuilding it is cheaper).
        """
        if self._route_memo_epoch != synced_epoch:
            self.invalidate_route_cache()
            return
        memo = self._route_memo
        for key in keys:
            if key in memo:
                memo[key] = self.route(key)
        self._route_memo_epoch = self._route_epoch()
        plan = self._snapshot_plan
        if plan is None:
            return
        if plan.epoch == synced_epoch and len(plan.pending) + len(keys) <= len(plan.keys):
            plan.pending.extend(keys)
            plan.epoch = self._route_memo_epoch
        else:
            self._snapshot_plan = None

    def _synced_route_memo(self) -> Dict[Key, int]:
        """The memo, emptied first if the assignment epoch moved (or it is full)."""
        epoch = self._route_epoch()
        if epoch != self._route_memo_epoch:
            self.invalidate_route_cache()
            self._route_memo_epoch = epoch
        if len(self._route_memo) >= _ROUTE_MEMO_MAX:
            self._route_memo.clear()
        return self._route_memo

    def _memo_routes(self, keys: Sequence[Key]) -> List[int]:
        """``[self.route(k) for k in keys]``, answered from the memo.

        One C-level ``map(memo.get, keys)``; only the misses reach
        :meth:`route`, and what they return is memoised.
        """
        memo = self._synced_route_memo()
        out = list(map(memo.get, keys))
        if None in out:
            route = self.route
            for index, task in enumerate(out):
                if task is None:
                    key = keys[index]
                    if (task := memo.get(key)) is None:  # else filled earlier in this batch
                        task = memo[key] = route(key)
                    out[index] = task
        return out

    def assign_batch(self, keys: Iterable[Key]) -> List[int]:
        """Destination task of every key in ``keys`` (one call, in order).

        Semantically identical to ``[self.route(k) for k in keys]``; cached
        strategies answer repeated keys from the key→task memo, with a
        Python-level loop only over the misses — this is what lets the
        runtime router dispatch a chunk without per-key Python work.
        """
        if not self.cache_routes:
            route = self.route
            return [route(key) for key in keys]
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        return self._memo_routes(keys)

    def assign_batch_array(self, keys: Sequence[Key]) -> np.ndarray:
        """Destinations as an ``intp`` ndarray (the router's dispatch shape).

        Same semantics as :meth:`assign_batch`; when every key is already
        memoised the array is filled straight from the memo (one C-level
        ``fromiter`` over ``map(memo.get, …)``) without materialising the
        intermediate Python list.
        """
        if self.cache_routes and isinstance(keys, (list, tuple)):
            memo = self._synced_route_memo()
            try:
                return np.fromiter(map(memo.get, keys), dtype=np.intp, count=len(keys))
            except TypeError:
                # A miss surfaced as None; fall through to the list path,
                # which computes and memoises the new routes.
                pass
        return np.asarray(self.assign_batch(keys), dtype=np.intp)

    def route_snapshot(self, snapshot: WorkloadSnapshot) -> Mapping[int, Mapping[Key, float]]:
        """Route a whole ``{key: count}`` interval snapshot in one call.

        Returns ``{task: {key: count}}`` with a bucket, possibly empty, for
        every task in ``0..num_tasks-1``, each listing its keys in the
        snapshot's order.  Key-splitting strategies (PKG, shuffle) spread each
        key's batch over several buckets exactly like :meth:`route_bulk` does;
        key-contiguous strategies send the whole count, as a Python float, to
        the key's single destination.  Non-positive and NaN counts are
        skipped.  Buckets are read-only; a caller that needs to mutate one
        copies it with ``dict(bucket)``.

        Memoising strategies read the snapshot's columns
        (:meth:`Snapshot.of <repro.core.snapshot.Snapshot.of>` converts a
        mapping once) and answer from the snapshot plan (see the module
        docstring): when the live keys are the plan's, the call costs one
        comparison of the count column with the last one, a patch of each
        changed count into a copy of its task's count list, and a splice per
        task a re-routed key left or joined — no per-key Python work.  A kept
        plan's buckets hold its own key objects, equal to the snapshot's.
        """
        if self.cache_routes:
            live = Snapshot.of(snapshot).live()
            epoch = self._route_epoch()
            plan = self._snapshot_plan
            keys = live.key_tuple
            if plan is None or not plan.matches(keys, epoch):
                self._snapshot_plan = plan = _SnapshotPlan(
                    keys, self.assign_batch_array(keys), live.counts, self.num_tasks, epoch
                )
            else:
                if plan.pending:
                    plan.reroute(self._memo_routes)
                plan.recount(live.counts)
            return {
                task: KeyCounts(task_keys, task_counts)
                for task, (task_keys, task_counts) in enumerate(
                    zip(plan.key_tuples, plan.count_lists)
                )
            }
        per_task: Dict[int, Dict[Key, float]] = {
            task: {} for task in range(self.num_tasks)
        }
        for key, count in snapshot.items():
            if not count > 0:
                continue
            for task, share in self.route_bulk(key, count).items():
                bucket = per_task[task]
                bucket[key] = bucket.get(key, 0.0) + share
        return per_task

    def route_bulk(self, key: Key, count: float) -> Dict[int, float]:
        """Route ``count`` tuples of ``key`` in one call (fluid simulation path).

        Key-contiguous strategies send the whole batch to :meth:`route`;
        key-splitting strategies (PKG, shuffle) override this to spread the
        batch over several tasks.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return {}
        return {self.route(key): count}

    def on_interval_end(self, stats: IntervalStats) -> Optional[RebalanceResult]:
        """Observe the finished interval; rebalance if the strategy does that.

        The default implementation is a no-op (static strategies).
        """
        return None

    def supports_stateful(self) -> bool:
        """True when all tuples of a key are guaranteed to visit a single task."""
        return True

    @property
    def routing_table_size(self) -> int:
        """Explicit routing entries in force (0 for strategies without a table)."""
        return 0

    def scale_out(self, new_num_tasks: int) -> None:
        """Grow the downstream operator to ``new_num_tasks`` tasks.

        The hash range grows, so keys re-hash onto the new tasks at once;
        both engines resize through :meth:`resize`, which migrates the
        resulting placement diff.
        """
        if new_num_tasks < self.num_tasks:
            raise ValueError("scale_out cannot shrink the operator")
        self.num_tasks = int(new_num_tasks)
        self.invalidate_route_cache()

    def scale_in(self, new_num_tasks: int) -> None:
        """Shrink the downstream operator to ``new_num_tasks`` tasks.

        The mirror of :meth:`scale_out` for elastic scale-in: after the
        resize every key must route to a task ``< new_num_tasks`` (the
        drained tasks stop existing), so strategies that learned a routing
        table additionally re-home the entries pointing at removed tasks.
        """
        if new_num_tasks > self.num_tasks:
            raise ValueError("scale_in cannot grow the operator")
        if new_num_tasks < 1:
            raise ValueError("scale_in needs at least one remaining task")
        self.num_tasks = int(new_num_tasks)
        self.invalidate_route_cache()

    def resize(self, new_num_tasks: int, keys: Iterable[Key]) -> List[Tuple[Key, int, int]]:
        """Scale to ``new_num_tasks`` tasks; return the moves the resize makes.

        The one resize rule of both engines: ``keys`` are placed before and
        after :meth:`scale_out` / :meth:`scale_in`, and each key whose task
        changed comes back as ``(key, source, target)`` — the state the
        caller migrates.  A split-key strategy (:meth:`supports_stateful` is
        False) gives no key one owner, so it is resized without being asked
        to route: asking would count phantom tuples in its load estimates.
        """
        scale = self.scale_out if new_num_tasks >= self.num_tasks else self.scale_in
        if not self.supports_stateful():
            scale(new_num_tasks)
            return []
        keys = list(keys)
        before = self.assign_batch(keys)
        scale(new_num_tasks)
        after = self.assign_batch(keys)
        return [
            (key, source, target)
            for key, source, target in zip(keys, before, after)
            if source != target
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_tasks={self.num_tasks})"


class RebalancingPartitioner(Partitioner):
    """The rebalance loop of Fig. 5: a mixed assignment plus a planner.

    Every table-based strategy — the paper's algorithms, the compact planner,
    Readj, DKG — routes through the same ``F(k) = A.get(k, h(k))`` and differs
    only in how it plans ``F′``.  This class owns everything else: the
    assignment in force, the statistics window, the ``θ > θ_max`` trigger,
    installing the plan, the history of rounds, patching the route memo with
    the keys the plan re-routed, and re-hashing on a resize.

    Parameters
    ----------
    num_tasks:
        Number of downstream tasks.
    planner:
        The planning heuristic (a :class:`~repro.core.planner.Planner`).
    config:
        ``θ_max``, ``A_max``, β and the state window ``w``; the defaults are
        the paper's.
    seed:
        Hash seed of the implicit router ``h``.
    """

    cache_routes = True

    def __init__(
        self,
        num_tasks: int,
        planner: Planner,
        config: Optional[PlannerConfig] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(num_tasks)
        self.planner = planner
        self.name = planner.name
        self.config = config if config is not None else PlannerConfig()
        self.assignment = AssignmentFunction.hashed(num_tasks, seed=seed)
        # ``window=None`` means "the store's own window"; the loop's store keeps one.
        self.stats = StatisticsStore(window=self.config.window or 1)
        self.history: List[RebalanceResult] = []

    # -- routing --------------------------------------------------------------

    def route(self, key: Key) -> int:
        return self.assignment(key)

    def _route_epoch(self) -> object:
        return (len(self.history), self.assignment.routing_table.version)

    @property
    def routing_table_size(self) -> int:
        return self.assignment.routing_table.size

    def scale_out(self, new_num_tasks: int) -> None:
        """Add task instances; every explicit route is preserved.

        ``h`` is re-hashed over the new range, so every key outside the table
        may change task at once; both engines migrate that placement diff
        (:meth:`~Partitioner.resize`), which is the scale-out measured in
        Fig. 15.
        """
        super().scale_out(new_num_tasks)
        self._rehash()

    def scale_in(self, new_num_tasks: int) -> None:
        """Remove task instances; routes to surviving tasks are preserved.

        Explicit routes onto the removed tasks are dropped, so those keys
        fall back to the resized hash — the runtime migrates their state off
        the drained workers as part of the same boundary.
        """
        super().scale_in(new_num_tasks)
        self._rehash()

    def _rehash(self) -> None:
        """Resize ``h`` to ``num_tasks``, keeping the table entries still in range."""
        table = self.assignment.routing_table.copy()
        for key, task in list(table.items()):
            if task >= self.num_tasks:
                table.discard(key)
        self.assignment = AssignmentFunction.hashed(
            self.num_tasks, seed=self.assignment.hash_function.seed
        ).with_table(table)

    # -- the loop (steps 1–3 of Fig. 5) ---------------------------------------

    def observe(self, stats: IntervalStats) -> None:
        """Ingest the statistics of a finished interval."""
        self.stats.push(stats)

    def should_rebalance(self) -> bool:
        """True when the latest interval's largest ``θ`` under ``F`` exceeds ``θ_max``."""
        if not self.stats:
            return False
        loads = self.assignment.column_loads(self.stats.columns())
        return max_balance_indicator(loads) > self.config.theta_max

    def rebalance(self) -> RebalanceResult:
        """Unconditionally plan ``F′`` and install it."""
        if not self.stats:
            raise RuntimeError("cannot rebalance before any interval was observed")
        epoch = self._route_epoch()
        table = self.assignment.routing_table
        result = self.planner.plan(self.assignment, self.stats, self.config)
        self.assignment = result.assignment
        self.history.append(result)
        # F and F′ share the hash, so only keys whose table entry changed
        # can route differently: the other memoised routes stay valid.
        self._patch_route_cache(table.changed_keys(result.routing_table), epoch)
        return result

    def on_interval_end(self, stats: IntervalStats) -> Optional[RebalanceResult]:
        self.observe(stats)
        return self.rebalance() if self.should_rebalance() else None
