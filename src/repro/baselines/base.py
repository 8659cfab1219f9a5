"""The partitioner interface and the one rebalance loop.

The engine talks to every strategy through the small :class:`Partitioner`
protocol:

* :meth:`Partitioner.route` decides the destination task of one tuple;
* :meth:`Partitioner.assign_batch` and :meth:`Partitioner.route_snapshot` are
  the batch fast path: an entire ``{key: count}`` interval snapshot is routed
  in a single call (one pass, memoised key→task results for deterministic
  strategies) instead of one Python call per key;
* :meth:`Partitioner.on_interval_end` hands the partitioner the statistics of
  the finished interval and lets it rebalance; it returns a
  :class:`~repro.core.planner.RebalanceResult` when keys (and their state) were
  migrated, or ``None`` when nothing changed;
* :meth:`Partitioner.supports_stateful` advertises whether the strategy keeps
  the key-contiguity guarantee stateful operators need (PKG does not).

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
across intervals.  A rebalance re-routes only the keys whose routing-table
entry changed, so :class:`RebalancingPartitioner` rewrites exactly those memo
entries and keeps the rest; a resize (or any assignment change the base class
did not see — the cache epoch of :meth:`Partitioner._route_epoch` moved) drops
the memo.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.assignment import AssignmentFunction
from repro.core.hashing import memo_key
from repro.core.load import load_from_columns, max_balance_indicator
from repro.core.planner import Planner, PlannerConfig, RebalanceResult
from repro.core.statistics import IntervalStats, StatisticsStore

__all__ = ["Partitioner", "RebalancingPartitioner"]

Key = Hashable

#: Sentinel marking a route cache whose epoch has never been sampled.
_EPOCH_UNSET = object()

#: Bound on memoised key→task entries (matches the digest-cache cap): a
#: workload that keeps minting fresh keys must not grow the memo without limit.
_ROUTE_CACHE_MAX = 1 << 20

#: Key types eligible for the raw-key bulk route memo.  A per-type dict keyed
#: by the *raw* key needs no :func:`memo_key` boxing, so a whole batch reads
#: as one C-level ``map(cache.get, keys)`` — but it is only collision-safe
#: when every key of the batch has exactly that type (``1``/``True``/``1.0``
#: are equal dict keys that hash differently; the homogeneity check in
#: :meth:`Partitioner.assign_batch` rules the mix out, and ``float`` stays
#: excluded entirely because ``0.0``/``-0.0`` collide even within the type).
_BULK_MEMO_TYPES = frozenset((str, bytes, int))


class Partitioner(ABC):
    """Strategy deciding which downstream task processes each tuple."""

    #: Display name used by experiments and reports.
    name: str = "partitioner"

    #: True when ``route`` is deterministic, side-effect free and
    #: key-contiguous, enabling the shared key→task memo used by the batch API.
    cache_routes: bool = False

    def __init__(self, num_tasks: int) -> None:
        if num_tasks <= 0:
            raise ValueError(f"num_tasks must be positive, got {num_tasks}")
        self.num_tasks = int(num_tasks)
        self._route_cache: Dict[Key, int] = {}
        #: Raw-key memos for homogeneously-typed batches (see _BULK_MEMO_TYPES).
        self._typed_route_caches: Dict[type, Dict[Key, int]] = {}
        self._route_cache_epoch: object = _EPOCH_UNSET

    @abstractmethod
    def route(self, key: Key) -> int:
        """Return the destination task index for a tuple with ``key``."""

    # -- batch routing ------------------------------------------------------

    def _route_epoch(self) -> object:
        """Token identifying the current assignment; a change drops the cache.

        Static strategies return a constant; the rebalance loop returns
        ``(rounds, routing_table.version)``, which changes whenever its
        assignment function does.
        """
        return None

    def invalidate_route_cache(self) -> None:
        """Drop all memoised key→task results (after a resize)."""
        self._route_cache.clear()
        self._typed_route_caches.clear()
        self._route_cache_epoch = _EPOCH_UNSET

    def _patch_route_cache(self, keys: Iterable[Key], synced_epoch: object) -> None:
        """Re-route the memo entries of ``keys`` — the only keys the assignment
        change just installed can have moved — and adopt the new epoch.

        ``synced_epoch`` is the epoch the assignment had before the change;
        a memo that was not in sync with it holds entries of unknown age and
        is dropped instead.
        """
        if self._route_cache_epoch != synced_epoch:
            self.invalidate_route_cache()
            return
        for key in keys:
            task = self.route(key)
            memo = memo_key(key)
            if memo in self._route_cache:
                self._route_cache[memo] = task
            typed = self._typed_route_caches.get(key.__class__)
            if typed is not None and key in typed:
                typed[key] = task
        self._route_cache_epoch = self._route_epoch()

    def _check_snapshot_num_tasks(self, num_tasks: Optional[int]) -> None:
        """Reject a caller whose view of the parallelism is out of sync."""
        if num_tasks is not None and int(num_tasks) != self.num_tasks:
            raise ValueError(
                f"snapshot routed for {num_tasks} tasks but partitioner has "
                f"{self.num_tasks}"
            )

    def _sync_route_epoch(self) -> None:
        """Drop every memo if the assignment epoch moved."""
        epoch = self._route_epoch()
        if epoch != self._route_cache_epoch:
            self._route_cache.clear()
            self._typed_route_caches.clear()
            self._route_cache_epoch = epoch

    def _valid_route_cache(self) -> Dict[Key, int]:
        """The memo dict, cleared first if the assignment epoch moved."""
        self._sync_route_epoch()
        if len(self._route_cache) >= _ROUTE_CACHE_MAX:
            self._route_cache.clear()
        return self._route_cache

    def assign_batch(self, keys: Iterable[Key]) -> List[int]:
        """Destination task of every key in ``keys`` (one call, in order).

        Semantically identical to ``[self.route(k) for k in keys]``; cached
        strategies answer repeated keys from the key→task memo.  A batch
        whose keys are homogeneously ``str``/``bytes``/``int`` takes the
        **bulk memo path**: one C-level ``map`` over a raw-key dict, with a
        Python-level loop only over the cache misses — this is what lets the
        runtime router dispatch a chunk without per-key Python work.
        """
        if not self.cache_routes:
            route = self.route
            return [route(key) for key in keys]
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        if keys and len(types := set(map(type, keys))) == 1:
            (cls,) = types
            if cls in _BULK_MEMO_TYPES:
                return self._assign_batch_bulk(keys, cls)
        cache = self._valid_route_cache()
        cache_get = cache.get
        route = self.route
        out: List[int] = []
        for key in keys:
            memo = memo_key(key)
            if memo is None:
                out.append(route(key))
                continue
            task = cache_get(memo)
            if task is None:
                task = cache[memo] = route(key)
            out.append(task)
        return out

    def _bulk_route_cache(self, cls: type) -> Dict[Key, int]:
        """The raw-key memo dict of one key type (epoch-synced, capped)."""
        self._sync_route_epoch()
        cache = self._typed_route_caches.get(cls)
        if cache is None:
            cache = self._typed_route_caches[cls] = {}
        elif len(cache) >= _ROUTE_CACHE_MAX:
            cache.clear()
        return cache

    def _assign_batch_bulk(self, keys: Sequence[Key], cls: type) -> List[int]:
        """Raw-key memo lookup of a homogeneously-``cls``-typed batch."""
        cache = self._bulk_route_cache(cls)
        out = list(map(cache.get, keys))
        if None in out:  # first sighting of some keys under this assignment
            route = self.route
            cache_get = cache.get
            for index, task in enumerate(out):
                if task is None:
                    key = keys[index]
                    task = cache_get(key)
                    if task is None:
                        task = cache[key] = route(key)
                    out[index] = task
        return out

    def assign_batch_array(self, keys: Sequence[Key]) -> np.ndarray:
        """Destinations as an ``intp`` ndarray (the router's dispatch shape).

        Same semantics as :meth:`assign_batch`; on the all-hits bulk path the
        array is filled straight from the raw-key memo (one C-level
        ``fromiter`` over ``map(cache.get, …)``) without materialising the
        intermediate Python list.
        """
        if self.cache_routes and isinstance(keys, (list, tuple)) and keys:
            if len(types := set(map(type, keys))) == 1:
                (cls,) = types
                if cls in _BULK_MEMO_TYPES:
                    cache = self._bulk_route_cache(cls)
                    try:
                        return np.fromiter(
                            map(cache.get, keys), dtype=np.intp, count=len(keys)
                        )
                    except TypeError:
                        # A miss surfaced as None; fall through to the list
                        # path, which computes and memoises the new routes.
                        pass
        return np.asarray(self.assign_batch(keys), dtype=np.intp)

    def route_snapshot(
        self,
        snapshot: Mapping[Key, float],
        num_tasks: Optional[int] = None,
    ) -> Dict[int, Dict[Key, float]]:
        """Route a whole ``{key: count}`` interval snapshot in one call.

        Returns ``{task: {key: count}}`` with an (initially empty) bucket for
        every task in ``0..num_tasks-1``.  Key-splitting strategies (PKG,
        shuffle) spread each key's batch over several buckets exactly like
        :meth:`route_bulk` does; key-contiguous strategies send the whole
        count to the key's single destination.  Non-positive counts are
        skipped.  ``num_tasks``, when given, must match the partitioner's
        current parallelism (it exists so callers can assert their view of the
        operator is in sync).
        """
        self._check_snapshot_num_tasks(num_tasks)
        per_task: Dict[int, Dict[Key, float]] = {
            task: {} for task in range(self.num_tasks)
        }
        if self.cache_routes:
            cache = self._valid_route_cache()
            cache_get = cache.get
            route = self.route
            for key, count in snapshot.items():
                if count <= 0:
                    continue
                memo = memo_key(key)
                if memo is None:
                    task = route(key)
                else:
                    task = cache_get(memo)
                    if task is None:
                        task = cache[memo] = route(key)
                per_task[task][key] = count
            return per_task
        for key, count in snapshot.items():
            if count <= 0:
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

        Static strategies simply update their hash range; rebalancing
        strategies additionally fold the change into their next planning round.
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

        The next planning round naturally spreads keys onto the new tasks
        (their load is zero, so they are the least-loaded targets), which is
        the scale-out behaviour measured in Fig. 15.
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
        columns = self.stats.columns()
        _, routed = self.assignment.route_columns(columns)
        loads = load_from_columns(routed, columns.cost, self.num_tasks)
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
