"""PKG — Partial Key Grouping (Nasir et al., ICDE 2015).

PKG splits the tuples of a key over the key's *two* hash choices and, for every
tuple, picks whichever of the two candidate tasks currently has the lower
estimated load ("the power of both choices").  This balances extremely well and
needs no migration, but it breaks key contiguity: downstream aggregations must
run as partial aggregations followed by an extra merge operator, and stateful
operators such as joins are not supported at all — which is why the paper's
Stock (self-join) and TPC-H experiments exclude PKG.

The merge overhead is modelled by :class:`repro.operators.windowed_aggregate.
PartialAggregateMergeTopology`; this module only provides the routing policy
and its bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Hashable, List

from repro.baselines.base import Partitioner
from repro.core.hashing import UniversalHash
from repro.core.statistics import IntervalStats

__all__ = ["PartialKeyGrouping"]

Key = Hashable

#: Bound on memoised candidate lists (mirrors the base route-memo cap).
_CANDIDATES_CACHE_MAX = 1 << 20


class PartialKeyGrouping(Partitioner):
    """Power-of-two-choices key splitting.

    Parameters
    ----------
    num_tasks:
        Number of downstream tasks.
    seed:
        Hash seed.
    """

    name = "pkg"

    #: The ``p`` parameter of the open-source PKG bolt: interval between two
    #: consecutive partial-result merges.  Only the operator model reads it,
    #: to account for the added latency; 10 ms is the value the paper selects.
    merge_period_ms = 10.0

    def __init__(self, num_tasks: int, seed: int = 0) -> None:
        super().__init__(num_tasks)
        self.seed = int(seed)
        self._hash = UniversalHash(num_tasks, seed=seed)
        self._loads: Dict[int, float] = {task: 0.0 for task in range(num_tasks)}
        #: Memoised candidate lists — the hash positions of a key are static
        #: for a given parallelism, so they are computed once per key and
        #: reused across intervals (dropped on scale-out).
        self._candidates_cache: Dict[Key, List[int]] = {}
        #: Number of tuples routed per (key, task) — used by the merge operator
        #: model to know how many partials exist per key.
        self.split_counts: Dict[Key, Dict[int, int]] = {}

    # -- routing ---------------------------------------------------------------------

    def candidate_tasks(self, key: Key) -> List[int]:
        """The candidate tasks of ``key`` (its two hash positions)."""
        candidates = self._candidates_cache.get(key)
        if candidates is None:
            if len(self._candidates_cache) >= _CANDIDATES_CACHE_MAX:
                self._candidates_cache.clear()
            candidates = self._candidates_cache[key] = self._hash.candidates(key)
        # Copy so a caller mutating the result cannot corrupt the cache.
        return list(candidates)

    def route(self, key: Key) -> int:
        candidates = self.candidate_tasks(key)
        task = min(candidates, key=lambda d: (self._loads[d], d))
        self._loads[task] += 1.0
        per_key = self.split_counts.setdefault(key, {})
        per_key[task] = per_key.get(task, 0) + 1
        return task

    def route_bulk(self, key: Key, count: float) -> Dict[int, float]:
        """Split a batch of ``count`` tuples of ``key`` over its candidates.

        The fluid equivalent of routing tuple-by-tuple with the two-choices
        rule: the batch is poured into the candidate tasks so that their loads
        equalise (water-filling), which is what the per-tuple greedy converges
        to for large batches.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return {}
        candidates = self.candidate_tasks(key)
        if len(candidates) == 1:
            task = candidates[0]
            self._loads[task] += count
            per_key = self.split_counts.setdefault(key, {})
            per_key[task] = per_key.get(task, 0) + int(count)
            return {task: count}
        # Water-filling over the candidates' current loads.
        remaining = float(count)
        shares: Dict[int, float] = {task: 0.0 for task in candidates}
        while remaining > 1e-9:
            lightest = min(candidates, key=lambda d: (self._loads[d] + shares[d], d))
            others = [d for d in candidates if d != lightest]
            next_level = min(self._loads[d] + shares[d] for d in others)
            gap = next_level - (self._loads[lightest] + shares[lightest])
            pour = min(remaining, gap) if gap > 0 else remaining / len(candidates)
            if pour <= 0:
                pour = remaining / len(candidates)
            shares[lightest] += pour
            remaining -= pour
        result = {task: share for task, share in shares.items() if share > 0}
        for task, share in result.items():
            self._loads[task] += share
            per_key = self.split_counts.setdefault(key, {})
            per_key[task] = per_key.get(task, 0) + int(round(share))
        return result

    def partials_per_key(self, key: Key) -> int:
        """How many distinct tasks currently hold partial state for ``key``."""
        return len(self.split_counts.get(key, {}))

    def total_partials(self) -> int:
        """Total number of (key, task) partial-state pairs this interval."""
        return sum(len(tasks) for tasks in self.split_counts.values())

    # -- lifecycle --------------------------------------------------------------------

    def on_interval_end(self, stats: IntervalStats) -> None:
        # PKG never migrates; it only resets its per-interval load estimates so
        # that stale history does not bias the two-choices decision.
        self._loads = {task: 0.0 for task in range(self.num_tasks)}
        self.split_counts = {}
        return None

    def supports_stateful(self) -> bool:
        return False

    def scale_out(self, new_num_tasks: int) -> None:
        super().scale_out(new_num_tasks)
        self._hash = UniversalHash(self.num_tasks, seed=self.seed)
        self._candidates_cache = {}
        for task in range(self.num_tasks):
            self._loads.setdefault(task, 0.0)

    def scale_in(self, new_num_tasks: int) -> None:
        super().scale_in(new_num_tasks)
        self._hash = UniversalHash(self.num_tasks, seed=self.seed)
        self._candidates_cache = {}
        self._loads = {
            task: load
            for task, load in self._loads.items()
            if task < new_num_tasks
        }
        self.split_counts = {}
