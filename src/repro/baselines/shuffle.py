"""Shuffle grouping — the "Ideal" upper bound of Fig. 13.

Tuples are spread over the tasks round-robin regardless of their key, so the
workload is perfectly balanced by construction.  The price is that key
contiguity is lost: the strategy cannot be used for stateful key-based
operators (aggregations, joins) without an additional merge stage, which is
exactly why the paper uses it only as a theoretical performance bound.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping

from repro.baselines.base import Partitioner

__all__ = ["ShufflePartitioner"]

Key = Hashable


class ShufflePartitioner(Partitioner):
    """Key-oblivious round-robin tuple spreading over ``num_tasks`` tasks."""

    name = "shuffle"

    def __init__(self, num_tasks: int) -> None:
        super().__init__(num_tasks)
        self._next = 0

    def route(self, key: Key) -> int:
        task = self._next % self.num_tasks  # a scale-in may have left the cursor out of range
        self._next = task + 1
        return task

    def route_bulk(self, key: Key, count: float) -> Dict[int, float]:
        """Spread a batch evenly over all tasks (perfect key-oblivious balance)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return {}
        share = count / self.num_tasks
        return {task: share for task in range(self.num_tasks)}

    def route_snapshot(self, snapshot: Mapping[Key, float]) -> Dict[int, Dict[Key, float]]:
        """Vectorised even spread: every task receives ``count / N`` per key."""
        n = self.num_tasks
        shares = {key: count / n for key, count in snapshot.items() if count > 0}
        return {task: dict(shares) for task in range(n)}

    def supports_stateful(self) -> bool:
        return False
