"""The per-tuple dispatch loop, kept as the oracle for the chunk-vectorised
``StreamRouter`` in ``src/``.

``test_router_parity.py`` asserts that the shipped router's accounts and
per-task batch streams equal this loop's exactly, under pause / resume and
mixed interval tags.  The router's speed is measured by ``perf/``
(``runtime.router.dispatch_tps.*``), not against this loop.

Nothing under ``src/`` uses it, and it uses nothing of an operator: the cost
of a tuple is ``cost_of(key, value)``, the caller's own per-tuple formula.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Set, Tuple

Key = Hashable


class ReferenceRouter:
    """Faithful per-tuple port of the pre-vectorization dispatch accounting.

    One dict update per tuple for freqs / offered tuples / offered cost, one
    ``cost_of`` call per tuple, a per-tuple paused-key test, ``setdefault``
    grouping — plus the *intended* resume semantics (buffer grouped by
    interval tag before re-dispatch).  Batches are recorded in
    ``batches[task]`` as ``(interval, keys, values)``.
    """

    def __init__(
        self,
        partitioner,
        cost_of: Callable[[Key, Any], float],
        num_tasks: int,
        batch_size: int,
    ) -> None:
        self.partitioner = partitioner
        self.cost_of = cost_of
        self.num_tasks = num_tasks
        self.batch_size = batch_size
        self.accounts: Dict[int, Dict[str, dict]] = {}
        self.batches: Dict[int, List[Tuple[int, List[Key], List[Any]]]] = {
            task: [] for task in range(num_tasks)
        }
        self.paused: Set[Key] = set()
        self.buffer: List[Tuple[Key, Any, int]] = []

    def account(self, tag):
        account = self.accounts.get(tag)
        if account is None:
            account = self.accounts[tag] = {
                "freqs": {},
                "offered_tuples": {t: 0.0 for t in range(self.num_tasks)},
                "offered_cost": {t: 0.0 for t in range(self.num_tasks)},
            }
        return account

    def dispatch(self, keys, values, interval):
        pairs = list(zip(keys, values))
        for start in range(0, len(pairs), self.batch_size):
            self._chunk(pairs[start : start + self.batch_size], interval)

    def _chunk(self, chunk, tag):
        account = self.account(tag)
        destinations = self.partitioner.assign_batch([key for key, _ in chunk])
        cost_of = self.cost_of
        per_task = {}
        for (key, value), task in zip(chunk, destinations):
            account["freqs"][key] = account["freqs"].get(key, 0.0) + 1.0
            account["offered_tuples"][task] += 1.0
            account["offered_cost"][task] += cost_of(key, value)
            if key in self.paused:
                self.buffer.append((key, value, tag))
                continue
            per_task.setdefault(task, []).append((key, value))
        for task, batch in per_task.items():
            self._put(task, tag, batch)

    def _put(self, task, tag, batch):
        self.batches[task].append(
            (tag, [key for key, _ in batch], [value for _, value in batch])
        )

    def pause(self, keys):
        self.paused.update(keys)

    def resume(self):
        self.paused.clear()
        buffered, self.buffer = self.buffer, []
        by_tag = {}
        for entry in buffered:
            by_tag.setdefault(entry[2], []).append(entry)
        for tag in sorted(by_tag):
            entries = by_tag[tag]
            for start in range(0, len(entries), self.batch_size):
                chunk = entries[start : start + self.batch_size]
                destinations = self.partitioner.assign_batch(
                    [key for key, _, _ in chunk]
                )
                per_task = {}
                for (key, value, _), task in zip(chunk, destinations):
                    per_task.setdefault(task, []).append((key, value))
                for task, batch in per_task.items():
                    self._put(task, tag, batch)
        return len(buffered)
