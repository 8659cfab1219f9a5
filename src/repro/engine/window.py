"""Sliding windows over time intervals.

Stateful operators in the paper keep state for the last ``w`` intervals only:
"the task instance erases the state from time interval ``T_{i−w}`` after
finishing the computation on all tuples in time interval ``T_i``".
:class:`SlidingWindow` implements exactly that retention policy for arbitrary
per-interval payloads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["SlidingWindow"]

T = TypeVar("T")


class SlidingWindow(Generic[T]):
    """Keeps one payload per interval for the most recent ``size`` intervals."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"window size must be >= 1, got {size}")
        self.size = int(size)
        self._slots: "OrderedDict[int, T]" = OrderedDict()

    def append(self, interval: int, payload: T) -> List[int]:
        """Store ``payload`` for ``interval``; return the intervals evicted.

        Intervals must be appended in non-decreasing order; re-appending the
        current interval replaces its payload.
        """
        return [interval for interval, _ in self.append_evict(interval, payload)]

    def append_evict(self, interval: int, payload: T) -> List[Tuple[int, T]]:
        """Like :meth:`append` but returns the evicted ``(interval, payload)``
        pairs, letting callers (e.g. the keyed state's incremental size
        accounting) see what fell out of the window without a second lookup."""
        slots = self._slots
        if slots:
            newest = next(reversed(slots))
            if interval == newest:
                # Re-writing the newest slot: order and length are unchanged.
                slots[interval] = payload
                return []
            if interval < newest:
                raise ValueError(
                    f"intervals must be non-decreasing: got {interval} after {newest}"
                )
        slots[interval] = payload
        evicted: List[Tuple[int, T]] = []
        while len(slots) > self.size:
            evicted.append(slots.popitem(last=False))
        return evicted

    def get(self, interval: int) -> Optional[T]:
        """Payload stored for ``interval`` (``None`` when expired or unknown)."""
        return self._slots.get(interval)

    def oldest_interval(self) -> Optional[int]:
        """Oldest retained interval index (``None`` when empty)."""
        if not self._slots:
            return None
        return next(iter(self._slots))

    def newest(self) -> Optional[T]:
        """Payload of the newest retained interval (``None`` when empty)."""
        if not self._slots:
            return None
        return next(reversed(self._slots.values()))

    def intervals(self) -> Tuple[int, ...]:
        """Retained interval indices, oldest first."""
        return tuple(self._slots.keys())

    def payloads(self) -> List[T]:
        """Retained payloads, oldest first."""
        return list(self._slots.values())

    def items(self) -> Iterator[Tuple[int, T]]:
        return iter(self._slots.items())

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, interval: int) -> bool:
        return interval in self._slots

    def clear(self) -> None:
        self._slots.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlidingWindow(size={self.size}, retained={len(self._slots)})"
