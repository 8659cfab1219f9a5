"""The fan-in interval barrier of a consumer stage."""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Tuple

__all__ = ["MarkBarrier"]


class MarkBarrier:
    """Fan-in interval barrier: per-origin producer marks gate each close.

    One consumer stage may be fed by several upstream *origins* (the source
    process and/or producer stages).  The barrier tracks, independently per
    origin, the producer-count timeline of the PR 7 resize machinery —
    ``(from_interval, count)`` entries appended when an upstream stage
    resizes — plus the per-``(origin, producer)`` mark floors that dedup
    post-recovery replays.  :meth:`observe_mark` returns ``True`` exactly
    when its interval became closable: **every** origin's expected producer
    count for that interval has marked it.

    Because each producer marks its intervals in increasing order on a FIFO
    edge, interval ``k+1`` can only complete after every producer already
    marked ``k`` — so closable intervals emerge in order even across
    origins, without the barrier having to re-order anything.

    The class is deliberately free of queue/process machinery so protocol
    tests can drive arbitrary mark/done/resize interleavings directly.
    """

    def __init__(self, producers: Mapping[str, int]) -> None:
        if not producers:
            raise ValueError("a mark barrier needs at least one upstream origin")
        for origin, count in producers.items():
            if count < 1:
                raise ValueError(
                    f"origin {origin!r} needs a positive producer count, "
                    f"got {count}"
                )
        self._lock = threading.Lock()
        self._counts: Dict[str, List[Tuple[int, int]]] = {
            origin: [(0, int(count))] for origin, count in producers.items()
        }
        self._expected_done = sum(int(count) for count in producers.values())
        self._done = 0
        #: Last accepted mark interval per (origin, producer): replays
        #: re-emit marks the consumer already counted, and a non-advancing
        #: mark is a duplicate.
        self._mark_floor: Dict[Tuple[str, int], int] = {}
        #: Marks arrived per open interval, split by origin.
        self._marks: Dict[int, Dict[str, int]] = {}

    @property
    def finished(self) -> bool:
        """True once every expected producer sent its end-of-stream."""
        with self._lock:
            return self._done >= self._expected_done

    def _expected_locked(self, origin: str, interval: int) -> int:
        timeline = self._counts[origin]
        expected = timeline[0][1]
        for start, count in timeline:
            if interval >= start:
                expected = count
        return expected

    def observe_mark(
        self, origin: str, producer: int, interval: int
    ) -> Tuple[bool, bool]:
        """Count one producer mark.

        Returns ``(accepted, closable)``: ``accepted`` is False for a
        duplicate (a replayed mark at or below the edge's floor), and
        ``closable`` is True exactly when this mark completed ``interval``
        across every origin.
        """
        with self._lock:
            if origin not in self._counts:
                raise KeyError(
                    f"mark from unknown upstream origin {origin!r} "
                    f"(expected one of {sorted(self._counts)})"
                )
            edge = (origin, producer)
            floor = self._mark_floor.get(edge)
            if floor is not None and interval <= floor:
                return False, False
            self._mark_floor[edge] = interval
            arrived = self._marks.setdefault(interval, {})
            arrived[origin] = arrived.get(origin, 0) + 1
            for other in self._counts:
                if arrived.get(other, 0) < self._expected_locked(other, interval):
                    return True, False
            del self._marks[interval]
            return True, True

    def observe_done(self, origin: str) -> None:
        """Count one producer's end-of-stream."""
        with self._lock:
            if origin not in self._counts:
                raise KeyError(
                    f"end-of-stream from unknown upstream origin {origin!r} "
                    f"(expected one of {sorted(self._counts)})"
                )
            self._done += 1

    def resize(
        self, origin: str, from_interval: int, count: int, done_delta: int
    ) -> None:
        """An upstream origin resized: new producer count from an interval on.

        Appends to ``origin``'s timeline and adjusts the expected
        end-of-stream count (scale-out adds producers; scale-in's drained
        workers still send their own done, so shrink passes zero).
        """
        with self._lock:
            if origin not in self._counts:
                raise KeyError(
                    f"resize of unknown upstream origin {origin!r} "
                    f"(expected one of {sorted(self._counts)})"
                )
            self._counts[origin].append((int(from_interval), int(count)))
            self._expected_done += int(done_delta)
