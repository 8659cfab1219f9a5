"""The per-key keyed state, kept as the oracle for the interval-major one in ``src/``.

These are ``KeyedState`` and ``SlidingWindow`` as ``repro.engine`` shipped
them before the state kept one table per retained interval, unchanged apart
from the state's name: every key owns a ``SlidingWindow`` (an
``OrderedDict`` of ``interval -> (payload, size)``), a batch write keeps a
running pair per distinct key and stores it once, and ``expire`` walks every
key.  Two of its behaviours are not the shipped ones: a key keeps its stale
slots until it is written or expired (the shipped state drops a table for
every key once a newer interval opens), and ``install`` over a key holding a
newer interval raises.  ``test_keyed_state_oracle.py`` drives both through
the runtime's call pattern and applies the clock rule to this one by calling
``expire`` after each write.  Nothing under ``src/`` uses it.
"""

from __future__ import annotations

from collections import OrderedDict
from copy import copy
from itertools import repeat
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

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


Key = Hashable

#: The serialised form of one key's windowed state, as shipped during migration:
#: a list of ``(interval, payload, size)`` triples.
KeyStateSnapshot = List[Tuple[int, Any, float]]


class ReferenceKeyedState:
    """Per-task store of windowed per-key state."""

    def __init__(self, window: int = 1) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._per_key: Dict[Key, SlidingWindow[Tuple[Any, float]]] = {}
        #: Running total of all retained sizes, so :meth:`total_size` is O(1)
        #: instead of a full scan per interval.
        self._total_size = 0.0

    # -- updates -----------------------------------------------------------------

    def update(
        self,
        key: Key,
        interval: int,
        payload: Any,
        size: float,
    ) -> None:
        """Replace the state of ``key`` for ``interval`` with ``payload``.

        ``size`` is the memory footprint of the payload in abstract units.
        """
        if size < 0:
            raise ValueError("state size must be non-negative")
        window = self._per_key.get(key)
        if window is None:
            window = SlidingWindow(self.window)
            self._per_key[key] = window
        existing = window.get(interval)
        replaced_size = existing[1] if existing is not None else 0.0
        self._store(window, interval, payload, float(size), replaced_size)

    def _store(
        self,
        window: SlidingWindow,
        interval: int,
        payload: Any,
        size: float,
        replaced_size: float,
    ) -> None:
        """Write one ``(payload, size)`` slot and keep ``_total_size`` exact.

        ``replaced_size`` is the size previously stored for ``interval`` (0.0
        when the slot is new); capacity-evicted slots are subtracted too.
        """
        evicted = window.append_evict(interval, (payload, size))
        self._total_size += size - replaced_size
        for _, (_, evicted_size) in evicted:
            self._total_size -= evicted_size

    def accumulate(
        self,
        key: Key,
        interval: int,
        delta_size: float,
        payload_update=None,
    ) -> Any:
        """Grow the state of ``key`` in ``interval`` by ``delta_size``.

        The one-tuple case of :meth:`accumulate_batch`.  ``payload_update`` is
        an optional callable ``old_payload -> new_payload`` (``old_payload``
        is ``None`` the first time; it may return ``old_payload`` itself,
        grown in place); when omitted, the payload is a plain counter of
        accumulated size.  Returns the new payload.
        """
        window = self._per_key.get(key)
        existing = window.get(interval) if window is not None else None
        old_payload, old_size = existing if existing is not None else (None, 0.0)
        if payload_update is not None:
            new_payload = payload_update(old_payload)
        else:
            new_payload = (old_payload or 0) + delta_size
        new_size = old_size + delta_size
        if new_size < 0:
            raise ValueError("state size must be non-negative")
        if window is None:
            window = SlidingWindow(self.window)
            self._per_key[key] = window
        self._store(window, interval, new_payload, new_size, old_size)
        return new_payload

    def accumulate_batch(
        self,
        keys: Iterable[Key],
        values: Iterable[Any],
        interval: int,
        delta_size: Union[float, Iterable[float]],
        fold: Optional[Callable[[Any, Any], Any]] = None,
    ) -> List[Any]:
        """Apply a batch of tuples, in order, to ``interval``: one window
        write per distinct key.

        Each tuple grows its key's state by ``delta_size`` (one scalar, or
        one value per tuple) and replaces the key's payload with ``fold(old,
        value)`` (``old`` is ``None`` the first time; without ``fold`` the
        payload counts the accumulated size).  Payload and size are kept in a
        batch-local running pair per key and stored once, so sizes and
        payloads equal one :meth:`accumulate` per tuple bit for bit;
        :meth:`total_size` moves once per key and equals the per-tuple total
        up to float summation order.  Returns the payload after each tuple —
        for a ``fold`` that grows its payload in place these are all the one
        state-owned object, which the caller must not emit.

        A delta that drives a key's size negative raises ``ValueError`` before
        anything is stored: no window and no size has changed (an in-place
        ``fold`` has by then grown the containers it owns).  An ``interval``
        older than a key's newest is the caller's bug and raises from that
        key's window write, after the keys before it were stored.
        """
        per_key = self._per_key
        deltas = repeat(delta_size) if isinstance(delta_size, (int, float)) else delta_size
        #: key -> [payload, size, size before the batch, the key's window]
        running: Dict[Key, List[Any]] = {}
        find = running.get
        after: List[Any] = []
        emit = after.append
        for key, value, delta in zip(keys, values, deltas):
            slot = find(key)
            if slot is None:
                window = per_key.get(key)
                existing = window.get(interval) if window is not None else None
                payload, size = existing if existing is not None else (None, 0.0)
                slot = running[key] = [payload, size, size, window]
            if fold is not None:
                payload = fold(slot[0], value)
            else:
                payload = (slot[0] or 0) + delta
            size = slot[1] + delta
            if size < 0:
                raise ValueError("state size must be non-negative")
            slot[0] = payload
            slot[1] = size
            emit(payload)
        for key, (payload, size, old_size, window) in running.items():
            if window is None:
                window = per_key[key] = SlidingWindow(self.window)
            self._store(window, interval, payload, size, old_size)
        return after

    def expire(self, newest_interval: int) -> None:
        """Drop state older than ``newest_interval − window + 1`` and empty keys."""
        cutoff = newest_interval - self.window + 1
        stale_keys: List[Key] = []
        for key, window in self._per_key.items():
            oldest = window.oldest_interval()
            if oldest is None or oldest >= cutoff:
                # Nothing stale for this key — the common case, since a key
                # touched this interval was already trimmed by the window's
                # capacity eviction.
                continue
            rebuilt: SlidingWindow[Tuple[Any, float]] = SlidingWindow(self.window)
            for interval, payload in window.items():
                if interval >= cutoff:
                    rebuilt.append(interval, payload)
                else:
                    self._total_size -= payload[1]
            if len(rebuilt):
                self._per_key[key] = rebuilt
            else:
                stale_keys.append(key)
        for key in stale_keys:
            del self._per_key[key]
        if not self._per_key:
            # Re-anchor the running total so an empty state reports exactly
            # 0.0 even after float drift at extreme size magnitudes.
            self._total_size = 0.0

    # -- queries --------------------------------------------------------------------

    def keys(self) -> Iterable[Key]:
        return self._per_key.keys()

    def __contains__(self, key: Key) -> bool:
        return key in self._per_key

    def __len__(self) -> int:
        return len(self._per_key)

    def payloads(self, key: Key) -> List[Any]:
        """All retained payloads of ``key``, oldest interval first."""
        window = self._per_key.get(key)
        if window is None:
            return []
        return [payload for payload, _ in window.payloads()]

    def latest_payload(self, key: Key) -> Optional[Any]:
        """Most recent payload of ``key`` (``None`` when the key is unknown)."""
        window = self._per_key.get(key)
        newest = window.newest() if window is not None else None
        return newest[0] if newest is not None else None

    def key_size(self, key: Key) -> float:
        """Total windowed state size of ``key`` (``S(k, w)``)."""
        window = self._per_key.get(key)
        if window is None:
            return 0.0
        return sum(size for _, (_, size) in window.items())

    def total_size(self) -> float:
        """Total state held by this task (tracked incrementally; O(1)).

        The running total carries ordinary float summation error relative to a
        fresh recomputation when sizes span many orders of magnitude; it is
        re-anchored to exactly 0.0 whenever the state empties.
        """
        return self._total_size

    # -- migration ---------------------------------------------------------------------

    def snapshot(self, key: Key) -> KeyStateSnapshot:
        """Copy the full windowed state of ``key`` without removing it.

        The non-destructive twin of :meth:`extract`, used by checkpointing:
        the returned snapshot has exactly the shipped-state shape, but the
        key keeps serving tuples on this task.  Every payload is a shallow
        copy (``copy.copy``), detached from the state — the ownership
        contract: the task grows its live payloads in place with the next
        batch, and whoever holds a snapshot (an in-process caller, a test, a
        checkpoint writer) must not see it move.  The runtime's own wire
        pickles the snapshot inside ``put``, before the next batch runs, so
        it alone would not need the copy.
        """
        window = self._per_key.get(key)
        if window is None:
            return []
        return [
            (interval, copy(payload), size)
            for interval, (payload, size) in window.items()
        ]

    def extract(self, key: Key) -> KeyStateSnapshot:
        """Remove and return the full windowed state of ``key``.

        The payloads leave with the snapshot — ownership moves to the caller,
        nothing is copied.  Returns an empty snapshot when the key holds no
        state (migrating a stateless key is a no-op).
        """
        window = self._per_key.pop(key, None)
        if window is None:
            return []
        snapshot = [
            (interval, payload, size)
            for interval, (payload, size) in window.items()
        ]
        for _, _, size in snapshot:
            self._total_size -= size
        if not self._per_key:
            self._total_size = 0.0
        return snapshot

    def install(self, key: Key, snapshot: KeyStateSnapshot) -> None:
        """Install a previously extracted snapshot for ``key``.

        Installing over existing state merges interval-wise (the incoming
        snapshot wins on conflicts), which matches the at-most-once hand-off of
        the pause/resume protocol.  The state owns the snapshot's payloads
        from here on.
        """
        for interval, payload, size in snapshot:
            self.update(key, interval, payload, size)

    def clear(self) -> None:
        self._per_key.clear()
        self._total_size = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReferenceKeyedState(window={self.window}, keys={len(self._per_key)})"
