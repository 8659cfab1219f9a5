"""Keyed, windowed operator state.

Each task of a stateful operator owns a :class:`KeyedState`: one table per
retained interval, ``{interval: {key: [payload, size]}}`` oldest first, plus
the running total of every retained size.  A key's windowed state — the
``S(k, w)`` of the paper, in abstract "memory units", the quantity the
migration cost model is expressed in — is its slots across those tables.
When a key is migrated, its entire windowed state is extracted on the source
task and installed on the target task (steps 5–6 of Fig. 5).

**Retention.**  The paper's task "erases the state from time interval
``T_{i−w}`` after finishing the computation on all tuples in ``T_i``".  Here
that is one clock rule: once interval ``i`` is open, nothing older than
``i − w + 1`` is held, for every key alike, written in ``i`` or not.  A write
that opens a newer table drops the tables that left the window, and
:meth:`KeyedState.expire` drops them at an interval's close.  A batch write
to an interval older than the newest one the task holds raises (the runtime
worker clamps each batch to its watermark, the simulator writes in order);
:meth:`KeyedState.install` merges into any retained interval.

**Ownership.**  A payload stored here belongs to the state: an operator may
grow a list / dict payload in place (its fold returns the object it was
handed) and must never emit that object downstream.  The ways out are
:meth:`KeyedState.snapshot`, which copies, and :meth:`KeyedState.extract`,
which gives the payloads up; :meth:`KeyedState.install` takes ownership of
what it is given.
"""

from __future__ import annotations

from copy import copy
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = ["KeyedState", "KeyStateSnapshot"]

Key = Hashable

#: The serialised form of one key's windowed state, as shipped during migration:
#: a list of ``(interval, payload, size)`` triples.
KeyStateSnapshot = List[Tuple[int, Any, float]]

_size_of = itemgetter(1)


def _count(old: Any, delta: float) -> Any:
    """The payload without a fold: the accumulated size."""
    return (old or 0) + delta


class KeyedState:
    """Per-task store of windowed per-key state."""

    def __init__(self, window: int = 1) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        #: interval -> {key: [payload, size]}, oldest interval first.
        self._tables: Dict[int, Dict[Key, List[Any]]] = {}
        #: The last key of ``_tables`` (``None`` while it is empty).
        self._newest: Optional[int] = None
        #: Running total of all retained sizes, so :meth:`total_size` is O(1).
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
        self.install(key, [(interval, payload, size)])

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
        fold = None if payload_update is None else (lambda old, _: payload_update(old))
        return self.accumulate_batch((key,), (None,), interval, delta_size, fold)[0]

    def accumulate_batch(
        self,
        keys: Sequence[Key],
        values: Iterable[Any],
        interval: int,
        delta_size: Union[float, Sequence[float]],
        fold: Optional[Callable[[Any, Any], Any]] = None,
    ) -> List[Any]:
        """Apply a batch of tuples, in order, to ``interval``: one lookup into
        the interval's table per tuple.

        Each tuple grows its key's state by ``delta_size`` (one scalar, or
        one value per tuple) and replaces the key's payload with ``fold(old,
        value)`` (``old`` is ``None`` the first time; without ``fold`` the
        payload counts the accumulated size).  Returns the payload after each
        tuple — for a ``fold`` that grows its payload in place these are all
        the one state-owned object, which the caller must not emit.
        :meth:`total_size` moves once per batch and equals the per-tuple
        total up to float summation order.

        An ``interval`` older than the newest one held raises ``ValueError``,
        and so does a delta that drives a key's size negative; both before
        anything is stored.  An empty batch opens no table.
        """
        if not len(keys):
            return []
        newest = self._newest
        if newest is not None and interval < newest:
            raise ValueError(
                f"batch interval {interval} is older than the newest held, {newest}"
            )
        scalar = isinstance(delta_size, (int, float))
        deltas = repeat(float(delta_size)) if scalar else delta_size
        if (delta_size if scalar else min(delta_size)) < 0:
            self._check_sizes(keys, deltas, self._tables.get(interval, {}))
        if fold is None:
            fold, values = _count, deltas
        table = self._tables[interval] if interval == newest else self._open(interval)
        find = table.get
        after: List[Any] = []
        emit = after.append
        for key, value, delta in zip(keys, values, deltas):
            slot = find(key)
            if slot is None:
                payload = fold(None, value)
                table[key] = [payload, 0.0 + delta]
            else:
                payload = slot[0] = fold(slot[0], value)
                slot[1] += delta
            emit(payload)
        self._total_size += float(delta_size) * len(keys) if scalar else sum(delta_size)
        return after

    def _check_sizes(
        self, keys: Sequence[Key], deltas: Iterable[float], table: Dict[Key, List[Any]]
    ) -> None:
        """Raise if a batch with a negative delta would drive a size below zero
        (the write loop's own additions, in its order, on scratch sizes)."""
        sizes: Dict[Key, float] = {}
        for key, delta in zip(keys, deltas):
            size = sizes.get(key)
            if size is None:
                slot = table.get(key)
                size = slot[1] if slot is not None else 0.0
            size += delta
            if size < 0:
                raise ValueError("state size must be non-negative")
            sizes[key] = size

    def _open(self, interval: int) -> Dict[Key, List[Any]]:
        """Open the table of ``interval``, newer than every one held: the clock
        moves, and the tables that left the window are dropped."""
        self.expire(interval)
        table = self._tables[interval] = {}
        self._newest = interval
        return table

    def expire(self, newest_interval: int) -> None:
        """Drop every table older than ``newest_interval − window + 1``."""
        cutoff = newest_interval - self.window + 1
        tables = self._tables
        for interval in [interval for interval in tables if interval < cutoff]:
            self._total_size -= sum(map(_size_of, tables.pop(interval).values()))
        if not tables:
            self._newest = None
            # Re-anchor the running total so an empty state reports exactly
            # 0.0 even after float drift at extreme size magnitudes.
            self._total_size = 0.0

    # -- queries --------------------------------------------------------------------

    def _slots(self, key: Key) -> Iterable[Tuple[int, List[Any]]]:
        """``(interval, [payload, size])`` of every table holding ``key``, oldest first."""
        return (
            (interval, table[key]) for interval, table in self._tables.items() if key in table
        )

    def keys(self) -> Iterable[Key]:
        """Every key with retained state (the union of the tables)."""
        return dict.fromkeys(chain.from_iterable(self._tables.values())).keys()

    def __contains__(self, key: Key) -> bool:
        return any(key in table for table in self._tables.values())

    def __len__(self) -> int:
        return len(self.keys())

    def payloads(self, key: Key) -> List[Any]:
        """All retained payloads of ``key``, oldest interval first."""
        return [slot[0] for _, slot in self._slots(key)]

    def latest_payload(self, key: Key) -> Optional[Any]:
        """Most recent payload of ``key`` (``None`` when the key is unknown)."""
        for table in reversed(self._tables.values()):
            slot = table.get(key)
            if slot is not None:
                return slot[0]
        return None

    def key_size(self, key: Key) -> float:
        """Total windowed state size of ``key`` (``S(k, w)``)."""
        return sum(slot[1] for _, slot in self._slots(key))

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
        return [(interval, copy(payload), size) for interval, (payload, size) in self._slots(key)]

    def extract(self, key: Key) -> KeyStateSnapshot:
        """Remove and return the full windowed state of ``key``.

        The payloads leave with the snapshot — ownership moves to the caller,
        nothing is copied.  Returns an empty snapshot when the key holds no
        state (migrating a stateless key is a no-op).
        """
        snapshot = []
        for interval, table in self._tables.items():
            slot = table.pop(key, None)
            if slot is not None:
                snapshot.append((interval, slot[0], slot[1]))
                self._total_size -= slot[1]
        if snapshot and not any(self._tables.values()):
            self._total_size = 0.0
        return snapshot

    def install(self, key: Key, snapshot: KeyStateSnapshot) -> None:
        """Install a previously extracted snapshot for ``key``.

        Each slot is a write into its interval's table: installing over
        existing state merges interval-wise (the incoming snapshot wins on
        conflicts), which matches the at-most-once hand-off of the
        pause/resume protocol.  A slot newer than every held interval opens
        its table (and moves the clock); one outside the window is not
        held.  The state owns the snapshot's payloads from here on.
        """
        if any(size < 0 for _, _, size in snapshot):
            raise ValueError("state size must be non-negative")
        tables = self._tables
        for interval, payload, size in snapshot:
            table = tables.get(interval)
            if table is None:
                newest = self._newest
                if newest is None or interval > newest:
                    table = self._open(interval)
                elif interval > newest - self.window:
                    tables[interval] = table = {}
                    self._tables = tables = dict(sorted(tables.items()))
                else:
                    continue
            replaced = table.get(key)
            table[key] = [payload, float(size)]
            self._total_size += size - (replaced[1] if replaced is not None else 0.0)

    def clear(self) -> None:
        self._tables.clear()
        self._newest = None
        self._total_size = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyedState(window={self.window}, intervals={list(self._tables)})"
