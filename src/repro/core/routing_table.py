"""The explicit routing table ``A`` of the mixed assignment function.

A routing table is a bounded mapping from keys to downstream task instances.
It only holds entries for the handful of keys whose destination differs from
(or must be pinned regardless of) the hash function; every other key falls
through to the hash.  Editing this table is how the controller redistributes
workload (Section II of the paper).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["RoutingTable", "RoutingTableOverflowError"]

Key = Hashable


class RoutingTableOverflowError(RuntimeError):
    """Raised when adding an entry would exceed the table's ``max_size``."""


class RoutingTable:
    """Bounded mapping ``key -> task`` used for explicit routing.

    Parameters
    ----------
    entries:
        Optional initial ``{key: task}`` mapping.
    max_size:
        Optional maximum number of entries (``A_max`` in the paper).  ``None``
        means unbounded (used by MinMig/LLFD which do not control table size).
    """

    __slots__ = ("_entries", "_max_size", "_version")

    def __init__(
        self,
        entries: Optional[Mapping[Key, int]] = None,
        max_size: Optional[int] = None,
    ) -> None:
        if max_size is not None and max_size < 0:
            raise ValueError(f"max_size must be non-negative, got {max_size}")
        self._max_size = max_size
        self._version = 0
        self._entries: Dict[Key, int] = dict(entries) if entries else {}
        if max_size is not None and len(self._entries) > max_size:
            raise RoutingTableOverflowError(
                f"initial entries ({len(self._entries)}) exceed max_size ({max_size})"
            )

    # -- dict-like protocol -------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Key]:
        return iter(self._entries)

    def __getitem__(self, key: Key) -> int:
        return self._entries[key]

    def get(self, key: Key, default: Optional[int] = None) -> Optional[int]:
        """Return the destination of ``key`` or ``default`` if absent."""
        return self._entries.get(key, default)

    def get_many(self, keys: Iterable[Key]) -> List[Optional[int]]:
        """Bulk :meth:`get` over many keys (``None`` for keys without entry)."""
        get = self._entries.get
        return [get(key) for key in keys]

    def items(self) -> Iterable[Tuple[Key, int]]:
        """Iterate over ``(key, task)`` entries."""
        return self._entries.items()

    def keys(self) -> Iterable[Key]:
        return self._entries.keys()

    def values(self) -> Iterable[int]:
        return self._entries.values()

    # -- mutation -----------------------------------------------------------

    def set(self, key: Key, task: int, *, enforce_limit: bool = True) -> None:
        """Add or update the entry for ``key``.

        With ``enforce_limit`` (the default) the ``max_size`` bound is checked
        when the key is new.  Algorithms that only check the size at the end of
        a planning round (e.g. Mixed's inner loop) pass ``enforce_limit=False``.
        """
        if (
            enforce_limit
            and self._max_size is not None
            and key not in self._entries
            and len(self._entries) >= self._max_size
        ):
            raise RoutingTableOverflowError(
                f"routing table full (max_size={self._max_size}); cannot add {key!r}"
            )
        self._entries[key] = task
        self._version += 1

    def remove(self, key: Key) -> int:
        """Remove and return the destination of ``key``.

        Raises ``KeyError`` if the key has no entry.
        """
        destination = self._entries.pop(key)
        self._version += 1
        return destination

    def discard(self, key: Key) -> Optional[int]:
        """Remove the entry for ``key`` if present, returning it (or ``None``)."""
        destination = self._entries.pop(key, None)
        if destination is not None:
            self._version += 1
        return destination

    def clear(self) -> None:
        """Remove every entry (the cleaning phase of MinTable)."""
        self._entries.clear()
        self._version += 1

    # -- misc ---------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic edit counter; lets routing caches detect table changes."""
        return self._version

    @property
    def max_size(self) -> Optional[int]:
        """Maximum number of entries, or ``None`` if unbounded."""
        return self._max_size

    @property
    def size(self) -> int:
        """Current number of entries (``N_A``)."""
        return len(self._entries)

    def copy(self, *, max_size: Optional[int] = "unchanged") -> "RoutingTable":  # type: ignore[assignment]
        """Return a deep copy; ``max_size`` may be overridden."""
        new_max = self._max_size if max_size == "unchanged" else max_size
        table = RoutingTable(max_size=None)
        table._entries = dict(self._entries)
        table._max_size = new_max
        table._version = self._version
        return table

    def changed_keys(self, other: "RoutingTable") -> List[Key]:
        """Keys whose entry differs between the two tables (added, dropped or
        retargeted) — the only keys two assignment functions sharing a hash
        can route differently.

        The table-diff order: this table's dropped or retargeted entries in
        its entry order, then ``other``'s additions in its entry order — a
        function of the two tables alone, built in O(|self| + |other|).
        """
        mine, theirs = self._entries, other._entries
        changed = [key for key, task in mine.items() if theirs.get(key) != task]
        changed.extend(key for key in theirs if key not in mine)
        return changed

    def as_dict(self) -> Dict[Key, int]:
        """Return a plain ``dict`` snapshot of the entries."""
        return dict(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RoutingTable):
            return self._entries == other._entries
        if isinstance(other, Mapping):
            return self._entries == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "inf" if self._max_size is None else str(self._max_size)
        return f"RoutingTable(size={len(self._entries)}, max_size={bound})"
