"""One interval's ``{key: count}`` snapshot, held as columns.

A workload yields one snapshot per interval; the partitioner routes it
(:meth:`~repro.baselines.base.Partitioner.route_snapshot`) and the statistics
are built from it (:meth:`~repro.core.statistics.IntervalStats.from_frequencies`).
:class:`Snapshot` is that value written once: a read-only
``Mapping[Key, float]`` over a key tuple and an aligned float64 count column,
with the live mask (``count > 0``; NaN is not live) and the live sub-snapshot
computed on first use and kept.  Its consumers read the columns, so a
snapshot handed to both costs no per-key Python work after it was built.
It is a :class:`KeyCounts`, the read-only bucket ``route_snapshot`` returns,
whose counts are a column.

A ``{key: count}`` mapping enters through :meth:`Snapshot.of`, the one edge
constructor (one key tuple, one ``np.fromiter`` over the counts).  A
generator that keeps its state as columns builds the snapshot directly and
shares the key tuple across intervals while the key order is unchanged.

:func:`same_key_list` is the one key-list identity: the routing plan of
:meth:`route_snapshot`, the planner's key columns
(:meth:`~repro.core.statistics.KeyColumns.share_keys`) and the hash memo
(:meth:`~repro.core.hashing.UniversalHash.assign_array`) all ask it.
:func:`key_positions` is the one ``{key: position}`` index of a key list,
which the routing plan and the planner's key columns share.
"""

from __future__ import annotations

from collections import abc
from itertools import compress
from typing import Any, Dict, Hashable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "KeyCounts", "Snapshot", "WorkloadSnapshot", "key_list_hash", "key_positions", "same_key_list",
]

Key = Hashable

#: What a snapshot consumer accepts: a :class:`Snapshot`, or any ``{key: count}``
#: mapping, which goes through :meth:`Snapshot.of`.
WorkloadSnapshot = Mapping[Key, float]


#: What is known of the key lists seen last, by identity: ``[keys, fingerprint,
#: {key: position}]``, each part computed on first use.  Each entry holds its
#: list, so the ``id`` is not reused while the entry lives.
_KEY_LISTS: Dict[int, List[Any]] = {}
_KEY_LISTS_MAX = 8


def _known(keys: Sequence[Key]) -> List[Any]:
    """The entry of ``keys``, made (after dropping every entry once full) if new."""
    entry = _KEY_LISTS.get(id(keys))
    if entry is None or entry[0] is not keys:
        if len(_KEY_LISTS) >= _KEY_LISTS_MAX:
            _KEY_LISTS.clear()
        entry = _KEY_LISTS[id(keys)] = [keys, None, None]
    return entry


def key_list_hash(keys: Sequence[Key]) -> int:
    """Python's ``hash`` of ``keys`` as a tuple: a fingerprint of the dict keys listed.

    Kept for the last few lists by identity, so a list compared interval
    after interval is hashed once.  A key list is not changed once it has
    been compared or indexed (a snapshot's is a tuple; a served
    :class:`~repro.core.statistics.KeyColumns` list is copied before a write).
    """
    entry = _known(keys)
    if entry[1] is None:
        entry[1] = hash(tuple(keys))
    return entry[1]


def key_positions(keys: Sequence[Key]) -> Dict[Key, int]:
    """``{key: position}`` over ``keys``, kept for the last few lists by
    identity: the planner's :attr:`~repro.core.statistics.KeyColumns.index`
    and the snapshot plan of
    :meth:`~repro.baselines.base.Partitioner.route_snapshot` share the one
    built over a key tuple.  Shared, so never written to."""
    entry = _known(keys)
    if entry[2] is None:
        entry[2] = dict(zip(keys, range(len(keys))))
    return entry[2]


def same_key_list(a: Sequence[Key], b: Sequence[Key]) -> bool:
    """True when ``a`` and ``b`` list the same dict keys in the same order.

    The same object does; lists of other lengths do not; else ``==`` decides
    once the :func:`key_list_hash` fingerprints agree.  ``==`` alone does
    not tell two key lists apart the way a dict tells keys apart: numpy
    compares a scalar with a tuple elementwise, so ``[np.int64(2)] == [(2,)]``
    although the two are different keys that hash apart.  Keys that are one
    dict key have one ``hash``, so two lists that share the fingerprint and
    are ``==`` list the same keys (up to a 64-bit hash collision).  Comparing
    the fingerprints first also keeps ``==`` from raising on a numpy scalar
    against a longer tuple.  A list and a tuple are never the same key list.
    """
    return a is b or (len(a) == len(b) and key_list_hash(a) == key_list_hash(b) and a == b)


class KeyCounts(abc.Mapping):
    """A read-only ``{key: count}`` over two aligned sequences.

    ``counts[i]`` is the count of ``keys[i]``.  Iteration, ``len`` and the
    ``values()`` / ``items()`` views run over the sequences, which nothing
    changes; the ``{key: count}`` index behind ``[]``, ``get`` and ``in`` is
    built on the first lookup.  Equal to any mapping with the same items.
    """

    __slots__ = ("_keys", "_counts", "_index")

    def __init__(self, keys: Sequence[Key], counts: Sequence[float]) -> None:
        self._keys = keys
        self._counts = counts
        self._index: Optional[Dict[Key, float]] = None

    def _count_list(self) -> Sequence[float]:
        """The counts as Python numbers, in key order."""
        return self._counts

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[Key]:
        return iter(self._keys)

    def __getitem__(self, key: Key) -> float:
        if self._index is None:
            self._index = dict(zip(self._keys, self._count_list()))
        return self._index[key]

    def values(self) -> abc.ValuesView:
        return _CountsView(self)

    def items(self) -> abc.ItemsView:
        return _ItemsView(self)

    def __reduce__(self) -> tuple:
        return type(self), (self._keys, self._counts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _CountsView(abc.ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[float]:
        return iter(self._mapping._count_list())


class _ItemsView(abc.ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[Key, float]]:
        return zip(self._mapping._keys, self._mapping._count_list())


class Snapshot(KeyCounts):
    """A read-only ``{key: count}`` over a key tuple and a float64 count column.

    ``keys`` lists distinct keys (the caller's guarantee, as a dict's keys
    are); ``counts[i]`` is the count of ``keys[i]``.  A read-only float64
    array is adopted as it is; a writeable one is copied, so the column
    never changes under the snapshot.  As a :class:`KeyCounts`, it
    iterates in key order and its ``values()`` and ``items()`` yield Python
    floats.
    """

    __slots__ = ("_live",)

    def __init__(self, keys: Sequence[Key], counts: Any) -> None:
        keys = keys if type(keys) is tuple else tuple(keys)
        column = np.asarray(counts, dtype=np.float64)
        if column.flags.writeable:
            if column is counts:
                column = column.copy()
            column.flags.writeable = False
        if column.shape != (len(keys),):
            raise ValueError(f"counts must hold one number for each of {len(keys)} keys")
        super().__init__(keys, column)
        self._live: Optional[Snapshot] = None

    @classmethod
    def of(cls, snapshot: WorkloadSnapshot) -> "Snapshot":
        """The edge constructor: ``snapshot`` itself when it is a
        :class:`Snapshot`, else its keys and counts as columns."""
        if isinstance(snapshot, Snapshot):
            return snapshot
        keys = tuple(snapshot)
        counts = np.fromiter(snapshot.values(), dtype=np.float64, count=len(keys))
        counts.flags.writeable = False
        return cls(keys, counts)

    # -- the columns ---------------------------------------------------------

    @property
    def key_tuple(self) -> Tuple[Key, ...]:
        """The keys, in order (shared by every snapshot built over them)."""
        return self._keys

    @property
    def counts(self) -> np.ndarray:
        """The read-only float64 count column, aligned with :attr:`key_tuple`."""
        return self._counts

    def live(self) -> "Snapshot":
        """The keys whose count is ``> 0`` (not NaN): this snapshot itself when
        every count is, else the sub-snapshot of those keys in order.  Built
        once."""
        if self._live is None:
            mask = self._counts > 0
            if mask.all():
                self._live = self
            else:
                counts = self._counts[mask]
                counts.flags.writeable = False
                self._live = Snapshot(tuple(compress(self._keys, mask.tolist())), counts)
        return self._live

    def _count_list(self) -> List[float]:
        return self._counts.tolist()
