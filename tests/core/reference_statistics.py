"""The dict-of-``KeyStats`` interval snapshot, kept as the oracle for the columnar one in ``src/``.

This is the ``IntervalStats`` body ``repro.core.statistics`` shipped before
the snapshot became three float64 columns: one frozen :class:`KeyStats` per
key in a dict, ``columns()`` walking the objects back into arrays.  It is
unchanged apart from its name.  Nothing under ``src/`` uses it;
``test_statistics_oracle.py`` asserts that the columnar ``IntervalStats``
answers every query with the same keys, in the same order, bit for bit.

One deliberate difference is *not* mirrored here: ``from_frequencies`` below
silently drops negative and NaN counts, the columnar one raises
``ValueError`` (see ``test_statistics.py``).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.core.statistics import KeyColumns, KeyStats

Key = Hashable


class ReferenceIntervalStats:
    """Statistics of every observed key for a single time interval ``T_i``.

    The snapshot is conceptually immutable once handed to the planner; the
    mutating helpers (:meth:`record`) are only used while the interval is being
    measured (by tasks or by workload generators) and drop the cached
    :meth:`columns`.
    """

    __slots__ = ("interval", "_stats", "_columns")

    def __init__(
        self,
        interval: int,
        stats: Optional[Mapping[Key, KeyStats]] = None,
    ) -> None:
        self.interval = int(interval)
        self._stats: Dict[Key, KeyStats] = dict(stats) if stats else {}
        self._columns: Optional[KeyColumns] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_frequencies(
        cls,
        interval: int,
        frequencies: Mapping[Key, float],
        *,
        cost_per_tuple: float = 1.0,
        memory_per_tuple: float = 1.0,
    ) -> "ReferenceIntervalStats":
        """Build a snapshot from raw key frequencies.

        This is the common path for synthetic workloads where the computation
        cost and state growth are proportional to the number of tuples.
        """
        stats = {
            key: KeyStats(
                frequency=float(freq),
                cost=float(freq) * cost_per_tuple,
                memory=float(freq) * memory_per_tuple,
            )
            for key, freq in frequencies.items()
            if freq > 0
        }
        return cls(interval, stats)

    def record(
        self,
        key: Key,
        *,
        frequency: float = 0.0,
        cost: float = 0.0,
        memory: float = 0.0,
    ) -> None:
        """Accumulate a measurement for ``key`` into this interval."""
        addition = KeyStats(frequency=frequency, cost=cost, memory=memory)
        existing = self._stats.get(key)
        self._stats[key] = addition if existing is None else existing.merged(addition)
        self._columns = None

    def record_bulk(
        self, entries: Iterable[Tuple[Key, float, float, float]]
    ) -> None:
        """Accumulate many ``(key, frequency, cost, memory)`` measurements.

        The batch sibling of :meth:`record`, used by the fluid engine to fold a
        whole routed snapshot into the interval with one :class:`KeyStats`
        construction per key instead of two.
        """
        stats = self._stats
        get = stats.get
        self._columns = None
        for key, frequency, cost, memory in entries:
            addition = KeyStats(frequency=frequency, cost=cost, memory=memory)
            existing = get(key)
            stats[key] = addition if existing is None else existing.merged(addition)

    # -- queries --------------------------------------------------------------

    def columns(self) -> KeyColumns:
        """The snapshot as aligned columns, built once and shared until the
        next :meth:`record` / :meth:`record_bulk`."""
        if self._columns is None:
            values = self._stats.values()
            count = len(values)
            self._columns = KeyColumns(
                list(self._stats),
                np.fromiter(map(attrgetter("cost"), values), dtype=float, count=count),
                np.fromiter(map(attrgetter("memory"), values), dtype=float, count=count),
            )
        return self._columns

    def keys(self) -> Iterable[Key]:
        return self._stats.keys()

    def items(self) -> Iterable[Tuple[Key, KeyStats]]:
        return self._stats.items()

    def __contains__(self, key: Key) -> bool:
        return key in self._stats

    def __len__(self) -> int:
        return len(self._stats)

    def get(self, key: Key) -> KeyStats:
        """Return the stats of ``key`` (zeros if the key was not observed)."""
        return self._stats.get(key, KeyStats())

    def frequency(self, key: Key) -> float:
        """``g_i(k)``."""
        return self.get(key).frequency

    def cost(self, key: Key) -> float:
        """``c_i(k)``."""
        return self.get(key).cost

    def memory(self, key: Key) -> float:
        """``s_i(k)``."""
        return self.get(key).memory

    def total_cost(self) -> float:
        """Total computation cost of the interval over all keys."""
        return sum(stat.cost for stat in self._stats.values())

    def total_frequency(self) -> float:
        """Total number of tuples in the interval."""
        return sum(stat.frequency for stat in self._stats.values())

    def total_memory(self) -> float:
        """Total state produced during the interval."""
        return sum(self.columns().memory.tolist())

    def copy(self) -> "ReferenceIntervalStats":
        return ReferenceIntervalStats(self.interval, self._stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReferenceIntervalStats(interval={self.interval}, keys={len(self._stats)})"
