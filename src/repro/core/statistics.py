"""Per-interval key statistics (Section II-A of the paper).

For every time interval ``T_i`` and key ``k`` the system measures:

* ``g_i(k)`` — frequency: number of tuples with key ``k``;
* ``c_i(k)`` — computation cost: CPU resource required to process those tuples;
* ``s_i(k)`` — memory consumption of the state produced for ``k`` in ``T_i``.

The windowed memory ``S_i(k, w) = Σ_{j=i-w+1..i} s_j(k)`` measures the state
that must be transferred when the key is migrated (only the last ``w`` intervals
are retained by a stateful operator).

:class:`IntervalStats` is the snapshot of one interval, stored as aligned
columns; :class:`KeyStats` is the per-key value object, built on demand.
:class:`StatisticsStore` accumulates snapshots, keeps only the last ``w`` of
them, and answers the windowed queries the planning algorithms need.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import (
    Any,
    Deque,
    Dict,
    Hashable,
    Iterable,
    KeysView,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.snapshot import Snapshot, WorkloadSnapshot, key_positions, same_key_list

__all__ = ["KeyStats", "KeyColumns", "IntervalStats", "StatisticsStore"]

Key = Hashable


@dataclass(frozen=True)
class KeyStats:
    """Measurements for a single key during a single interval."""

    frequency: float = 0.0
    cost: float = 0.0
    memory: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency < 0 or self.cost < 0 or self.memory < 0:
            raise ValueError(f"key statistics must be non-negative: {self}")

    def merged(self, other: "KeyStats") -> "KeyStats":
        """Return the element-wise sum of two measurements."""
        return KeyStats(
            frequency=self.frequency + other.frequency,
            cost=self.cost + other.cost,
            memory=self.memory + other.memory,
        )


class KeyColumns:
    """Columnar view of a set of observed keys: aligned key / cost / memory columns.

    The planner works on these arrays instead of walking per-key dicts: ``keys``
    is the snapshot's key order, ``cost[i]`` and ``memory[i]`` belong to
    ``keys[i]``.  The columns are shared by every reader and must not be
    written to (the arrays are flagged read-only); the derived lookup
    structures are built on first use.
    """

    __slots__ = ("keys", "cost", "memory", "route_memo", "_index")

    def __init__(self, keys: Sequence[Key], cost: np.ndarray, memory: np.ndarray) -> None:
        cost.flags.writeable = False
        memory.flags.writeable = False
        self.keys = keys
        self.cost = cost
        self.memory = memory
        #: ``(assignment, table version, h, F, loads)`` over these columns,
        #: kept by :meth:`~repro.core.assignment.AssignmentFunction.route_columns`.
        self.route_memo: Optional[Tuple[Any, ...]] = None
        self._index: Optional[Dict[Key, int]] = None

    @property
    def index(self) -> Dict[Key, int]:
        """``{key: position}`` — also the membership test for "was observed".

        The one index of the key list (:func:`~repro.core.snapshot.key_positions`),
        shared with the snapshot plan that routed the same key tuple."""
        if self._index is None:
            self._index = key_positions(self.keys)
        return self._index

    def share_keys(self, other: "KeyColumns") -> None:
        """Adopt ``other``'s key structures when both list the same keys in order.

        A stationary key population re-lists the same keys interval after
        interval; sharing the list and the position index saves rebuilding
        them (and lets per-key-list memos hit by identity).  Snapshots that
        share one key tuple share the list already.
        """
        if same_key_list(self.keys, other.keys):
            self.keys = other.keys
            if other._index is not None:
                self._index = other._index

    def with_memory(self, memory: np.ndarray) -> "KeyColumns":
        """Same keys and costs with another memory column (windowed state)."""
        clone = KeyColumns(self.keys, self.cost, memory)
        clone._index = self.index
        return clone


class IntervalStats:
    """Statistics of every observed key for a single time interval ``T_i``.

    Stored as columns: ``_table[:, i]`` holds ``g_i(k)``, ``c_i(k)`` and
    ``s_i(k)`` of ``k = _keys[i]``, and :meth:`columns` hands the cost and
    memory columns to the planner as they are.  A :class:`KeyStats` is built
    only when a caller asks for one (:meth:`get`, :meth:`items`).

    The snapshot is conceptually immutable once handed to the planner; the
    mutating helpers (:meth:`record`, :meth:`record_bulk`) are only used while
    the interval is being measured and write to a copy once :meth:`columns`
    has been served, so columns a reader holds never change.  Built from a
    :class:`~repro.core.snapshot.Snapshot`, the keys are that snapshot's
    live key tuple, shared, until the first write lists them afresh.
    """

    __slots__ = ("interval", "_keys", "_table", "_index", "_columns", "_totals")

    def __init__(
        self,
        interval: int,
        stats: Optional[Mapping[Key, KeyStats]] = None,
    ) -> None:
        self.interval = int(interval)
        #: A list, or a snapshot's live key tuple until the first write.
        self._keys: Sequence[Key] = []
        #: The frequency, cost and memory columns (float64), one position per
        #: key; positions past ``len(self._keys)`` are spare capacity.
        self._table = np.empty((3, 0))
        #: ``{key: position}``, built on first use (see :meth:`_positions`).
        self._index: Optional[Dict[Key, int]] = None
        self._columns: Optional[KeyColumns] = None
        #: The three column totals, each folded on first use (see :meth:`_total`).
        self._totals: List[Optional[float]] = [None, None, None]
        if stats:
            self.record_bulk(
                (key, stat.frequency, stat.cost, stat.memory) for key, stat in stats.items()
            )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_frequencies(
        cls,
        interval: int,
        frequencies: WorkloadSnapshot,
        *,
        cost_per_tuple: Union[float, Sequence[float]] = 1.0,
        memory_per_tuple: Union[float, Sequence[float]] = 1.0,
    ) -> "IntervalStats":
        """Build a snapshot from raw key frequencies.

        The common path for workloads whose computation cost and state growth
        are proportional to the number of tuples: ``cost_per_tuple`` and
        ``memory_per_tuple`` are one scalar for every key, or one value per
        key in the mapping's order.  Keys with a zero count are left out; a
        negative or NaN count, cost or memory raises ``ValueError``.
        ``frequencies`` is read as a :class:`~repro.core.snapshot.Snapshot`
        (a mapping is converted once): its count column and its live key
        tuple, which the statistics share.
        """
        stats = cls(interval)
        snapshot = Snapshot.of(frequencies)
        counts = snapshot.counts
        _require_non_negative(counts, cost_per_tuple, memory_per_tuple)
        live = snapshot.live()
        table = np.empty((3, len(counts)))
        table[0] = counts
        np.multiply(counts, cost_per_tuple, out=table[1])
        np.multiply(counts, memory_per_tuple, out=table[2])
        if live is not snapshot:
            table = table[:, counts > 0]
        stats._keys, stats._table = live.key_tuple, table
        return stats

    @classmethod
    def from_columns(
        cls,
        interval: int,
        keys: Iterable[Key],
        frequency: Sequence[float],
        cost: Sequence[float],
        memory: Sequence[float],
    ) -> "IntervalStats":
        """Build a snapshot from aligned columns (``frequency[i]``, ``cost[i]``
        and ``memory[i]`` belong to ``keys[i]``).

        For callers that already hold arrays.  The columns are copied; every
        key is kept, zero counts included; a key listed twice has its values
        summed, as :meth:`record_bulk` would; a negative or NaN value, or a
        column of another length than ``keys``, raises ``ValueError``.
        """
        stats = cls(interval)
        keys = list(keys)
        table = np.array([frequency, cost, memory], dtype=np.float64)
        if table.shape != (3, len(keys)):
            raise ValueError(f"every column must hold one number for each of {len(keys)} keys")
        _require_non_negative(table)
        index = dict(zip(keys, range(len(keys))))
        if len(index) < len(keys):
            stats.record_bulk(zip(keys, *table.tolist()))
        else:
            stats._keys, stats._table, stats._index = keys, table, index
        return stats

    def record(
        self,
        key: Key,
        *,
        frequency: float = 0.0,
        cost: float = 0.0,
        memory: float = 0.0,
    ) -> None:
        """Accumulate a measurement for ``key`` into this interval."""
        self.record_bulk(((key, frequency, cost, memory),))

    def record_bulk(
        self, entries: Iterable[Tuple[Key, float, float, float]]
    ) -> None:
        """Accumulate many ``(key, frequency, cost, memory)`` measurements.

        A key seen before has the measurement added to its own; a negative
        value raises ``ValueError`` (the entries before it stay recorded).
        """
        if self._columns is not None:
            # Served columns are a reader's picture of the interval: leave
            # them as they are and write to a copy.
            self._keys = list(self._keys)
            self._table = self._filled().copy()
            self._index = None if self._index is None else dict(self._index)
            self._columns = None
        elif type(self._keys) is not list:
            self._keys = list(self._keys)  # the shared key tuple
        self._totals = [None, None, None]
        keys = self._keys
        positions = self._positions()
        for key, *measured in entries:
            if any(value < 0 for value in measured):
                raise ValueError(f"key statistics must be non-negative: {key!r} {measured}")
            at = positions.get(key)
            if at is None:
                at = positions[key] = len(keys)
                if at == self._table.shape[1]:
                    # Double the capacity: amortised O(1) per new key.
                    self._table = np.concatenate([self._table, np.empty((3, max(8, at)))], axis=1)
                keys.append(key)
                self._table[:, at] = measured
            else:
                self._table[:, at] += measured

    def _positions(self) -> Dict[Key, int]:
        """``{key: position}`` — the index the served columns already built, if any
        (a stationary key population shares one across intervals, see
        :meth:`KeyColumns.share_keys`)."""
        if self._index is None:
            if self._columns is not None:
                self._index = self._columns.index
            else:
                self._index = dict(zip(self._keys, range(len(self._keys))))
        return self._index

    def _filled(self) -> np.ndarray:
        """The three columns without the spare capacity."""
        return self._table[:, : len(self._keys)]

    def _value(self, column: int, key: Key) -> float:
        at = self._positions().get(key)
        return 0.0 if at is None else float(self._table[column, at])

    # -- queries --------------------------------------------------------------

    def columns(self) -> KeyColumns:
        """The snapshot's own cost and memory columns as a read-only view,
        shared until the next :meth:`record` / :meth:`record_bulk`."""
        if self._columns is None:
            _, cost, memory = self._filled()
            self._columns = KeyColumns(self._keys, cost, memory)
            self._columns._index = self._index
        return self._columns

    def keys(self) -> Sequence[Key]:
        """The observed keys in column order (shared, not to be written to)."""
        return self._keys

    def items(self) -> List[Tuple[Key, KeyStats]]:
        """``(key, KeyStats)`` of every observed key, in column order."""
        return list(zip(self._keys, map(KeyStats, *self._filled().tolist())))

    def __contains__(self, key: Key) -> bool:
        return key in self._positions()

    def __len__(self) -> int:
        return len(self._keys)

    def get(self, key: Key) -> KeyStats:
        """Return the stats of ``key`` (zeros if the key was not observed)."""
        return KeyStats(self.frequency(key), self.cost(key), self.memory(key))

    def frequency(self, key: Key) -> float:
        """``g_i(k)``."""
        return self._value(0, key)

    def cost(self, key: Key) -> float:
        """``c_i(k)``."""
        return self._value(1, key)

    def memory(self, key: Key) -> float:
        """``s_i(k)``."""
        return self._value(2, key)

    # The totals add key by key, in key order, so they repeat bit for bit
    # whatever produced the snapshot: np.add.accumulate is a strict left fold
    # (np.sum adds pairwise), and the trailing ``+ 0.0`` turns a -0.0 total
    # into 0.0 as a fold starting from 0 does.  Each is folded once per
    # snapshot: every planning step of an interval reads the same totals,
    # and recording into the snapshot drops them.

    def _total(self, column: int) -> float:
        total = self._totals[column]
        if total is None:
            filled = self._table[column, : len(self._keys)]
            total = float(np.add.accumulate(filled)[-1]) + 0.0 if len(filled) else 0.0
            self._totals[column] = total
        return total

    def total_frequency(self) -> float:
        """Total number of tuples in the interval."""
        return self._total(0)

    def total_cost(self) -> float:
        """Total computation cost of the interval over all keys."""
        return self._total(1)

    def total_memory(self) -> float:
        """Total state produced during the interval."""
        return self._total(2)

    def copy(self) -> "IntervalStats":
        clone = IntervalStats(self.interval)
        clone._keys = list(self._keys)
        clone._table = self._filled().copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalStats(interval={self.interval}, keys={len(self._keys)})"


def _require_non_negative(*columns: Union[float, Sequence[float]]) -> None:
    """One vectorised check per column: ``>= 0`` is false for NaN too."""
    for column in columns:
        if not np.all(np.greater_equal(column, 0)):
            raise ValueError("key statistics must be non-negative numbers")


@dataclass
class StatisticsStore:
    """Rolling store of the last ``window`` interval snapshots.

    This is the controller-side view of step 1 of the rebalance workflow
    (Fig. 5): tasks report their per-key measurements at the end of every
    interval; the store retains only the last ``w`` intervals, which is all the
    planner needs for both the cost model (latest interval) and the migration
    model (windowed state size ``S_i(k, w)``).
    """

    window: int = 1
    _history: Deque[IntervalStats] = field(default_factory=deque, repr=False)
    #: Windowed columns, keyed by the number of snapshots summed and stored
    #: with the per-snapshot columns they were computed from (so a snapshot
    #: mutated after the push is noticed).
    _derived: Dict[int, Tuple[Tuple[KeyColumns, ...], KeyColumns]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Columns last served for the latest snapshot (see ``KeyColumns.share_keys``).
    _last_columns: Optional[KeyColumns] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    # -- ingestion ------------------------------------------------------------

    def push(self, stats: IntervalStats) -> None:
        """Append the snapshot of a newly finished interval."""
        if self._history and stats.interval <= self._history[-1].interval:
            raise ValueError(
                "interval snapshots must be pushed in strictly increasing order: "
                f"got {stats.interval} after {self._history[-1].interval}"
            )
        self._history.append(stats)
        while len(self._history) > self.window:
            self._history.popleft()
        self._derived.clear()

    # -- queries --------------------------------------------------------------

    @property
    def intervals(self) -> Tuple[int, ...]:
        """Interval indices currently retained, oldest first."""
        return tuple(snapshot.interval for snapshot in self._history)

    @property
    def latest(self) -> IntervalStats:
        """Snapshot of the most recent interval (``T_{i-1}`` for the planner)."""
        if not self._history:
            raise LookupError("no interval statistics recorded yet")
        return self._history[-1]

    def __len__(self) -> int:
        return len(self._history)

    def __bool__(self) -> bool:
        return bool(self._history)

    def observed_keys(self) -> KeysView:
        """All keys observed in the retained window, in order of first
        appearance, oldest snapshot first (every key that holds state)."""
        return dict.fromkeys(chain.from_iterable(s.keys() for s in self._history)).keys()

    def frequency(self, key: Key) -> float:
        """``g_{i-1}(k)`` of the latest interval."""
        return self.latest.frequency(key)

    def cost(self, key: Key) -> float:
        """``c_{i-1}(k)`` of the latest interval."""
        return self.latest.cost(key)

    def _recent(self, window: Optional[int]) -> Sequence[IntervalStats]:
        """The last ``window`` retained snapshots, oldest first."""
        w = self.window if window is None else window
        if w < 1:
            raise ValueError(f"window must be >= 1, got {w}")
        if w >= len(self._history):
            return self._history
        return list(self._history)[-w:]

    def windowed_memory(self, key: Key, window: Optional[int] = None) -> float:
        """``S_i(k, w)``: total state for ``key`` over the last ``w`` intervals.

        ``window`` defaults to the store's window; a smaller value restricts
        the sum to fewer (most recent) intervals.
        """
        total = 0.0
        for snapshot in self._recent(window):
            total += snapshot.memory(key)
        return total

    def total_windowed_memory(self, window: Optional[int] = None) -> float:
        """Total state held by the operator over the retained window."""
        return sum(snapshot.total_memory() for snapshot in self._recent(window))

    def _latest_columns(self) -> KeyColumns:
        columns = self.latest.columns()
        if columns is not self._last_columns:
            if self._last_columns is not None:
                columns.share_keys(self._last_columns)
            self._last_columns = columns
        return columns

    def columns(self, window: Optional[int] = None) -> KeyColumns:
        """The latest interval's keys with ``c_{i-1}(k)`` and ``S_{i-1}(k, w)`` columns.

        Built once per pushed snapshot (and again if one of the window's
        snapshots was recorded into) and shared by every planning step of
        the interval (imbalance check, cleaning trials, Phase II, LLFD).
        """
        latest = self._latest_columns()
        snapshots = list(self._recent(window))
        if len(snapshots) == 1:
            return latest
        sources = tuple(snapshot.columns() for snapshot in snapshots)
        cached = self._derived.get(len(snapshots))
        if cached is None or cached[0] != sources:
            columns = self._window_columns(latest, snapshots)
            cached = self._derived[len(snapshots)] = (sources, columns)
        return cached[1]

    @staticmethod
    def _window_columns(latest: KeyColumns, snapshots: List[IntervalStats]) -> KeyColumns:
        # Summed oldest first, adding 0.0 where a key was absent — the same
        # float additions, in the same order, as windowed_memory().
        keys = latest.keys
        memory = np.zeros(len(keys))
        for snapshot in snapshots:
            columns = snapshot.columns()
            if same_key_list(columns.keys, keys):
                memory += columns.memory
                continue
            position = np.fromiter(
                map(columns.index.get, keys, repeat(-1)), dtype=np.intp, count=len(keys)
            )
            present = position >= 0
            memory[present] += columns.memory[position[present]]
        return latest.with_memory(memory)

    def copy(self) -> "StatisticsStore":
        clone = StatisticsStore(window=self.window)
        for snapshot in self._history:
            clone._history.append(snapshot.copy())
        return clone
