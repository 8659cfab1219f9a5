"""The mixed assignment function ``F`` (Equation 1 of the paper).

``F(k)`` first consults the explicit routing table ``A``; if the key has no
entry, the universal hash ``h(k)`` decides the destination::

    F(k) = A[k]   if (k, d) ∈ A
         = h(k)   otherwise

The class also provides what the planner needs: batch and columnar evaluation
of ``F`` and ``h``, and construction helpers for a rebalanced copy (``Δ(F, F′)``
itself comes from the routing-table diff, see :mod:`repro.core.migration`).
The columnar ``F`` and the task loads it gives are computed once per
interval's columns and table version: the imbalance check and the first
planning trial of a round read the same ones.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.hashing import UniversalHash
from repro.core.load import load_from_columns
from repro.core.routing_table import RoutingTable
from repro.core.statistics import KeyColumns

__all__ = ["AssignmentFunction"]

Key = Hashable
HashFunction = Callable[[Key], int]


class AssignmentFunction:
    """Mixed explicit/implicit key-to-task mapping.

    Parameters
    ----------
    hash_function:
        The implicit router ``h``; any callable ``key -> task`` works
        (:class:`~repro.core.hashing.UniversalHash`,
        :class:`~repro.core.hashing.ConsistentHashRing`, …).
    routing_table:
        The explicit routing table ``A``.  A fresh empty (unbounded) table is
        created when omitted.
    num_tasks:
        Number of downstream tasks ``N_D``.  Defaults to
        ``hash_function.num_tasks`` when the hash exposes it.
    """

    def __init__(
        self,
        hash_function: HashFunction,
        routing_table: Optional[RoutingTable] = None,
        num_tasks: Optional[int] = None,
    ) -> None:
        self._hash = hash_function
        self._table = routing_table if routing_table is not None else RoutingTable()
        if num_tasks is None:
            num_tasks = getattr(hash_function, "num_tasks", None)
        if num_tasks is None:
            raise ValueError(
                "num_tasks must be given when the hash function does not expose it"
            )
        if num_tasks <= 0:
            raise ValueError(f"num_tasks must be positive, got {num_tasks}")
        self._num_tasks = int(num_tasks)

    # -- basic accessors -------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        """Number of downstream task instances ``N_D``."""
        return self._num_tasks

    @property
    def routing_table(self) -> RoutingTable:
        """The explicit routing table ``A`` (mutable; edit with care)."""
        return self._table

    @property
    def hash_function(self) -> HashFunction:
        """The implicit hash router ``h``."""
        return self._hash

    @property
    def tasks(self) -> range:
        """The downstream task indices ``0..N_D-1``."""
        return range(self._num_tasks)

    # -- evaluation -------------------------------------------------------------

    def __call__(self, key: Key) -> int:
        destination = self._table.get(key)
        if destination is not None:
            return destination
        return self._hash(key)

    def assign_batch(self, keys: Iterable[Key]) -> List[int]:
        """Evaluate ``F`` over many keys in one pass.

        This is the batch fast path used by snapshot routing: the routing
        table is consulted through one bound lookup per key and the hash falls
        back to its own vectorised/memoised implementation, instead of paying
        the full ``__call__`` dispatch per tuple.
        """
        if not len(self._table):
            return self.hash_batch(keys)
        keys = list(keys)
        out = self._table.get_many(keys)
        misses = [index for index, destination in enumerate(out) if destination is None]
        if misses:
            hashed = self.hash_batch([keys[index] for index in misses])
            for index, destination in zip(misses, hashed):
                out[index] = destination
        return out  # type: ignore[return-value]  # every None was filled above

    def hash_destination(self, key: Key) -> int:
        """``h(k)`` — the destination ignoring the routing table."""
        return self._hash(key)

    def hash_batch(self, keys: Iterable[Key]) -> List[int]:
        """``h(k)`` over many keys (the table-less sibling of :meth:`assign_batch`)."""
        hash_batch = getattr(self._hash, "assign_batch", None)
        if hash_batch is not None:
            return hash_batch(keys)
        hash_fn = self._hash
        return [hash_fn(key) for key in keys]

    def route_columns(self, columns: KeyColumns) -> Tuple[np.ndarray, np.ndarray]:
        """``(h(k), F(k))`` over ``columns.keys`` as two ``intp`` arrays.

        The one pass over the observed keys a planning interval needs: the
        hash column is read-only (and memoised by :class:`UniversalHash`
        across intervals that list the same keys); the ``F`` column is a fresh
        copy of it patched with the routing-table entries of observed keys,
        so the caller may edit it.
        """
        hashed, routed, _ = self._columns_routed(columns)
        return hashed, routed.copy()

    def column_loads(self, columns: KeyColumns) -> Dict[int, float]:
        """``{d: L(d)}`` under ``F`` with the costs of ``columns`` (a fresh
        dict, so the caller may edit it)."""
        return dict(self._columns_routed(columns)[2])

    def _columns_routed(
        self, columns: KeyColumns
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, float]]:
        """``h``, read-only ``F`` and the loads over ``columns``, computed
        once per (``columns``, assignment, table version) and kept on the
        columns (:attr:`KeyColumns.route_memo`), which live as long as the
        statistics window holds their interval."""
        version = self._table.version
        kept = columns.route_memo
        if kept is not None and kept[0] is self and kept[1] == version:
            return kept[2:]
        assign_array = getattr(self._hash, "assign_array", None)
        if assign_array is not None:
            hashed = assign_array(columns.keys)
        else:
            hashed = np.asarray(self.hash_batch(columns.keys), dtype=np.intp)
        routed = hashed.copy()
        if len(self._table):
            position = columns.index.get
            for key, task in self._table.items():
                at = position(key)
                if at is not None:
                    routed[at] = task
        routed.flags.writeable = False
        loads = load_from_columns(routed, columns.cost, self._num_tasks)
        columns.route_memo = (self, version, hashed, routed, loads)
        return hashed, routed, loads

    def is_explicit(self, key: Key) -> bool:
        """True when ``key`` is routed by the table rather than the hash."""
        return key in self._table

    # -- rebalancing helpers -----------------------------------------------------

    def with_table(self, table: RoutingTable) -> "AssignmentFunction":
        """Return a new assignment function sharing ``h`` but with ``table``."""
        return AssignmentFunction(self._hash, table, num_tasks=self._num_tasks)

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def hashed(
        cls,
        num_tasks: int,
        *,
        seed: int = 0,
        max_table_size: Optional[int] = None,
    ) -> "AssignmentFunction":
        """Create a fresh mixed assignment with an empty routing table."""
        return cls(
            UniversalHash(num_tasks, seed=seed),
            RoutingTable(max_size=max_table_size),
            num_tasks=num_tasks,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AssignmentFunction(num_tasks={self._num_tasks}, "
            f"table_size={self._table.size})"
        )
