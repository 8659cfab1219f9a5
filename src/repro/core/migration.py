"""Migration bookkeeping: ``Δ(F, F′)`` and migration plans.

When the controller replaces the assignment function ``F`` with ``F′``, every
key whose destination changes must have its state (the last ``w`` intervals of
it) moved from the old task to the new one.  The migration cost of the plan is

    M_i(w, F, F′) = Σ_{k ∈ Δ(F, F′)} S_i(k, w)

— :attr:`MigrationPlan.total_state`, the sum of the moves' state sizes.  The
evaluation reports it as a *percentage* of the total state held by the
operator (``RebalanceResult.migration_fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Container, Dict, Hashable, List, Optional, Set

from repro.core.assignment import AssignmentFunction
from repro.core.statistics import StatisticsStore

__all__ = ["KeyMove", "MigrationPlan", "build_migration_plan"]

Key = Hashable


@dataclass(frozen=True)
class KeyMove:
    """A single key migration: move ``key``'s state from ``source`` to ``target``."""

    key: Key
    source: int
    target: int
    state_size: float = 0.0

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError(f"key {self.key!r} move has identical source and target")
        if self.state_size < 0:
            raise ValueError("state_size must be non-negative")


@dataclass
class MigrationPlan:
    """The set of key moves produced by one rebalancing decision.

    A plan is not edited once built: :attr:`keys` and :attr:`total_state` are
    computed on first access and kept.
    """

    moves: List[KeyMove] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def __bool__(self) -> bool:
        return bool(self.moves)

    @cached_property
    def keys(self) -> Set[Key]:
        """Keys involved in the migration (``Δ(F, F′)``)."""
        return {move.key for move in self.moves}

    @cached_property
    def total_state(self) -> float:
        """``M_i(w, F, F′)`` — total state volume to transfer."""
        return sum(move.state_size for move in self.moves)

    def moves_by_source(self) -> Dict[int, List[KeyMove]]:
        """Group the moves by the task that must send state."""
        groups: Dict[int, List[KeyMove]] = {}
        for move in self.moves:
            groups.setdefault(move.source, []).append(move)
        return groups


def build_migration_plan(
    old: AssignmentFunction,
    new: AssignmentFunction,
    observed: Container[Key],
    stats: Optional[StatisticsStore] = None,
    window: Optional[int] = None,
) -> MigrationPlan:
    """Construct the :class:`MigrationPlan` realising ``F → F′`` over ``observed``.

    ``F`` and ``F′`` share the hash ``h``, so only a key whose routing-table
    entry was added, dropped or retargeted can change destination: the moves
    are read off the table diff, in its order (see
    :meth:`~repro.core.routing_table.RoutingTable.changed_keys`), keeping the
    keys that are ``in observed``.  ``observed`` is only asked for membership,
    so Δ costs O(|A| + |A′|), however many keys were observed.
    """
    if old.hash_function != new.hash_function:
        raise ValueError("a migration plan needs both assignments to share the hash function")
    moves: List[KeyMove] = []
    for key in old.routing_table.changed_keys(new.routing_table):
        if key not in observed:
            continue
        source = old(key)
        target = new(key)
        if source == target:
            continue
        state = stats.windowed_memory(key, window) if stats is not None else 0.0
        moves.append(KeyMove(key=key, source=source, target=target, state_size=state))
    return MigrationPlan(moves=moves)
