"""Migration bookkeeping: ``Δ(F, F′)``, migration plans and migration cost.

When the controller replaces the assignment function ``F`` with ``F′``, every
key whose destination changes must have its state (the last ``w`` intervals of
it) moved from the old task to the new one.  The migration cost of the plan is

    M_i(w, F, F′) = Σ_{k ∈ Δ(F, F′)} S_i(k, w)

and the evaluation reports it as a *percentage* of the total state held by the
operator, which is what :func:`migration_cost_fraction` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, Iterable, List, Optional, Set

from repro.core.assignment import AssignmentFunction
from repro.core.statistics import StatisticsStore

__all__ = [
    "KeyMove",
    "MigrationPlan",
    "migration_cost",
    "migration_cost_fraction",
    "build_migration_plan",
]

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

    def affected_tasks(self) -> Set[int]:
        """All tasks that either send or receive state."""
        tasks: Set[int] = set()
        for move in self.moves:
            tasks.add(move.source)
            tasks.add(move.target)
        return tasks


def migration_cost(
    delta: Iterable[Key],
    stats: StatisticsStore,
    window: Optional[int] = None,
) -> float:
    """``M_i(w, F, F′) = Σ_{k ∈ Δ} S_i(k, w)``."""
    return sum(stats.windowed_memory(key, window) for key in delta)


def migration_cost_fraction(
    delta: Iterable[Key],
    stats: StatisticsStore,
    window: Optional[int] = None,
) -> float:
    """Migration cost as a fraction of the operator's total retained state.

    This is the "Migration Cost (%)" metric of Figs. 8–12 and 17–21 (divided by
    100).  Returns 0.0 when the operator holds no state at all.
    """
    total = stats.total_windowed_memory(window)
    if total <= 0.0:
        return 0.0
    return migration_cost(delta, stats, window) / total


def build_migration_plan(
    old: AssignmentFunction,
    new: AssignmentFunction,
    keys: Iterable[Key],
    stats: Optional[StatisticsStore] = None,
    window: Optional[int] = None,
) -> MigrationPlan:
    """Construct the :class:`MigrationPlan` realising ``F → F′`` over ``keys``.

    ``F`` and ``F′`` share the hash ``h``, so only a key whose routing-table
    entry was added, dropped or retargeted can change destination: the moves
    are found among the table diff (in ``keys`` iteration order), not by
    evaluating both functions on every key.
    """
    if old.hash_function != new.hash_function:
        raise ValueError("a migration plan needs both assignments to share the hash function")
    changed = old.routing_table.changed_keys(new.routing_table)
    moves: List[KeyMove] = []
    for key in filter(changed.__contains__, keys):
        source = old(key)
        target = new(key)
        if source == target:
            continue
        state = stats.windowed_memory(key, window) if stats is not None else 0.0
        moves.append(KeyMove(key=key, source=source, target=target, state_size=state))
    return MigrationPlan(moves=moves)
