"""Key selection criteria (``ψ`` and ``η`` in the paper's algorithms).

The rebalancing algorithms of Section III are parameterised by *selection
criteria* used to decide which keys to act on:

* ``ψ`` — the criterion used when disassociating keys from overloaded tasks
  (Phase II) and when building the exchangeable set inside LLFD's ``Adjust``
  step.  MinTable uses "highest computation cost first"; MinMig and Mixed use
  "largest migration-priority index γ first".
* ``η`` — the criterion used by Mixed's cleaning phase to pick which routing
  table entries to move back: "smallest window memory ``S_i(k, w)`` first".

The migration priority index is ``γ_i(k, w) = c_i(k)^β / S_i(k, w)``: a key with
a large computation cost per unit of state is cheap to migrate relative to the
load it sheds.  ``β`` (default 1.5 per the paper's appendix) weights computation
against migration volume.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import repeat
from typing import Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "SelectionCriteria",
    "HighestCostFirst",
    "LargestGammaFirst",
    "SmallestMemoryFirst",
    "gamma_index",
    "DEFAULT_BETA",
]

Key = Hashable

#: Default weight scaling factor β selected by the paper's parameter study.
DEFAULT_BETA = 1.5

#: Memory floor used when a key has (virtually) no recorded state, so that the
#: γ index stays finite.  The exact value only matters for tie-breaking between
#: equally state-less keys.
_MEMORY_FLOOR = 1e-9


def gamma_index(cost: float, memory: float, beta: float = DEFAULT_BETA) -> float:
    """Migration priority index ``γ = cost^β / memory``.

    Keys with higher γ shed more load per unit of migrated state and are
    therefore preferred for migration by MinMig and Mixed.
    """
    if cost < 0 or memory < 0:
        raise ValueError("cost and memory must be non-negative")
    if beta < 0:
        raise ValueError("beta must be non-negative")
    return (cost ** beta) / max(memory, _MEMORY_FLOOR)


class SelectionCriteria(ABC):
    """Orders keys by *decreasing* selection priority.

    ``priority`` returns a score; keys are processed from the highest score to
    the lowest.  Ties are broken deterministically on the key's repr so that
    planning is reproducible run to run.
    """

    name: str = "criteria"

    @abstractmethod
    def priority(self, key: Key, cost: float, memory: float) -> float:
        """Return the selection score of ``key`` (higher = selected earlier)."""

    def priorities(self, cost: np.ndarray, memory: np.ndarray) -> np.ndarray:
        """:meth:`priority` over aligned cost / memory columns.

        Must equal the scalar score bit for bit (the planner's choices depend
        on exact ties).  The column form carries no keys, so this default
        calls :meth:`priority` with ``key=None``; a criterion whose score
        depends on the key itself has to override it.
        """
        return np.fromiter(
            map(self.priority, repeat(None), cost.tolist(), memory.tolist()),
            dtype=float,
            count=len(cost),
        )

    def ranked(
        self,
        keys: Sequence[Key],
        cost: np.ndarray,
        memory: np.ndarray,
        among: Optional[np.ndarray] = None,
    ) -> Iterator[int]:
        """Positions of ``keys`` by decreasing priority, ties broken on ``repr(key)``.

        ``cost`` and ``memory`` are aligned with ``keys``; ``among`` restricts
        the ranking to those positions.  Lazy: callers stop after the few keys
        they need, so the ranking is handed to Python in chunks that double,
        and only the runs of equal priority actually reached are repr-sorted.
        """
        if among is None:
            among = np.arange(len(keys))
        score = -self.priorities(cost[among], memory[among])
        by_score = np.argsort(score, kind="stable")
        ranked = among[by_score]
        score = score[by_score]
        run_ends = np.append(np.flatnonzero(score[1:] != score[:-1]) + 1, len(ranked))
        start, taken, chunk = 0, 0, 16
        while taken < len(run_ends):
            ends = run_ends[taken : taken + chunk].tolist()
            positions = ranked[start : ends[-1]].tolist()
            offset = start
            for end in ends:
                if end - start == 1:
                    yield positions[start - offset]
                else:
                    run = positions[start - offset : end - offset]
                    yield from sorted(run, key=lambda at: repr(keys[at]))
                start = end
            taken += chunk
            chunk *= 2

    def sort(
        self,
        keys: Iterable[Key],
        costs: Mapping[Key, float],
        memories: Mapping[Key, float],
    ) -> List[Key]:
        """Return ``keys`` sorted by decreasing priority (deterministic)."""
        keys = list(keys)
        cost = np.fromiter((costs.get(k, 0.0) for k in keys), dtype=float, count=len(keys))
        memory = np.fromiter(
            (memories.get(k, 0.0) for k in keys), dtype=float, count=len(keys)
        )
        return [keys[at] for at in self.ranked(keys, cost, memory)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class HighestCostFirst(SelectionCriteria):
    """``ψ`` of MinTable: prefer keys with the largest computation cost."""

    name = "highest-cost-first"

    def priority(self, key: Key, cost: float, memory: float) -> float:
        return cost

    def priorities(self, cost: np.ndarray, memory: np.ndarray) -> np.ndarray:
        return cost


class LargestGammaFirst(SelectionCriteria):
    """``ψ`` of MinMig/Mixed: prefer keys with the largest ``γ = c^β / S``."""

    name = "largest-gamma-first"

    def __init__(self, beta: float = DEFAULT_BETA) -> None:
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self.beta = float(beta)

    def priority(self, key: Key, cost: float, memory: float) -> float:
        return gamma_index(cost, memory, self.beta)

    def priorities(self, cost: np.ndarray, memory: np.ndarray) -> np.ndarray:
        if (cost < 0).any() or (memory < 0).any():
            raise ValueError("cost and memory must be non-negative")
        # np.float_power is one C loop calling libm pow, so it equals the
        # scalar ``cost ** beta`` bit for bit.  np.power may dispatch to SIMD
        # kernels (SVML) that differ in the last bit, which would reorder
        # near-ties against gamma_index.  Overflow raises, as the scalar does.
        with np.errstate(over="raise"):
            try:
                powered = np.float_power(cost, self.beta)
            except FloatingPointError:
                raise OverflowError(f"cost ** {self.beta} overflows") from None
        return powered / np.maximum(memory, _MEMORY_FLOOR)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LargestGammaFirst(beta={self.beta})"


class SmallestMemoryFirst(SelectionCriteria):
    """``η`` of Mixed's cleaning phase: prefer keys with the least state."""

    name = "smallest-memory-first"

    def priority(self, key: Key, cost: float, memory: float) -> float:
        return -memory

    def priorities(self, cost: np.ndarray, memory: np.ndarray) -> np.ndarray:
        return -memory
