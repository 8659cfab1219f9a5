"""Word count — the operator run on the Social workload (Fig. 14(a), 15(a)).

The operator continuously maintains, per topic word, the number of appearances
in the feeds of the current window.  It is the canonical cheap stateful
operator: unit processing cost per tuple, and a small constant amount of state
per key per interval (the counter plus the recent tuples kept for the windowed
count).
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.engine.operator import OperatorLogic
from repro.engine.state import KeyedState

__all__ = ["WordCountOperator"]

Key = Hashable


def _increment(old: Optional[int], _value: Any) -> int:
    """Fold of one appearance (module-level: no per-tuple closure)."""
    return (old or 0) + 1


class WordCountOperator(OperatorLogic):
    """Continuously updated per-word appearance counts over a sliding window.

    Parameters
    ----------
    window:
        Number of intervals of history retained per word.
    cost_per_tuple:
        CPU cost units per tuple (1.0 = the unit the capacity model uses).
    state_per_tuple:
        Memory units added per tuple; word count keeps the tuple reference for
        the windowed count, so the default is 1 unit per tuple.
    emit_updates:
        When True :meth:`process_batch` emits ``(word, count)`` update
        tuples downstream (as the Storm topology does); otherwise the operator
        is a sink.
    """

    name = "wordcount"
    stateful = True

    def __init__(
        self,
        window: int = 1,
        cost_per_tuple: float = 1.0,
        state_per_tuple: float = 1.0,
        emit_updates: bool = True,
    ) -> None:
        if cost_per_tuple <= 0:
            raise ValueError("cost_per_tuple must be positive")
        if state_per_tuple < 0:
            raise ValueError("state_per_tuple must be non-negative")
        self.window = int(window)
        self.cost_per_tuple = float(cost_per_tuple)
        self.state_per_tuple = float(state_per_tuple)
        self.emit_updates = bool(emit_updates)

    def process_batch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: int,
        state: KeyedState,
        task_id: int,
    ) -> Tuple[List[Key], List[Any]]:
        counts = state.accumulate_batch(
            keys, values, interval, self.state_per_tuple, _increment
        )
        if not self.emit_updates:
            return [], []
        return list(keys), counts

    # -- PKG support -------------------------------------------------------------------

    def merge_overhead(self, distinct_partials: int) -> float:
        """Cost of merging split-key partial counts (one unit per partial)."""
        return float(distinct_partials)
