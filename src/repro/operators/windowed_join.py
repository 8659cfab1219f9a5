"""Windowed equi-joins — the join cost model and the Stock self-join.

A windowed join keeps, for every join key, the tuples that arrived during the
last ``w`` intervals and matches each incoming tuple against the stored tuples
of the same key.  The state per key is therefore proportional to the key's
frequency — which is exactly why migrating a hot key is expensive and why the
paper's γ index trades computation gain against state volume.

:class:`WindowedJoin` is that cost model; the two joins the experiments run
extend it: :class:`WindowedSelfJoin` here (the Stock experiment, over 3 days of
exchange records keyed by stock id "to find potential high-frequency players
with dense buying and selling behaviour") and :class:`~repro.operators.tpch_q5.
DimensionJoin` (TPC-H Q5).  A stream–stream join needs a value format that
carries the tuple's side and is not shipped.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.engine.operator import BatchCost, OperatorLogic
from repro.engine.state import KeyedState

__all__ = ["WindowedJoin", "WindowedSelfJoin", "retain"]

Key = Hashable


def retain(old: Optional[List[Any]], value: Any) -> List[Any]:
    """Fold keeping a join's streaming tuples: the key's list for the
    interval grows in place (the task owns it — see ``engine/state.py``)."""
    if old is None:
        return [value]
    old.append(value)
    return old


class WindowedJoin(OperatorLogic):
    """The cost and state model of a windowed equi-join.

    On its own it forwards its input and accounts ``state_per_tuple`` of
    retained state per tuple (the base class's ``process_batch``); what is
    stored and what a tuple is matched against is the sub-class's business.

    Parameters
    ----------
    window:
        Number of intervals the tuples are retained for.
    cost_per_tuple:
        Base probing cost per incoming tuple.
    cost_per_match:
        Additional cost per produced join result (matching is what makes hot
        keys disproportionately expensive).
    state_per_tuple:
        Memory units stored per retained tuple.
    match_factor:
        Fluid-model estimate of how many stored tuples an incoming tuple
        matches, as a fraction of the key's retained tuples.  1.0 reproduces a
        full equi-join on the key.
    """

    name = "windowed-join"
    stateful = True

    def __init__(
        self,
        window: int = 1,
        cost_per_tuple: float = 1.0,
        cost_per_match: float = 0.1,
        state_per_tuple: float = 1.0,
        match_factor: float = 1.0,
    ) -> None:
        if cost_per_tuple <= 0:
            raise ValueError("cost_per_tuple must be positive")
        if cost_per_match < 0 or state_per_tuple < 0 or match_factor < 0:
            raise ValueError("join cost/state parameters must be non-negative")
        self.window = int(window)
        self.cost_per_tuple = float(cost_per_tuple)
        self.cost_per_match = float(cost_per_match)
        self.state_per_tuple = float(state_per_tuple)
        self.match_factor = float(match_factor)

    def batch_cost(
        self, keys: Sequence[Key], values: Optional[Sequence[Any]] = None
    ) -> BatchCost:
        # Probe plus matches; one retained tuple per key is the fluid model's
        # probe fan-out.
        return self.cost_per_tuple + self.cost_per_match * self.match_factor


class WindowedSelfJoin(WindowedJoin):
    """Self-join over one stream (the Stock topology).

    Every incoming tuple is matched against *all* retained tuples of the same
    key (buy/sell records of the same stock inside the window) and emits one
    ``(value, match)`` pair per match, oldest match first.
    """

    name = "windowed-self-join"

    def process_batch(
        self,
        keys: Sequence[Key],
        values: Sequence[Any],
        interval: int,
        state: KeyedState,
        task_id: int,
    ) -> Tuple[List[Key], List[Any]]:
        # Tuple by tuple: a tuple's matches include the batch's own earlier
        # tuples of its key.  The emitted pairs are built from the retained
        # lists' elements, never the lists themselves.
        state_per_tuple = self.state_per_tuple
        accumulate = state.accumulate_batch
        out_keys: List[Key] = []
        out_values: List[Any] = []
        for key, value in zip(keys, values):
            for retained in state.payloads(key):
                out_keys.extend([key] * len(retained))
                out_values.extend([(value, match) for match in retained])
            accumulate((key,), (value,), interval, state_per_tuple, retain)
        return out_keys, out_values
