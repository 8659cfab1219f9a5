"""Windowed equi-joins — the Stock self-join and the two-stream join primitive.

A windowed join keeps, for every join key, the tuples that arrived during the
last ``w`` intervals and matches each incoming tuple against the stored tuples
of the same key (from the opposite stream for a two-stream join, from the same
stream for a self-join).  The state per key is therefore proportional to the
key's frequency — which is exactly why migrating a hot key is expensive and why
the paper's γ index trades computation gain against state volume.

The Stock experiment runs :class:`WindowedSelfJoin` over 3 days of exchange
records keyed by stock id "to find potential high-frequency players with dense
buying and selling behaviour".
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Sequence

from repro.engine.operator import BatchCost, OperatorLogic
from repro.engine.state import KeyedState
from repro.engine.tuples import StreamTuple

__all__ = ["WindowedJoin", "WindowedSelfJoin"]

Key = Hashable


class WindowedJoin(OperatorLogic):
    """Two-stream windowed equi-join (streams ``left`` and ``right``).

    Parameters
    ----------
    window:
        Number of intervals each side's tuples are retained for.
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
    left_stream / right_stream:
        Stream names recognised by the event-level API.
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
        left_stream: str = "left",
        right_stream: str = "right",
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
        self.left_stream = left_stream
        self.right_stream = right_stream

    # -- fluid model -----------------------------------------------------------------

    def tuple_cost(self, key: Key, value: Any = None) -> float:
        # One retained tuple per key is the fluid model's probe fan-out.
        return self.cost_per_tuple + self.cost_per_match * self.match_factor

    def batch_cost(
        self, keys: Sequence[Key], values: Optional[Sequence[Any]] = None
    ) -> BatchCost:
        return self.tuple_cost(None)

    def state_delta(self, key: Key, value: Any = None) -> float:
        return self.state_per_tuple

    def batch_state_delta(
        self, keys: Sequence[Key], values: Optional[Sequence[Any]] = None
    ) -> BatchCost:
        return self.state_per_tuple

    # -- event-level model -----------------------------------------------------------------

    def _sides(self, payload: Optional[Dict[str, List[Any]]]) -> Dict[str, List[Any]]:
        return {"left": [], "right": [], **(payload or {})}

    def process(
        self, tup: StreamTuple, state: KeyedState, task_id: int
    ) -> List[StreamTuple]:
        side = "left" if tup.stream == self.left_stream else "right"
        other = "right" if side == "left" else "left"

        stored = self._sides(state.latest_payload(tup.key))
        matches = []
        # A tuple joins with every retained tuple of the opposite side, across
        # all retained intervals.
        for payload in state.payloads(tup.key):
            sides = self._sides(payload)
            matches.extend(sides[other])

        def update(old: Optional[Dict[str, List[Any]]]) -> Dict[str, List[Any]]:
            sides = self._sides(old)
            sides[side] = sides[side] + [tup.value]
            return sides

        state.accumulate(
            tup.key, tup.interval, self.state_per_tuple, payload_update=update
        )
        del stored  # only needed the structure; matches drive the outputs
        return [
            StreamTuple(
                key=tup.key,
                value=(tup.value, match),
                interval=tup.interval,
                stream="joined",
            )
            for match in matches
        ]


class WindowedSelfJoin(WindowedJoin):
    """Self-join over one stream (the Stock topology).

    Every incoming tuple is matched against *all* retained tuples of the same
    key (buy/sell records of the same stock inside the window).
    """

    name = "windowed-self-join"

    def process(
        self, tup: StreamTuple, state: KeyedState, task_id: int
    ) -> List[StreamTuple]:
        matches: List[Any] = []
        for payload in state.payloads(tup.key):
            sides = self._sides(payload)
            matches.extend(sides["left"])

        def update(old: Optional[Dict[str, List[Any]]]) -> Dict[str, List[Any]]:
            sides = self._sides(old)
            sides["left"] = sides["left"] + [tup.value]
            return sides

        state.accumulate(
            tup.key, tup.interval, self.state_per_tuple, payload_update=update
        )
        return [
            StreamTuple(
                key=tup.key,
                value=(tup.value, match),
                interval=tup.interval,
                stream="joined",
            )
            for match in matches
        ]
