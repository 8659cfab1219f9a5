"""The tuple data model.

A stream is a sequence of key-value pairs ``τ = (k, v)`` stamped with the
interval (and optionally a fine-grained timestamp) they belong to.  The paper's
operators only require the key for routing and the value for state updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

__all__ = ["StreamTuple"]


@dataclass(frozen=True)
class StreamTuple:
    """One key-value tuple flowing between operators.

    Attributes
    ----------
    key:
        Routing key (word, stock id, join key, …).
    value:
        Payload carried by the tuple; opaque to the engine.
    interval:
        Index of the time interval the tuple was emitted in.
    timestamp:
        Optional fine-grained emission time in seconds (event-level runs).
    stream:
        Name of the logical stream the tuple belongs to (used by multi-input
        operators such as joins; defaults to ``"default"``).
    """

    key: Hashable
    value: Any = None
    interval: int = 0
    timestamp: Optional[float] = None
    stream: str = "default"
