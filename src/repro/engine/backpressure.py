"""Backpressure model.

In Storm, when one task of a downstream operator cannot keep up, the spout (and
every upstream operator) is throttled: the *whole* pipeline runs at the pace of
the slowest task ("operator 1 is forced to slow down its processing speed under
backpushing effect" — Fig. 1 of the paper).  The fluid simulator uses
:func:`admissible_fraction` to decide which share of the offered workload the
upstream may actually emit in an interval, given the per-task offered loads and
capacities of the bottleneck operator.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["ShedLedger", "admissible_fraction"]


class ShedLedger:
    """Observable per-task account of shed (dropped) tuples.

    Shedding used to vanish into an aggregate counter; the ledger keeps the
    per-task totals so the metrics layer can report *which* task dropped work
    (the overloaded one) rather than only how much was dropped overall.  The
    fluid simulator records the executor's per-interval shed volume in it; the
    process runtime never sheds (a full queue blocks its producer).
    """

    def __init__(self) -> None:
        self._by_task: Dict[int, float] = {}

    def record(self, task: int, tuples: float) -> None:
        """Charge ``tuples`` shed tuples to ``task`` (non-positive is a no-op)."""
        if tuples <= 0:
            return
        self._by_task[task] = self._by_task.get(task, 0.0) + tuples

    def by_task(self) -> Dict[int, float]:
        """``{task: shed tuples}`` for every task that shed anything."""
        return dict(self._by_task)

    @property
    def total(self) -> float:
        return sum(self._by_task.values())

    def clear(self) -> None:
        self._by_task.clear()

    def __bool__(self) -> bool:
        return bool(self._by_task)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShedLedger(total={self.total:.0f}, tasks={sorted(self._by_task)})"


def admissible_fraction(
    offered: Mapping[int, float],
    capacities: Mapping[int, float],
    backlogs: Mapping[int, float],
    *,
    headroom: float = 1.0,
) -> float:
    """Fraction of the offered interval workload the upstream may emit.

    The pipeline is throttled by the most overloaded task: if a task is offered
    twice its (remaining) capacity, only half of *every* task's tuples can be
    emitted this interval — the rest stays buffered at the spout.  ``headroom``
    > 1 allows transient over-admission (Storm's max-pending window).
    """
    worst = 1.0
    for task, load in offered.items():
        capacity = capacities.get(task, 0.0)
        if capacity <= 0:
            return 0.0
        remaining = max(capacity * headroom - backlogs.get(task, 0.0), 0.0)
        if load <= 0:
            continue
        worst = min(worst, remaining / load)
    return max(0.0, min(1.0, worst))
