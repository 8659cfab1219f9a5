"""The pause → migrate → ack → resume protocol of Fig. 5.

When the controller decides on a new assignment function, the affected keys
(``Δ(F, F′)``) are handled as follows:

1. the controller broadcasts the new assignment, the affected-key set and a
   *Pause* signal to the upstream tasks, which stop sending (but locally
   buffer) tuples of the affected keys (steps 3–4);
2. the downstream tasks move the windowed state of the affected keys to their
   new owners and acknowledge (steps 5–6);
3. the controller sends *Resume*; buffered tuples are released (step 7).

Tuples of *unaffected* keys flow normally throughout.  The protocol therefore
costs (a) a transfer time proportional to the migrated state volume and (b) a
processing pause — limited to the affected keys — on the sending and receiving
tasks.  :class:`MigrationProtocol` is the fluid simulator's cost model of it: a
move ships the ``S(k, w)`` its plan carries (:attr:`KeyMove.state_size
<repro.core.migration.KeyMove.state_size>`, read off the statistics window),
and the report holds both costs so the simulator can charge them to the next
interval.  The process runtime moves real state over the same steps
(:mod:`repro.runtime.controller`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Set

from repro.core.migration import MigrationPlan

__all__ = ["MigrationReport", "MigrationProtocol"]

Key = Hashable


#: Cost parameters of the migration path: serialised size of one abstract
#: memory unit of state, the network bandwidth between two tasks, and the
#: fixed protocol overhead (pause/resume round trips, acknowledgements).
#: Transfers between disjoint task pairs proceed in parallel.
BYTES_PER_STATE_UNIT = 100.0
BANDWIDTH_BYTES_PER_SECOND = 50e6
PAUSE_OVERHEAD_SECONDS = 0.05


@dataclass
class MigrationReport:
    """Outcome of executing one migration plan."""

    moved_keys: int = 0
    moved_state: float = 0.0
    duration_seconds: float = 0.0
    paused_keys: Set[Key] = field(default_factory=set)
    #: Fraction of the next interval each affected task spends on the hand-off.
    pause_fraction_by_task: Dict[int, float] = field(default_factory=dict)


class MigrationProtocol:
    """Costs migration plans: transfer volume, duration and per-task pause."""

    def execute(
        self,
        plan: MigrationPlan,
        num_tasks: int,
        *,
        interval_seconds: float = 10.0,
    ) -> MigrationReport:
        """Ship the state of every key in ``plan`` among ``num_tasks`` tasks.

        Returns a report with the transfer volume, the wall-clock duration of
        the hand-off and the per-task pause fractions (relative to
        ``interval_seconds``) that the simulator charges to the next interval.
        """
        report = MigrationReport()
        if not plan:
            return report

        per_pair_bytes: Dict[tuple, float] = {}
        per_task_bytes: Dict[int, float] = {}
        for move in plan:
            if not (0 <= move.source < num_tasks and 0 <= move.target < num_tasks):
                raise KeyError(
                    f"migration plan references unknown task(s) "
                    f"{move.source}->{move.target}"
                )
            report.moved_keys += 1
            report.moved_state += move.state_size
            report.paused_keys.add(move.key)
            volume = move.state_size * BYTES_PER_STATE_UNIT
            per_pair_bytes[(move.source, move.target)] = (
                per_pair_bytes.get((move.source, move.target), 0.0) + volume
            )
            per_task_bytes[move.source] = per_task_bytes.get(move.source, 0.0) + volume
            per_task_bytes[move.target] = per_task_bytes.get(move.target, 0.0) + volume

        transfer_seconds = max(
            volume / BANDWIDTH_BYTES_PER_SECOND for volume in per_pair_bytes.values()
        )
        report.duration_seconds = transfer_seconds + PAUSE_OVERHEAD_SECONDS

        for task_id, volume in per_task_bytes.items():
            busy = volume / BANDWIDTH_BYTES_PER_SECOND + PAUSE_OVERHEAD_SECONDS
            report.pause_fraction_by_task[task_id] = min(1.0, busy / interval_seconds)
        return report
