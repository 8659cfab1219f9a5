"""Online rebalancing and live key migration for the process runtime.

At every interval boundary the coordinator hands the controller the interval's
dispatched key statistics; the controller runs the partitioner's planning hook
(:meth:`~repro.baselines.base.Partitioner.on_interval_end` — the same entry
point the fluid simulator uses, so any registered rebalancing strategy works
unchanged) and, when a plan comes back, executes it **live** against the
running worker processes:

1. *Pause* — the router stops dispatching the affected keys (``Δ(F, F′)``)
   and buffers their tuples; unaffected keys keep flowing.
2. *Ship* — each source worker receives an ``ExtractKeys`` command through
   its FIFO inbound queue, which it only reaches after processing every
   previously dispatched tuple of those keys; it extracts the windowed
   :class:`~repro.engine.state.KeyedState` and ships it back.
3. *Install* — the coordinator forwards the snapshots to the new owners and
   waits for their acks.
4. *Resume* — the router re-dispatches the buffered tuples under the new
   assignment.

The hand-off is *asynchronous*: after step 2 is initiated the coordinator
returns to dispatching the next interval (tuples of paused keys buffer at the
router; everything else flows) and advances the protocol by polling between
micro-batches.  The measured ``pause_seconds`` is therefore real wall-clock
time under load: it includes the queue drain on busy source workers,
serialisation and the scheduling latency of the hand-off — the quantity the
fluid model only estimates.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.baselines.base import Partitioner
from repro.core.statistics import IntervalStats
from repro.runtime.messages import ExtractKeys, InstallAck, InstallState, StateShipment

__all__ = ["LiveMigrationReport", "RuntimeController"]

Key = Hashable


@dataclass
class LiveMigrationReport:
    """Outcome of one live rebalance executed against running workers."""

    interval: int
    moved_keys: int = 0
    moved_state: float = 0.0
    pause_seconds: float = 0.0
    released_tuples: int = 0
    generation_time: float = 0.0
    migration_fraction: float = 0.0
    table_size: int = 0
    source_workers: List[int] = field(default_factory=list)
    target_workers: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class _PendingMigration:
    """State machine of one in-flight pause → ship → install → resume hand-off."""

    __slots__ = (
        "report",
        "target_of",
        "started",
        "expected_shipments",
        "shipments",
        "expected_acks",
        "phase",
    )

    def __init__(
        self,
        report: LiveMigrationReport,
        target_of: Dict[Key, int],
        expected_shipments: int,
        started: float,
    ) -> None:
        self.report = report
        self.target_of = target_of
        self.started = started
        self.expected_shipments = expected_shipments
        self.shipments: List[StateShipment] = []
        self.expected_acks = 0
        self.phase = "ship"


class RuntimeController:
    """Runs the rebalancing planner online and drives live state migration."""

    def __init__(
        self,
        partitioner: Partitioner,
        router: Any,
        worker_queues: Sequence[Any],
        mailbox: Any,
        observers: Sequence[Any] = (),
    ) -> None:
        """``mailbox`` is the coordinator's outbound-queue demultiplexer; it
        must offer ``collect(message_type, expected)`` (blocking) and
        ``drain(message_type)`` (non-blocking) — see ``queues._Mailbox``.
        ``observers`` (the stage's lifecycle observers) see every pause and
        resume."""
        self.partitioner = partitioner
        self.router = router
        #: Abort-aware command queues (one per worker); see StreamRouter.
        self.abortable_queues = list(worker_queues)
        self.mailbox = mailbox
        self.observers = observers
        self.migrations: List[LiveMigrationReport] = []
        self._pending: Optional[_PendingMigration] = None

    # -- planning -----------------------------------------------------------------

    def end_interval(self, stats: IntervalStats) -> Optional[LiveMigrationReport]:
        """Plan on the finished interval; start any migration live.

        A hand-off still in flight from the previous interval is completed
        (blocking) first — one migration at a time, as in the paper's
        controller.
        """
        self.finish_pending()
        rebalance = self.partitioner.on_interval_end(stats)
        if rebalance is None:
            return None
        report = LiveMigrationReport(
            interval=stats.interval,
            generation_time=rebalance.generation_time,
            migration_fraction=rebalance.migration_fraction,
            table_size=rebalance.table_size,
        )
        plan = rebalance.migration_plan
        if plan:
            self._start_handoff(
                {move.key: move.target for move in plan},
                {
                    source: [move.key for move in moves]
                    for source, moves in plan.moves_by_source().items()
                },
                report,
            )
        self.migrations.append(report)
        return report

    # -- the pause → ship → install → resume protocol -----------------------------

    def _start_handoff(
        self,
        target_of: Dict[Key, int],
        keys_by_source: Dict[int, List[Key]],
        report: LiveMigrationReport,
    ) -> None:
        """Pause the moving keys and ask every source worker to ship them."""
        started = time.monotonic()
        self.router.pause(target_of.keys())
        for observer in self.observers:
            observer.on_pause(target_of.keys())
        for source, keys in sorted(keys_by_source.items()):
            self.abortable_queues[source].put(ExtractKeys(keys=keys))
        report.moved_keys = len(target_of)
        report.source_workers = sorted(keys_by_source)
        self._pending = _PendingMigration(
            report,
            target_of,
            expected_shipments=len(keys_by_source),
            started=started,
        )

    def execute_moves(
        self, interval: int, moves: Sequence[Tuple[Key, int, int]]
    ) -> LiveMigrationReport:
        """Run one *synchronous* hand-off of explicit key moves.

        ``moves`` lists ``(key, source task, target task)``.  Used by
        elastic scaling, where the move set comes from diffing the
        partitioner's placement across a resize rather than from a
        rebalancing plan; the wire protocol (pause → extract → install →
        ack → resume) is exactly the live-migration one, but the call blocks
        until the hand-off completes and the report is **not** counted among
        the skew-driven :attr:`migrations`.
        """
        if self._pending is not None:
            raise RuntimeError(
                "cannot execute scale moves with a live migration in flight"
            )
        report = LiveMigrationReport(interval=interval)
        if not moves:
            return report
        target_of: Dict[Key, int] = {}
        by_source: Dict[int, List[Key]] = {}
        for key, source, target in moves:
            target_of[key] = target
            by_source.setdefault(source, []).append(key)
        self._start_handoff(target_of, by_source, report)
        self.finish_pending()
        return report

    def set_queues(self, worker_queues: Sequence[Any]) -> None:
        """Point the controller at a resized worker-queue list (elastic scale)."""
        if self._pending is not None:
            raise RuntimeError(
                "cannot replace worker queues with a live migration in flight"
            )
        self.abortable_queues = list(worker_queues)

    def poll(self) -> None:
        """Advance an in-flight hand-off without blocking (dispatch-loop hook)."""
        self._advance(blocking=False)

    def finish_pending(self) -> None:
        """Run an in-flight hand-off to completion (interval/shutdown barrier)."""
        self._advance(blocking=True)

    def _advance(self, *, blocking: bool) -> None:
        pending = self._pending
        if pending is None:
            return
        if pending.phase == "ship":
            # Copy-mode (checkpoint) shipments carry non-empty counters and
            # belong to the supervisor, never to a migration — a stray one
            # (e.g. duplicated across a mid-checkpoint recovery) must not be
            # mistaken for a source's hand-off.
            while len(pending.shipments) < pending.expected_shipments:
                missing = pending.expected_shipments - len(pending.shipments)
                arrived = (
                    self.mailbox.collect(StateShipment, missing)
                    if blocking
                    else self.mailbox.drain(StateShipment)
                )
                pending.shipments.extend(
                    shipment for shipment in arrived if not shipment.counters
                )
                if not blocking:
                    break
            if len(pending.shipments) < pending.expected_shipments:
                return
            self._install(pending)
        if pending.phase == "ack":
            acked = (
                self.mailbox.collect(InstallAck, pending.expected_acks)
                if blocking
                else self.mailbox.drain(InstallAck)
            )
            pending.expected_acks -= len(acked)
            if pending.expected_acks > 0:
                return
            self._resume(pending)

    def _install(self, pending: _PendingMigration) -> None:
        report = pending.report
        per_target: Dict[int, List[Tuple[Key, Any]]] = {}
        for shipment in pending.shipments:
            report.moved_state += shipment.state_size
            for key, snapshot in shipment.entries:
                per_target.setdefault(pending.target_of[key], []).append(
                    (key, snapshot)
                )
        for target, entries in sorted(per_target.items()):
            self.abortable_queues[target].put(InstallState(entries=entries))
        report.target_workers = sorted(per_target)
        pending.expected_acks = len(per_target)
        pending.phase = "ack"

    def _resume(self, pending: _PendingMigration) -> None:
        report = pending.report
        report.released_tuples = self.router.resume()
        for observer in self.observers:
            observer.on_resume()
        report.pause_seconds = time.monotonic() - pending.started
        self._pending = None

    @property
    def migration_in_flight(self) -> bool:
        return self._pending is not None
