"""Supervised worker recovery: retention log, respawn, restore, replay.

The coordinator normally aborts the topology when a worker process dies
(``_StageLoop._watchdog`` raises).  With a :class:`StageSupervisor`
attached, the same detection point instead *heals* the stage:

1. the dead worker's inbound channel is counted and abandoned (its backlog
   is re-created exactly by the replay below),
2. a fresh process is spawned on a **fresh** channel — a SIGKILLed reader can
   die holding half a frame in its private read-ahead buffer
   (``_StageLoop.spawn_worker``) — and the new channel is swapped into the
   existing guarded send path,
3. the latest durable checkpoint is restored (state + lifetime counters,
   including the emission sequence number),
4. the per-task :class:`RetentionLog` — every coordinator→worker message
   put since that checkpoint — is replayed in original FIFO order,
5. the stage resumes; the whole incident is measured wall-clock.

Replay is exactly-once end to end: the restored counters make the respawned
worker's accounting continue where the checkpoint left it, and the restored
emission sequence means replayed batches carry the *same* ``producer_seq``
numbers as the originals — the downstream router keeps the copy it already
saw (a ``put`` that returned is on the wire: a SIGKILL takes nothing the
worker emitted with it) and accepts what the crash cut short, which the
replay emits for the first time.  Monotone per-producer sequences are what
tell the two apart.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List

from repro.runtime.lifecycle import StageObserver
from repro.runtime.messages import (
    CrashSelf,
    ExtractKeys,
    InstallAck,
    InstallState,
    StateShipment,
    TupleBatch,
)
from repro.runtime.resilience.checkpoint import CheckpointStore

__all__ = [
    "KillDirective",
    "KillInjector",
    "RecoveryIncident",
    "RetentionLog",
    "StageSupervisor",
    "parse_kill_spec",
]


# -- fault injection ---------------------------------------------------------------


@dataclass(frozen=True)
class KillDirective:
    """``repro bench --kill-worker STAGE:TASK@INTERVAL`` parsed.

    The coordinator SIGKILLs task ``task`` of stage ``stage`` the first time
    it sees that stage handle traffic of ``interval`` — a mid-run hard crash,
    not a clean shutdown.
    """

    stage: str
    task: int
    interval: int

    def __post_init__(self) -> None:
        if not self.stage or self.task < 0 or self.interval < 0:
            raise ValueError(
                f"a kill directive needs a stage, task >= 0 and interval >= 0, "
                f"got {self!r}"
            )

    def spec(self) -> str:
        return f"{self.stage}:{self.task}@{self.interval}"


_KILL_SPEC = re.compile(r"^(?P<stage>[^:@]+):(?P<task>\d+)@(?P<interval>\d+)$")


class KillInjector(StageObserver):
    """Fires a :class:`KillDirective` once: a :class:`CrashSelf` command goes
    through the victim's FIFO inbound queue — behind the batches already
    dispatched to it — unobserved, so it is neither retained for replay nor
    counted by the sanitizer."""

    def __init__(self, directive: KillDirective) -> None:
        self.directive = directive
        self.fired = False

    def on_ingress_batch(self, loop: Any, origin: str, batch: Any) -> None:
        if self.fired or batch.interval < self.directive.interval:
            return
        self.fired = True
        task = self.directive.task
        if task >= len(loop.workers):
            raise ValueError(
                f"kill directive {self.directive.spec()!r} names task {task} "
                f"but stage {loop.spec.name!r} has {len(loop.workers)} workers"
            )
        loop.guarded_queues[task].put(CrashSelf(), observed=False)


def parse_kill_spec(spec: str) -> KillDirective:
    """Parse ``STAGE:TASK@INTERVAL`` (e.g. ``revenue-agg:0@3``)."""
    match = _KILL_SPEC.match(spec.strip())
    if match is None:
        raise ValueError(
            f"invalid kill spec {spec!r}: expected STAGE:TASK@INTERVAL "
            f"(e.g. revenue-agg:0@3)"
        )
    return KillDirective(
        stage=match.group("stage"),
        task=int(match.group("task")),
        interval=int(match.group("interval")),
    )


# -- retention log -----------------------------------------------------------------


class RetentionLog:
    """Per-task log of every coordinator→worker message since the last checkpoint.

    The log IS the recovery plan: restoring the checkpoint and re-putting the
    logged messages in order reproduces the dead worker's entire inbound
    stream since the snapshot.  It is truncated at each checkpoint (the log
    cut is taken *before* the snapshot command is sent, so the prefix being
    dropped is exactly what the checkpoint already covers) and suspended
    while the supervisor itself is sending (checkpoint commands, restore,
    replay — none of those may re-enter the log).
    """

    def __init__(self, num_tasks: int) -> None:
        self._entries: List[List[Any]] = [[] for _ in range(num_tasks)]
        self._suspended = False

    def note(self, task: int, message: Any) -> None:
        if not self._suspended:
            self._entries[task].append(message)

    def cut(self, task: int) -> int:
        """Current log length of ``task`` — the truncation point of a
        checkpoint started now."""
        return len(self._entries[task])

    def truncate(self, task: int, cut: int) -> None:
        """Drop the prefix covered by a durable checkpoint."""
        del self._entries[task][:cut]

    def replay(self, task: int) -> List[Any]:
        return list(self._entries[task])

    def reset(self, task: int) -> None:
        """Make ``task``'s log exist and empty (a resize attached or drained it).

        Index-stable: a scale-in empties but keeps the drained tasks' slots,
        so a later scale-out re-occupies the same indices.
        """
        while len(self._entries) <= task:
            self._entries.append([])
        self._entries[task] = []

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Do not log inside this block (supervisor-originated sends)."""
        previous = self._suspended
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = previous


# -- recovery ----------------------------------------------------------------------


@dataclass
class RecoveryIncident:
    """One supervised worker recovery, measured wall-clock."""

    stage: str
    task: int
    interval: int
    #: Full wall-clock cost of the incident: detection to resumed stage.
    recovery_pause_seconds: float = 0.0
    #: Time spent installing the checkpoint on the respawned worker.
    restore_seconds: float = 0.0
    restored_keys: int = 0
    #: Interval watermark of the restored checkpoint (-1 = no checkpoint yet).
    checkpoint_interval: int = -1
    replayed_messages: int = 0
    replayed_tuples: int = 0
    drained_messages: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class StageSupervisor(StageObserver):
    """Detect-respawn-restore-replay driver for one stage's workers.

    Owns the stage's :class:`CheckpointStore` and :class:`RetentionLog`.  As
    one of the stage's lifecycle observers it logs every observed send,
    takes the checkpoint rounds, keeps a log per task through resizes, heals
    a dead worker (:meth:`on_worker_died`) and reports what it did.
    """

    def __init__(
        self,
        stage: str,
        store: CheckpointStore,
        log: RetentionLog,
        *,
        checkpoint_every: int = 1,
    ) -> None:
        self.stage = stage
        self.store = store
        self.log = log
        self.checkpoint_every = int(checkpoint_every)
        self.incidents: List[RecoveryIncident] = []
        #: The checkpoint round in progress: its interval, and the log cut
        #: of every task whose snapshot has not arrived yet.
        self._round = -1
        self._awaiting: Dict[int, int] = {}

    def on_send(self, task: int, message: Any) -> None:
        self.log.note(task, message)

    def on_attach(self, task: int) -> None:
        self.log.reset(task)

    def on_detach(self, task: int) -> None:
        self.log.reset(task)

    def on_close(self, loop: Any, interval: int) -> None:
        """Snapshot every task's ``KeyedState`` at every
        ``checkpoint_every``-th boundary.

        The snapshot command rides the FIFO queues right behind the
        interval's ``EndInterval`` marker, so each shipped state covers
        exactly the tuples up to the boundary (watermark = ``interval``).
        The log cut is taken *before* the command is sent: everything the
        checkpoint covers — and nothing it does not — is truncated once the
        task's snapshot is durable.
        """
        if (interval + 1) % self.checkpoint_every:
            return
        self._round = interval
        self._awaiting = {task: self.log.cut(task) for task in range(len(loop.workers))}
        with self.log.suspended():
            for guarded_queue in loop.guarded_queues:
                guarded_queue.put(ExtractKeys(keys=None, copy=True))
            while self._awaiting:
                self._keep_snapshot(loop.mailbox.collect(StateShipment, 1)[0])

    def _keep_snapshot(self, shipment: StateShipment) -> None:
        """Make ``shipment`` its task's checkpoint of the round in progress."""
        task = shipment.worker_id
        cut = self._awaiting.pop(task, None)
        if cut is None:
            # Duplicate from a mid-round recovery (the original arrived
            # before the re-issued command's copy).
            return
        self.store.save(task, self._round, shipment.entries, shipment.counters)
        self.log.truncate(task, cut)

    def on_worker_died(self, loop: Any, task: int, process: Any) -> bool:
        """Heal ``task`` of ``loop``'s stage after ``process`` died.

        ``loop`` is the stage's ``_StageLoop``.  Raises when a live
        migration is in flight: the pause/extract/install hand-off has
        per-message state on both coordinator and workers that a mid-protocol
        crash leaves unrecoverable — a documented limitation (the chaos
        benches kill the static-strategy stage, which never migrates).
        """
        started = time.monotonic()
        if loop.controller.migration_in_flight:
            raise RuntimeError(
                f"worker process {process.name} died during a live key "
                f"migration; supervised recovery cannot preserve an "
                f"in-flight hand-off"
            )
        incident = RecoveryIncident(
            stage=self.stage,
            task=task,
            interval=loop.current_interval,
        )
        guarded = loop.guarded_queues[task]
        # The dead process's backlog is re-created exactly by the replay
        # below; what it left un-got is counted and abandoned with its
        # channel (``spawn_worker`` swaps in a fresh one).
        incident.drained_messages = guarded.backlog()
        loop.spawn_worker(task)
        with self.log.suspended():
            checkpoint = self.store.latest(task)
            if checkpoint is not None:
                restore_started = time.monotonic()
                guarded.put(
                    InstallState(
                        entries=checkpoint.entries,
                        counters=checkpoint.counters,
                    )
                )
                loop.mailbox.collect(InstallAck, 1)
                incident.restore_seconds = time.monotonic() - restore_started
                incident.restored_keys = len(checkpoint.entries)
                incident.checkpoint_interval = checkpoint.interval
            # Replay the retained post-checkpoint stream in FIFO order.  The
            # observers learn it is a replay (the sanitizer must not count
            # the replayed tuples twice), and migration commands in the log
            # produce replies the coordinator already consumed — collect
            # and discard those so the mailbox stays coherent.
            pending_shipments = 0
            pending_acks = 0
            for observer in loop.observers:
                observer.on_replay(task, True)
            try:
                for message in self.log.replay(task):
                    guarded.put(message)
                    incident.replayed_messages += 1
                    if isinstance(message, TupleBatch):
                        incident.replayed_tuples += len(message)
                    if isinstance(message, ExtractKeys) and not message.copy:
                        pending_shipments += 1
                    elif isinstance(message, InstallState) and not message.counters:
                        pending_acks += 1
            finally:
                for observer in loop.observers:
                    observer.on_replay(task, False)
            discarded = 0
            while discarded < pending_shipments:
                shipment = loop.mailbox.collect(StateShipment, 1)[0]
                if shipment.counters:
                    # A checkpoint (copy-mode) shipment: a live task's is its
                    # snapshot of the round in progress; the dead task's own,
                    # from before the crash, is superseded by the command
                    # re-issued below.
                    if shipment.worker_id != task:
                        self._keep_snapshot(shipment)
                    continue
                discarded += 1
            for _ in range(pending_acks):
                loop.mailbox.collect(InstallAck, 1)
            if task in self._awaiting:
                # The worker died between the snapshot command and its
                # shipment; re-issue so the in-progress checkpoint round
                # still receives one shipment per task.
                guarded.put(ExtractKeys(keys=None, copy=True))
        incident.recovery_pause_seconds = time.monotonic() - started
        self.incidents.append(incident)
        return True

    def on_finalize(self, result: Any) -> None:
        resilience = result.resilience_book()
        resilience["incidents"] = [incident.to_dict() for incident in self.incidents]
        resilience["checkpoints"] = self.store.stats()
