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
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.runtime.messages import (
    ExtractKeys,
    InstallAck,
    InstallState,
    StateShipment,
    TupleBatch,
)
from repro.runtime.resilience.checkpoint import CheckpointStore

__all__ = [
    "KillDirective",
    "LoggedQueue",
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

    def ensure_task(self, task: int) -> None:
        """Make ``task``'s log exist and start empty (elastic scale-out).

        Index-stable: a scale-in clears but keeps the drained tasks' slots,
        so a later scale-out re-occupies the same indices.
        """
        while len(self._entries) <= task:
            self._entries.append([])
        self._entries[task] = []

    def drop_task(self, task: int) -> None:
        """Forget a drained (scaled-in) task's log."""
        self._entries[task] = []

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Do not log inside this block (supervisor-originated sends)."""
        previous = self._suspended
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = previous


class LoggedQueue:
    """Queue proxy that records every successful put in the retention log.

    Wrapped *outside* the abort-aware queue and *inside* the sanitizer, so a
    put that sheds or aborts is never logged, and the sanitizer keeps seeing
    the queue interface it expects.
    """

    __slots__ = ("queue", "_log", "_task")

    def __init__(self, queue: Any, log: RetentionLog, task: int) -> None:
        self.queue = queue
        self._log = log
        self._task = task

    def put(self, item: Any, *args: Any, **kwargs: Any) -> None:
        self.queue.put(item, *args, **kwargs)
        self._log.note(self._task, item)


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


class StageSupervisor:
    """Detect-respawn-restore-replay driver for one stage's workers.

    Owns the stage's :class:`CheckpointStore` and :class:`RetentionLog`; the
    coordinator's ``_StageLoop`` calls :meth:`recover` from its watchdog
    when a worker process is found dead.
    """

    def __init__(
        self,
        stage: str,
        store: CheckpointStore,
        log: RetentionLog,
        *,
        checkpoint_every: int = 1,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.stage = stage
        self.store = store
        self.log = log
        self.checkpoint_every = int(checkpoint_every)
        self.incidents: List[RecoveryIncident] = []

    def checkpoint_due(self, interval: int) -> bool:
        """Checkpoints are taken at every ``checkpoint_every``-th boundary."""
        return (interval + 1) % self.checkpoint_every == 0

    def recover(self, loop: Any, task: int, process: Any) -> RecoveryIncident:
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
        # The dead process's backlog is re-created exactly by the replay
        # below; what it left un-got is counted and abandoned with its
        # channel (``spawn_worker`` swaps in a fresh one).
        incident.drained_messages = loop.raw_worker_queues[task].backlog()
        loop.spawn_worker(task)
        if loop.sanitizer is not None:
            loop.sanitizer.on_respawn(task)
        guarded = loop.guarded_queues[task]
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
            # sanitizer must not double-count the replayed tuples (they were
            # counted when first enqueued), and migration commands in the
            # log produce replies the coordinator already consumed — collect
            # and discard those so the mailbox stays coherent.
            pending_shipments = 0
            pending_acks = 0
            if loop.sanitizer is not None:
                loop.sanitizer.begin_replay()
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
                if loop.sanitizer is not None:
                    loop.sanitizer.end_replay()
            discarded = 0
            while discarded < pending_shipments:
                shipment = loop.mailbox.collect(StateShipment, 1)[0]
                if shipment.counters:
                    # A checkpoint (copy-mode) shipment from before the
                    # crash; the re-issued snapshot command below produces
                    # the round's authoritative one, so drop this.
                    continue
                discarded += 1
            for _ in range(pending_acks):
                loop.mailbox.collect(InstallAck, 1)
            if loop.checkpoint_pending(task):
                # The worker died between the snapshot command and its
                # shipment; re-issue so the in-progress checkpoint round
                # still receives one shipment per task.
                guarded.put(ExtractKeys(keys=None, copy=True))
        incident.recovery_pause_seconds = time.monotonic() - started
        self.incidents.append(incident)
        return incident
