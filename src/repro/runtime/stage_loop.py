"""The per-stage coordinator thread of a running topology.

A stage's ingress carries what its upstream producers emitted, one message
per producer per routed chunk: a router upstream splits every chunk over its
P workers and each worker forwards what it emitted from its share, so without
further care messages would shrink by P per stage down a chain while the
per-message transport cost (queue hop, pickle header, one dispatch) stayed
the same.  The loop therefore dispatches **what is already waiting** as one
chunk: after taking a batch it keeps taking without ever waiting
(:func:`coalesce_ingress`) and merges the batches of the same interval up to
``batch_size`` tuples.  A router that keeps up with its producers finds the
queue empty and dispatches each message alone, exactly as before; one that is
behind pays its per-chunk costs once per ``batch_size`` tuples again.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.snapshot import Snapshot
from repro.core.statistics import IntervalStats
from repro.engine.operator import OperatorLogic
from repro.engine.topology import StageSpec
from repro.runtime.barrier import MarkBarrier
from repro.runtime.config import RuntimeConfig, calibrated_service_time_us
from repro.runtime.controller import RuntimeController
from repro.runtime.lifecycle import StageObserver
from repro.runtime.messages import (
    EmittedBatch,
    EndInterval,
    EndOfStream,
    FinalReport,
    IntervalReport,
    SetServiceTime,
    UpstreamDone,
    UpstreamMark,
)
from repro.runtime.queues import (
    POLL_SECONDS,
    _Aborted,
    _AbortableQueue,
    _AbortFlag,
    _Mailbox,
)
from repro.runtime.result import RuntimeResult, fold_stage_result
from repro.runtime.router import StreamRouter

__all__: list = []  # coordinator internals; TopologyRuntime is the entry point

Key = Hashable


def coalesce_ingress(
    first: EmittedBatch,
    poll: Callable[[], Any],
    batch_size: int,
    accept: Callable[[EmittedBatch], bool],
) -> Tuple[List[Key], List[Any], float, Any]:
    """Merge the batches already waiting behind ``first`` into one chunk.

    ``first`` is an accepted batch; ``poll`` returns the next ingress message
    without waiting (``None`` = nothing there).  Batches of ``first``'s
    interval join the chunk, in arrival order, while it stays within
    ``batch_size`` tuples; each is passed to ``accept`` first, and one it
    refuses (a replayed duplicate) is dropped without ending the merge.
    Whatever else ``poll`` yields — a mark, an end-of-stream, a batch of
    another interval or one that would overflow — ends the merge and is
    returned as ``held``, *unaccepted*, for the caller to handle next: it
    stays behind the data it followed and ahead of everything after it.

    Returns ``(keys, values, origin_at, held)``; ``origin_at`` is the oldest
    stamp of the merged batches.  A chunk exceeds ``batch_size`` only when
    ``first`` alone does.
    """
    keys, values, origin_at = first.keys, first.values, first.origin_at
    while len(keys) < batch_size:
        message = poll()
        if message is None:
            break
        if (
            not isinstance(message, EmittedBatch)
            or message.interval != first.interval
            or len(keys) + len(message.keys) > batch_size
        ):
            return keys, values, origin_at, message
        if not accept(message):
            continue
        if keys is first.keys:
            # The first extension copies: ``first`` keeps its own lists.
            keys, values = list(keys), list(values)
        keys.extend(message.keys)
        values.extend(message.values)
        origin_at = min(origin_at, message.origin_at)
    return keys, values, origin_at, None


class _StageLoop(threading.Thread):
    """The router thread of one stage: ingress → route → workers.

    Consumes the stage's shared ingress queue (fed by the source and/or by
    every upstream stage's workers), dispatches what waits there — merged
    into chunks of up to ``batch_size`` tuples — through the stage's
    :class:`StreamRouter`, closes intervals when every upstream origin's
    producers have marked them (planning + live migration via the stage's
    :class:`RuntimeController`), and finally collects the workers' reports.
    Whatever rides along — sanitizer, supervisor, kill injector, resizer —
    is one of ``observers`` (:mod:`repro.runtime.lifecycle`), called from
    the loop's hooks in list order.
    """

    def __init__(
        self,
        spec: StageSpec,
        config: RuntimeConfig,
        ingress: Any,
        worker_queues: Sequence[Any],
        out_queue: Any,
        workers: Sequence[Any],
        upstream_producers: Mapping[str, int],
        abort: _AbortFlag,
        source_process: Optional[Any] = None,
        observers: Sequence[StageObserver] = (),
        worker_factory: Optional[Callable[[int, Any, float], Any]] = None,
        queue_factory: Optional[Callable[[int], Any]] = None,
        initial_service_us: float = 0.0,
    ) -> None:
        super().__init__(name=f"repro-stage-{spec.name}", daemon=True)
        self.spec = spec
        self.config = config
        self.ingress = ingress
        self.workers = list(workers)
        #: ``{origin: producer count}`` — one entry per upstream edge (the
        #: source and/or producer stages) feeding this stage's ingress.
        self.upstream_producers: Dict[str, int] = dict(upstream_producers)
        self.abort = abort
        #: Stage 0 also watches the source: no stage loop owns it, so a
        #: source crash (unpicklable stream under spawn, OOM kill) would
        #: otherwise leave the ingress poll waiting forever.  A clean exit
        #: (code 0) means UpstreamDone is already flushed into the queue.
        self.source_process = source_process
        self._draining = False

        self.mailbox = _Mailbox(
            out_queue, config.join_timeout_seconds, checker=self._watchdog
        )
        self.observers = tuple(observers)
        #: Each task's one send path: recovery swaps a fresh channel into a
        #: dead worker's proxy, and every put is reported to the observers.
        self.guarded_queues = [
            _AbortableQueue(queue, self._watchdog, task, self.observers)
            for task, queue in enumerate(worker_queues)
        ]
        self.router = StreamRouter(
            spec.partitioner,
            spec.logic,
            self.guarded_queues,
            batch_size=config.batch_size,
        )
        self.controller = RuntimeController(
            spec.partitioner, self.router, self.guarded_queues, self.mailbox,
            self.observers,
        )

        # -- resilience / elasticity state ---------------------------------
        self.worker_factory = worker_factory
        self.queue_factory = queue_factory
        self._service_us = initial_service_us
        #: The consuming stages' loops (set by TopologyRuntime); an elastic
        #: resize of this stage updates every consumer's producer accounting
        #: for this stage's edge.
        self.downstreams: List["_StageLoop"] = []
        #: Every process this stage ever started (respawns and scale-outs
        #: included) — the shutdown join set.
        self.spawned_processes: List[Any] = list(workers)
        self._recovering = False
        #: Tasks currently draining through an elastic scale-in (their
        #: process exit is expected, not a crash).
        self._detaching: set = set()
        self._drained_finals: List[FinalReport] = []
        #: Dedup floors for post-recovery replay: last producer_seq accepted
        #: per (origin, producer) edge.  Mark floors and the per-origin
        #: producer-count timelines live in the barrier.
        self._last_seq: Dict[Tuple[str, int], int] = {}
        #: Ingress batches accepted (post replay-dedup) over the run.
        self.ingress_messages = 0
        self._barrier = MarkBarrier(self.upstream_producers)
        #: Single-upstream back-compat: messages without an ``origin`` label
        #: (linear chains, hand-built tests) resolve to the sole edge; with
        #: several upstreams an unlabelled message is a protocol error.
        self._sole_origin: Optional[str] = (
            next(iter(self.upstream_producers))
            if len(self.upstream_producers) == 1
            else None
        )

        # Filled by the loop, read by the coordinator after join().
        self.interval_rows: List[Dict[str, Any]] = []
        self.finals: List[FinalReport] = []
        self.interval_reports: List[IntervalReport] = []
        self.calibrated_us: Optional[float] = None
        self.error: Optional[BaseException] = None
        self.current_interval = 0

    # -- watchdog ------------------------------------------------------------------

    def _watchdog(self) -> None:
        """Raise instead of waiting on a run that can no longer finish."""
        self.abort.check()
        self.mailbox.check_errors()
        source = self.source_process
        if (
            source is not None
            and not source.is_alive()
            and source.exitcode not in (None, 0)
        ):
            raise RuntimeError(
                f"source process died unexpectedly (exit code {source.exitcode})"
            )
        if not self._draining and not self._recovering:
            for task, process in enumerate(self.workers):
                if process.is_alive() or task in self._detaching:
                    continue
                # An observer may heal the stage (the supervisor).  The flag
                # suppresses this scan while the healing blocks on queues (its
                # collects re-enter the watchdog); its failures (e.g. a death
                # during a live migration) are ordinary stage errors.
                self._recovering = True
                try:
                    healed = any(
                        observer.on_worker_died(self, task, process)
                        for observer in self.observers
                    )
                finally:
                    self._recovering = False
                if not healed:
                    raise RuntimeError(
                        f"worker process {process.name} died unexpectedly "
                        f"(exit code {process.exitcode})"
                    )

    def _pump(self) -> None:
        """Between micro-batches: advance a migration hand-off, spot crashes."""
        self.controller.poll()
        self.mailbox.check_errors()

    def _next_ingress(self) -> Any:
        idle_since = time.monotonic()
        while True:
            self._watchdog()
            source = self.source_process
            if (
                source is not None
                and not source.is_alive()
                and time.monotonic() - idle_since > self.config.join_timeout_seconds
            ):
                # The source is gone and its remaining messages would have
                # drained long ago — it died before its end-of-stream mark
                # (a message it could not pickle raised in its ``put``; a
                # kill needs no reason).  Fail loudly instead of polling
                # forever.
                raise RuntimeError(
                    "source process exited but its end-of-stream mark never "
                    "arrived (message lost in the source queue?)"
                )
            try:
                return self.ingress.get(timeout=POLL_SECONDS)
            except queue_module.Empty:
                continue

    # -- the loop ------------------------------------------------------------------

    def run(self) -> None:
        try:
            self._loop()
        except _Aborted:
            pass
        except BaseException as exc:
            self.error = exc
            self.abort.trip(self.spec.name, exc)

    def _origin_of(self, message: Any) -> str:
        """Resolve the upstream edge a stage-to-stage message arrived on."""
        origin = message.origin
        if origin:
            return origin
        if self._sole_origin is not None:
            return self._sole_origin
        raise TypeError(
            f"stage {self.spec.name!r} has {len(self.upstream_producers)} "
            f"upstreams but got an unlabelled ingress {message!r}"
        )

    def _poll_ingress(self) -> Any:
        """The next ingress message if one is already there, else ``None``."""
        try:
            return self.ingress.get_nowait()
        except queue_module.Empty:
            return None

    def _accept(self, message: EmittedBatch) -> bool:
        """The per-message ingress steps; ``False`` drops a replayed batch.

        Runs once for every batch taken from the ingress, before its tuples
        join a dispatch chunk: the replay dedup and the observers' ingress
        hook (kill trigger, the sanitizer's fan-in book) count *messages*,
        whatever the chunking.
        """
        origin = self._origin_of(message)
        producer = message.producer_id
        if producer >= 0 and message.producer_seq >= 0:
            # Post-recovery replay dedup: a replayed batch carries the same
            # (origin, producer, seq) as the original, so anything at or
            # below the accepted floor was already dispatched (whatever the
            # dead process put is on the wire); the batches its crash cut
            # short are emitted for the first time, *above* the floor, and
            # pass.
            edge = (origin, producer)
            if message.producer_seq <= self._last_seq.get(edge, -1):
                return False
            self._last_seq[edge] = message.producer_seq
        for observer in self.observers:
            observer.on_ingress_batch(self, origin, message)
        self.ingress_messages += 1
        return True

    def _loop(self) -> None:
        config = self.config
        self.router.begin_interval(0)
        self._interval_started = time.monotonic()

        #: What ended the last merge: taken from the ingress but not handled
        #: yet, so it goes first — never back into the queue.
        held: Any = None
        while not self._barrier.finished:
            message = self._next_ingress() if held is None else held
            held = None
            if isinstance(message, EmittedBatch):
                if not self._accept(message):
                    continue
                keys, values, origin_at, held = coalesce_ingress(
                    message, self._poll_ingress, config.batch_size, self._accept
                )
                self.router.dispatch(
                    keys,
                    values,
                    pump=self._pump,
                    interval=message.interval,
                    origin_at=origin_at,
                )
            elif isinstance(message, UpstreamMark):
                origin = self._origin_of(message)
                accepted, closable = self._barrier.observe_mark(
                    origin, message.producer_id, message.interval
                )
                if accepted:
                    for observer in self.observers:
                        observer.on_upstream_mark(
                            origin, message.producer_id, message.interval
                        )
                if closable:
                    self._close_interval(message.interval)
            elif isinstance(message, UpstreamDone):
                self._barrier.observe_done(self._origin_of(message))
            else:  # pragma: no cover - protocol violation
                raise TypeError(
                    f"stage {self.spec.name!r} got unknown ingress {message!r}"
                )

        # A hand-off begun on the final interval must complete (install the
        # shipped state, release the buffered tuples) before EOS.
        self.controller.finish_pending()
        self._draining = True
        for guarded_queue in self.guarded_queues:
            guarded_queue.put(EndOfStream(collect_state=config.collect_final_state))
        self.finals = self._drained_finals + self.mailbox.collect(
            FinalReport, self.spec.parallelism
        )
        self.interval_reports.extend(self.mailbox.drain(IntervalReport))

    def _close_interval(self, interval: int) -> None:
        """Close ``interval`` in the order :mod:`repro.runtime.lifecycle` states."""
        # Finish any hand-off BEFORE the markers: tuples released by resume()
        # belong to this interval and must precede its EndInterval in the
        # FIFO queues to be counted in it.
        self.controller.finish_pending()
        for guarded_queue in self.guarded_queues:
            guarded_queue.put(EndInterval(interval=interval))
        if self.config.calibrate_pacing and interval == 0:
            self._calibrate()
        for observer in self.observers:
            observer.on_close(self, interval)
        # The closing interval's own accounting bucket: early batches of the
        # next interval (fast upstream producers) are already parked in
        # their own bucket and do not pollute this one.
        account = self.router.pop_interval(interval)
        # Split-key bookkeeping is per interval inside the partitioner and is
        # reset by its on_interval_end — fold it into the lifetime totals now.
        self.router.snapshot_split_stats()
        migration = self.controller.end_interval(
            self._interval_stats(self.spec.logic, interval, account.freqs)
        )
        for observer in self.observers:
            observer.on_planned(self, interval, account.freqs.keys())
        now = time.monotonic()
        # The account's dense per-task arrays convert to the report's
        # ``{task: value}`` dict shape only here, at interval close.
        self.interval_rows.append(
            {
                "interval": interval,
                "offered_tuples": float(account.offered_tuples_by_task.sum()),
                "offered_cost": account.offered_cost,
                "elapsed": now - self._interval_started,
                "migration": migration,
                "routing_table_size": self.spec.partitioner.routing_table_size,
            }
        )
        self._interval_started = now
        self.current_interval = interval + 1
        self.router.begin_interval(interval + 1)

    # -- resilience / elasticity ---------------------------------------------------

    def spawn_worker(self, task: int) -> Any:
        """Start a replacement process for ``task`` on a *fresh* channel.

        The dead worker's inbound channel cannot be reused: its reader reads
        ahead into a private buffer, so a SIGKILL can take half a frame with
        it — what is left in the pipe need not start at a frame boundary —
        and the channel admits one consumer pid.  Anything left in the
        abandoned channel is superseded by the retention-log replay, so the
        swap loses nothing; the fresh channel is swapped *into* the task's
        send path, so a dispatch currently blocked on the dead worker's
        channel (full, or in mid-frame) is redirected at its next wake-up.
        """
        queue = self.queue_factory(task)
        self.guarded_queues[task].replace(queue)
        process = self.worker_factory(task, queue, self._service_us)
        process.start()
        self.workers[task] = process
        self.spawned_processes.append(process)
        for observer in self.observers:
            observer.on_respawn(task)
        return process

    def attach_worker(self, task: int) -> None:
        """Add a brand-new worker (elastic scale-out): queue, process, send path."""
        queue = self.queue_factory(task)
        process = self.worker_factory(task, queue, self._service_us)
        process.start()
        self.workers.append(process)
        self.spawned_processes.append(process)
        self.guarded_queues.append(
            _AbortableQueue(queue, self._watchdog, task, self.observers)
        )
        for observer in self.observers:
            observer.on_attach(task)

    def detach_workers(self, new: int, old: int) -> None:
        """Drain tasks ``new..old-1`` (elastic scale-in) with a normal EOS.

        The drained workers' lifetime totals still reach the final
        accounting through their stashed ``FinalReport`` s; their expected
        exits are excluded from the dead-worker scan while in flight.
        """
        doomed = list(range(new, old))
        self._detaching = set(doomed)
        try:
            for task in doomed:
                self.guarded_queues[task].put(
                    EndOfStream(collect_state=self.config.collect_final_state)
                )
            self._drained_finals.extend(
                self.mailbox.collect(FinalReport, len(doomed))
            )
            del self.workers[new:old]
            del self.guarded_queues[new:old]
            for task in doomed:
                for observer in self.observers:
                    observer.on_detach(task)
        finally:
            self._detaching = set()

    def set_upstream_producers(
        self, origin: str, from_interval: int, count: int, done_delta: int
    ) -> None:
        """An upstream resize changed this stage's producer accounting.

        Called from the *upstream* stage's thread at its interval boundary —
        strictly before the resized group emits any mark for
        ``from_interval``, so the timeline append cannot race a close that
        depends on it.  ``origin`` names the resized edge (other upstream
        origins' barriers are untouched); ``done_delta`` adjusts the
        expected end-of-stream count (scale-out adds producers; scale-in's
        drained workers still send their own ``UpstreamDone``, so shrink
        passes zero).
        """
        self._barrier.resize(origin, from_interval, count, done_delta)
        self.upstream_producers[origin] = int(count)

    def _calibrate(self) -> None:
        """Measure interval 0's unpaced processing and install the pacing.

        Blocking: waits for every worker's interval-0 report (a one-off
        barrier), then ships the new service time through the FIFO queues —
        any interval-1 batches a fast upstream producer already queued run
        unpaced, everything after the command is paced.  The drain time is the
        workers' summed *busy* seconds, not the stage's wall-clock interval:
        wall time would fold in upstream pipeline fill (inflating pacing
        progressively down a chain) and, under an open-loop source, the
        offer schedule itself (pacing would then cap capacity below the
        offered rate and the run could never keep up).
        """
        reports = self.mailbox.collect(IntervalReport, self.spec.parallelism)
        self.interval_reports.extend(reports)
        cost = sum(report.cost for report in reports)
        busy = sum(report.busy_seconds for report in reports)
        service_us = calibrated_service_time_us(
            cost, busy / self.spec.parallelism, self.spec.parallelism
        )
        if service_us > 0:
            for guarded_queue in self.guarded_queues:
                guarded_queue.put(SetServiceTime(service_time_us=service_us))
            self.calibrated_us = service_us
            self._service_us = service_us

    @staticmethod
    def _interval_stats(
        logic: OperatorLogic, interval: int, freqs: Mapping[Key, float]
    ) -> IntervalStats:
        """The closing interval's statistics: the router's per-key dispatch
        counts times the operator's batch cost / state models (one scalar
        each for every constant model, else one value per key).  The dict
        becomes columns once, at the snapshot edge."""
        snapshot = Snapshot.of(freqs)
        keys = snapshot.key_tuple
        return IntervalStats.from_frequencies(
            interval,
            snapshot,
            cost_per_tuple=logic.batch_cost(keys),
            memory_per_tuple=logic.batch_state_delta(keys),
        )

    # -- aggregation ---------------------------------------------------------------

    def aggregate(self, wall_seconds: float) -> RuntimeResult:
        """Fold the loop's rows and the workers' reports into a RuntimeResult."""
        result = fold_stage_result(
            self.spec.name,
            self.spec.parallelism,
            wall_seconds,
            self.interval_rows,
            self.interval_reports + self.mailbox.drain(IntervalReport),
            self.finals,
            messages={
                "ingress": self.ingress_messages,
                "chunks": self.router.chunks,
                "to_workers": self.router.worker_messages,
                "tuples_to_workers": self.router.worker_tuples,
            },
        )
        result.migrations = list(self.controller.migrations)
        result.calibrated_service_time_us = self.calibrated_us
        result.upstreams = len(self.upstream_producers)
        result.split_stats = self.router.split_stats
        for observer in self.observers:
            observer.on_finalize(result)
        return result
