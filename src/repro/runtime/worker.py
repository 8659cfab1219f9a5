"""The worker process loop: one operator task instance per process.

A worker hosts exactly one :class:`~repro.engine.operator.Task` (one parallel
instance of one topology stage) and consumes its inbound queue in FIFO order:
tuple batches, interval markers and migration commands.  Per-tuple latency is
measured against the batch's enqueue stamp and recorded into a
:class:`~repro.runtime.histogram.LatencyHistogram`; the interval *delta* of
the histogram ships with every :class:`~repro.runtime.messages.IntervalReport`
so latency-over-time plots come from measured buckets, not just means.

Tuple batches run through the operators' one way in: one
:meth:`~repro.engine.operator.Task.process_batch` call per micro-batch — the
columns of the message go to the operator as they are, no per-tuple object is
built, and the metrics counters move once per batch.

**Emission.**  When the stage has downstream stages, the worker forwards the
operator's emitted tuples — re-keyed by the stage's key mapper — onto the
consumers' shared bounded *egress* queues as columnar
:class:`~repro.runtime.messages.EmittedBatch`
messages, one per inbound batch that emitted anything, and propagates
interval/end-of-stream markers so each downstream router can close
intervals.  Emission boundaries are thus a function of the inbound sequence
alone — what lets a post-recovery replay re-emit the same ``producer_seq`` s —
and re-batching is the *consumer's* job: its router merges the batches it
finds waiting into one dispatch chunk (``stage_loop.coalesce_ingress``), so a
worker's small messages do not stay small down the chain.

With several consumers (a DAG fan-out) data
batches round-robin across the egress queues — so consecutive batches of a
hot key land on *different* branches, the split-key premise of the paper's
Fig. 2 — while every marker is replicated to every consumer (each one runs
its own mark barrier per upstream edge).  The bounded egress queues are what
chain backpressure: a slow downstream stage blocks these puts, the worker
stops consuming its inbound queue, and the stall propagates up to the
source — exactly the chained-starvation effect of the paper's Fig. 16, now
along every edge of the DAG.

**Service pacing.**  The paper's evaluation runs every task at the CPU
saturation point, so the quantity of interest — throughput loss under skew —
is set by how close each task's offered load is to its service *capacity*.
The worker therefore emulates a fixed capacity: each batch owes
``cost × service_time_us`` of service time, and the worker sleeps off
whatever the real CPU work did not consume.  Because paced workers spend most
of their budget sleeping, N workers genuinely overlap even on a host with
fewer than N cores, and measured throughput degrades with imbalance exactly
as it would on dedicated hardware.  A :class:`SetServiceTime` command adjusts
the pacing mid-run (adaptive calibration).
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from typing import Any, Callable, Hashable, Optional

from repro.engine.operator import OperatorLogic, Task
from repro.engine.topology import map_keys
from repro.runtime.histogram import LatencyHistogram
from repro.runtime.queues import QueueAborted, abortable_get, abortable_put
from repro.runtime.messages import (
    CrashSelf,
    EmittedBatch,
    EndInterval,
    EndOfStream,
    ExtractKeys,
    FinalReport,
    InstallAck,
    InstallState,
    IntervalReport,
    SetServiceTime,
    StateShipment,
    TupleBatch,
    UpstreamDone,
    UpstreamMark,
    WorkerError,
)

__all__ = ["worker_main"]

Key = Hashable
KeyMapper = Callable[[Key], Key]


def worker_main(
    worker_id: int,
    logic: OperatorLogic,
    in_queue: Any,
    out_queue: Any,
    service_time_us: float,
    egress: Any = None,
    key_mapper: Optional[KeyMapper] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    origin: str = "",
) -> None:
    """Entry point of one worker process (must stay module-level picklable).

    ``egress`` is ``None`` (final stage), one queue (chain), or a list of
    queues (DAG fan-out — one per consuming stage).  ``origin`` is the
    stage's name, stamped onto every stage-to-stage message so a fan-in
    consumer can attribute it to the right upstream edge.

    Every blocking queue operation is abort-aware: ``should_abort`` (default:
    "my parent process died") is re-checked between short waits, so a worker
    whose coordinator crashed or wedged exits cleanly instead of blocking
    forever on a queue nobody will ever feed or drain again.
    """
    try:
        _worker_loop(
            worker_id,
            logic,
            in_queue,
            out_queue,
            service_time_us,
            egress,
            key_mapper,
            should_abort,
            origin,
        )
    except QueueAborted:
        # The coordinator is gone; exiting *is* the clean teardown.
        return
    except Exception:  # pragma: no cover - crash path, surfaced by coordinator
        try:
            abortable_put(
                out_queue,
                WorkerError(worker_id=worker_id, message=traceback.format_exc()),
                should_abort,
            )
        except QueueAborted:
            pass


def _worker_loop(
    worker_id: int,
    logic: OperatorLogic,
    in_queue: Any,
    out_queue: Any,
    service_time_us: float,
    egress: Any,
    key_mapper: Optional[KeyMapper],
    should_abort: Optional[Callable[[], bool]] = None,
    origin: str = "",
) -> None:
    task = Task(worker_id, logic)
    histogram = LatencyHistogram()
    e2e_histogram = LatencyHistogram()
    service_time_s = max(service_time_us, 0.0) / 1e6
    # Normalise the egress wiring: no consumer, one consumer, or a fan-out.
    if egress is None:
        egresses = []
    elif isinstance(egress, (list, tuple)):
        egresses = list(egress)
    else:
        egresses = [egress]
    #: The final stage (no egress) measures end-to-end latency too.
    final_stage = not egresses

    busy_seconds = 0.0
    # Monotone per-producer emission sequence, stamped onto every egress
    # batch.  Restored from the checkpoint after a supervised recovery, so a
    # replayed batch carries the *same* sequence number as the original and
    # the downstream router can deduplicate (see EmittedBatch.producer_seq).
    emit_seq = 0
    # Interval watermark: in a pipelined topology, upstream workers progress
    # through intervals at different speeds, so a batch tagged with an older
    # interval can arrive after a newer one (or after the older interval's
    # marker already expired state).  Late tuples are processed at the
    # watermark — the windowed-state interval tags stay monotone per worker,
    # as `KeyedState` requires.
    floor_interval = 0
    # Per-interval accounting deltas, bucketed by the batches' (clamped)
    # interval tag: a fast upstream producer can deliver next-interval
    # batches before this interval's EndInterval marker, and those must not
    # inflate the closing interval's report.  ``[processed, cost, busy,
    # latency_us_sum, histogram]`` per interval.
    marks: dict = {}

    def _mark(interval: int) -> list:
        bucket = marks.get(interval)
        if bucket is None:
            bucket = marks[interval] = [0, 0.0, 0.0, 0.0, LatencyHistogram()]
        return bucket

    while True:
        message = abortable_get(in_queue, should_abort)

        if isinstance(message, TupleBatch):
            started = time.monotonic()
            cost_before = task.metrics.cost_processed
            interval = message.interval
            if interval < floor_interval:
                interval = floor_interval
            else:
                floor_interval = interval
            # One Task.process_batch call per micro-batch (metrics updated
            # once per batch).  A final stage (no egress) drops the returned
            # emissions; their accumulation is bounded by one micro-batch.
            out_keys, out_values = task.process_batch(
                message.keys, message.values, interval
            )
            cost = task.metrics.cost_processed - cost_before
            elapsed = time.monotonic() - started
            owed = cost * service_time_s
            if owed > elapsed:
                time.sleep(owed - elapsed)
            done = time.monotonic()
            busy = done - started
            busy_seconds += busy
            latency_us = max(done - message.sent_at, 0.0) * 1e6
            count = len(message.keys)
            histogram.record(latency_us, count)
            if final_stage:
                born_at = message.origin_at or message.sent_at
                e2e_histogram.record(max(done - born_at, 0.0) * 1e6, count)
            bucket = _mark(interval)
            bucket[0] += count
            bucket[1] += cost
            bucket[2] += busy
            bucket[3] += latency_us * count
            bucket[4].record(latency_us, count)
            if egresses and out_keys:
                if key_mapper is not None:
                    out_keys = map_keys(key_mapper, out_keys)
                # Round-robin by emission sequence: deterministic (so a
                # post-recovery replay re-emits each batch onto the same
                # edge, keeping per-edge sequences dense for the dedup) and
                # branch-splitting (consecutive batches of a hot key fan
                # across the consumers).
                abortable_put(
                    egresses[emit_seq % len(egresses)],
                    EmittedBatch(
                        interval=interval,
                        origin_at=message.origin_at or message.sent_at,
                        keys=out_keys,
                        values=out_values,
                        producer_id=worker_id,
                        producer_seq=emit_seq,
                        origin=origin,
                    ),
                    should_abort,
                )
                emit_seq += 1

        elif isinstance(message, EndInterval):
            # State up to this interval is expired; later stragglers process
            # at the next interval.
            floor_interval = max(floor_interval, message.interval + 1)
            if task.has_open_interval:
                # Expire at the *marker's* interval, not the watermark: a
                # fast upstream producer may already have delivered tuples
                # of a later interval, whose window must not shrink early.
                task.end_interval(message.interval)
            # Fold every bucket up to the marker into the report (clamping
            # can skip intervals, leaving older sparse buckets behind);
            # next-interval buckets stay open.
            closed = [0, 0.0, 0.0, 0.0, LatencyHistogram()]
            for interval in sorted(marks):
                if interval > message.interval:
                    break
                bucket = marks.pop(interval)
                closed[0] += bucket[0]
                closed[1] += bucket[1]
                closed[2] += bucket[2]
                closed[3] += bucket[3]
                closed[4].merge(bucket[4])
            abortable_put(
                out_queue,
                IntervalReport(
                    worker_id=worker_id,
                    interval=message.interval,
                    processed=closed[0],
                    cost=closed[1],
                    busy_seconds=closed[2],
                    latency_us_sum=closed[3],
                    histogram=closed[4].to_dict(),
                ),
                should_abort,
            )
            # The interval mark is replicated to every consumer: each one
            # closes the interval on its own per-edge mark barrier.
            for shared in egresses:
                abortable_put(
                    shared,
                    UpstreamMark(
                        producer_id=worker_id,
                        interval=message.interval,
                        origin=origin,
                    ),
                    should_abort,
                )

        elif isinstance(message, ExtractKeys):
            if message.copy:
                # Checkpoint snapshot: ship a copy of every requested key
                # (``None`` = all keys with state) plus the lifetime
                # counters; the keys keep serving on this task.
                keys = (
                    list(task.state.keys())
                    if message.keys is None
                    else list(message.keys)
                )
                entries = [(key, task.snapshot_key(key)) for key in keys]
                counters = {
                    "processed": float(task.metrics.tuples_processed),
                    "cost": float(task.metrics.cost_processed),
                    "busy_seconds": busy_seconds,
                    "emit_seq": float(emit_seq),
                    "watermark": float(floor_interval),
                    "migrations_in": float(task.metrics.migrations_in),
                    "migrations_out": float(task.metrics.migrations_out),
                }
            else:
                entries = [(key, task.extract_key(key)) for key in message.keys]
                counters = {}
            shipped = sum(
                size for _, snapshot in entries for _, _, size in snapshot
            )
            abortable_put(
                out_queue,
                StateShipment(
                    worker_id=worker_id,
                    entries=entries,
                    state_size=shipped,
                    counters=counters,
                ),
                should_abort,
            )

        elif isinstance(message, InstallState):
            if message.counters:
                # Checkpoint restore after a supervised recovery: install
                # the state *directly* (bypassing the migration counters)
                # and reset the lifetime counters to the snapshot's values,
                # so the retention-log replay that follows reproduces the
                # dead worker's accounting exactly once.
                for key, snapshot in message.entries:
                    task.state.install(key, snapshot)
                counters = message.counters
                task.metrics.tuples_processed = int(counters.get("processed", 0))
                task.metrics.cost_processed = counters.get("cost", 0.0)
                task.metrics.migrations_in = int(
                    counters.get("migrations_in", 0)
                )
                task.metrics.migrations_out = int(
                    counters.get("migrations_out", 0)
                )
                busy_seconds = counters.get("busy_seconds", 0.0)
                emit_seq = int(counters.get("emit_seq", 0))
                floor_interval = max(
                    floor_interval, int(counters.get("watermark", 0))
                )
            else:
                for key, snapshot in message.entries:
                    task.install_key(key, snapshot)
                    # The source worker's watermark may be ahead of ours;
                    # keep the installed keys' interval tags monotone here
                    # too.
                    for bucket_interval, _payload, _size in snapshot:
                        if bucket_interval > floor_interval:
                            floor_interval = bucket_interval
            abortable_put(
                out_queue,
                InstallAck(worker_id=worker_id, installed_keys=len(message.entries)),
                should_abort,
            )

        elif isinstance(message, SetServiceTime):
            service_time_s = max(message.service_time_us, 0.0) / 1e6

        elif isinstance(message, CrashSelf):
            # Hard crash on command (fault injection): die with no cleanup —
            # state, accounting and the rest of the inbound channel are
            # simply gone.  The command is handled between messages, never
            # inside a ``put``, so no shared write lock dies with us and
            # everything already emitted is on the wire.
            os.kill(os.getpid(), signal.SIGKILL)

        elif isinstance(message, EndOfStream):
            final_state = {}
            if message.collect_state:
                final_state = {
                    key: task.state.payloads(key) for key in task.state.keys()
                }
            for shared in egresses:
                abortable_put(
                    shared,
                    UpstreamDone(producer_id=worker_id, origin=origin),
                    should_abort,
                )
            tail = LatencyHistogram()
            for bucket in marks.values():
                tail.merge(bucket[4])
            abortable_put(
                out_queue,
                FinalReport(
                    worker_id=worker_id,
                    processed=task.metrics.tuples_processed,
                    cost=task.metrics.cost_processed,
                    busy_seconds=busy_seconds,
                    histogram=histogram.to_dict(),
                    migrations_in=task.metrics.migrations_in,
                    migrations_out=task.metrics.migrations_out,
                    state_size=task.state_size,
                    state_keys=len(task.state),
                    final_state=final_state,
                    tail_histogram=tail.to_dict(),
                    e2e_histogram=e2e_histogram.to_dict() if final_stage else {},
                    service_time_us=service_time_s * 1e6,
                ),
                should_abort,
            )
            return

        else:  # pragma: no cover - protocol violation
            raise TypeError(f"worker {worker_id} got unknown message {message!r}")
