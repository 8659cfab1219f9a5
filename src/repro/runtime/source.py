"""Source processes feeding a topology: closed-loop drain or open-loop pacing.

The source is a separate process speaking the same producer protocol as an
upstream stage's workers (:class:`~repro.runtime.messages.EmittedBatch` +
:class:`~repro.runtime.messages.UpstreamMark` / ``UpstreamDone``), so the
first stage's router treats "the outside world" exactly like any other
upstream producer.

Two offering disciplines:

* **Closed loop** (``rate=None``, the default): batches are put as fast as
  the bounded source queue accepts them.  The system runs saturated — the
  drain rate *is* the measurement — which is the paper's throughput setup,
  but latency below saturation is unobservable.
* **Open loop** (``rate`` in tuples/second): each batch is *scheduled* on a
  fixed timetable (batch ``n`` at ``start + offered/rate``) and ``origin_at``
  is stamped with the scheduled offer time, not the actual put time.  When
  the system falls behind, the blocking put delays subsequent offers but the
  stamps still accrue the wait — measured latency is then free of coordinated
  omission, and per-stage latency below saturation becomes measurable.

The stream itself is a materialised list of per-interval tuple lists (the
bench helpers expand the repo's snapshot generators or replay recorded
traces into this shape).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Hashable, List, Optional, Sequence, Tuple

from repro.engine.topology import SOURCE_ORIGIN
from repro.runtime.messages import EmittedBatch, UpstreamDone, UpstreamMark
from repro.runtime.queues import QueueAborted, abortable_put

__all__ = ["SOURCE_PRODUCER_ID", "source_main"]

Key = Hashable

#: Producer id the source uses in its marks (a topology has one source).
SOURCE_PRODUCER_ID = 0


def source_main(
    stream: Sequence[List[Tuple[Key, Any]]],
    out_queue: Any,
    batch_size: int,
    rate_tuples_per_s: Optional[float] = None,
    should_abort: Optional[Callable[[], bool]] = None,
) -> None:
    """Entry point of the source process (must stay module-level picklable).

    Offers ``stream``'s tuples interval by interval in ``batch_size`` chunks,
    each followed by its interval mark and finally an end-of-stream mark.
    ``out_queue`` is one queue (a chain's first stage) or a list of queues
    (a DAG whose source fans out to several stages): data chunks round-robin
    across the consumers — each gets a disjoint share of the stream — while
    every interval/end-of-stream mark is replicated to every consumer.

    Offer puts are abort-aware (``should_abort`` defaults to "my parent
    process died"): a source blocked on a full queue whose topology already
    tore down exits cleanly instead of outliving the run.
    """
    try:
        _source_loop(stream, out_queue, batch_size, rate_tuples_per_s, should_abort)
    except QueueAborted:
        # The coordinator is gone; nobody will drain the queue again.
        return


def _source_loop(
    stream: Sequence[List[Tuple[Key, Any]]],
    out_queue: Any,
    batch_size: int,
    rate_tuples_per_s: Optional[float],
    should_abort: Optional[Callable[[], bool]],
) -> None:
    outs = list(out_queue) if isinstance(out_queue, (list, tuple)) else [out_queue]
    interval_pace = 1.0 / rate_tuples_per_s if rate_tuples_per_s else 0.0
    started = time.monotonic()
    offered = 0
    chunks_sent = 0
    for interval, tuples in enumerate(stream):
        # Split once per interval into the columnar batch layout; slices of
        # the two flat lists are then cheap to chunk and pickle.
        keys = [key for key, _ in tuples]
        values = [value for _, value in tuples]
        for index in range(0, len(keys), batch_size):
            chunk_keys = keys[index : index + batch_size]
            chunk_values = values[index : index + batch_size]
            if interval_pace:
                scheduled = started + offered * interval_pace
                delay = scheduled - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                origin = scheduled
            else:
                origin = time.monotonic()
            abortable_put(
                outs[chunks_sent % len(outs)],
                EmittedBatch(
                    interval=interval,
                    origin_at=origin,
                    keys=chunk_keys,
                    values=chunk_values,
                    origin=SOURCE_ORIGIN,
                ),
                should_abort,
            )
            chunks_sent += 1
            offered += len(chunk_keys)
        for out in outs:
            abortable_put(
                out,
                UpstreamMark(
                    producer_id=SOURCE_PRODUCER_ID,
                    interval=interval,
                    origin=SOURCE_ORIGIN,
                ),
                should_abort,
            )
    for out in outs:
        abortable_put(
            out,
            UpstreamDone(producer_id=SOURCE_PRODUCER_ID, origin=SOURCE_ORIGIN),
            should_abort,
        )
