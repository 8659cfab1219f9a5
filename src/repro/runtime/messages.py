"""Message types flowing between the coordinator and the worker processes.

Each worker has one bounded *inbound* queue carrying data **and** control
messages in FIFO order, and all workers of a stage share one *outbound* queue
back to the coordinator.  The in-order inbound queue is what makes live
migration safe: an :class:`ExtractKeys` command enqueued after a key's last
data batch is processed only once every preceding tuple of that key has been
applied to the worker's state, so the shipped snapshot is complete (steps 3–6
of the paper's Fig. 5 protocol without a separate ack channel).

In a multi-stage topology a third queue family appears: each stage's workers
put their emitted tuples onto a shared bounded *egress* queue consumed by the
next stage's router.  :class:`EmittedBatch` carries the data;
:class:`UpstreamMark` / :class:`UpstreamDone` are the per-producer interval
and end-of-stream markers (the downstream router closes an interval only when
every upstream producer's mark arrived, so FIFO ordering per producer keeps
interval accounting sound).  The open-loop source process speaks the same
producer protocol, so stage 0 is not a special case.

Everything here must pickle cheaply: batches are **columnar** — parallel
``keys``/``values`` lists rather than a list of ``(key, value)`` 2-tuples or
per-tuple objects.  Two flat lists pickle
(and unpickle) measurably cheaper than one list of per-tuple containers, and
they hand the router/worker fast paths the exact shape their vectorised
chunk operations want, with no per-tuple unzipping on the hot path.
Replies carry aggregates, not samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.engine.state import KeyStateSnapshot

__all__ = [
    "TupleBatch",
    "EndInterval",
    "ExtractKeys",
    "InstallState",
    "SetServiceTime",
    "CrashSelf",
    "EndOfStream",
    "EmittedBatch",
    "UpstreamMark",
    "UpstreamDone",
    "IntervalReport",
    "StateShipment",
    "InstallAck",
    "FinalReport",
    "WorkerError",
]

Key = Hashable


# -- coordinator -> worker ---------------------------------------------------------


@dataclass
class TupleBatch:
    """A micro-batch of tuples routed to one worker (columnar layout).

    ``keys[i]``/``values[i]`` form one tuple.  ``sent_at`` is a
    ``time.monotonic()`` stamp taken when the batch was enqueued; per-tuple
    *stage* latency is measured against it on the worker (on Linux the
    monotonic clock is system-wide, so stamps are comparable across
    processes).  ``origin_at`` is the stamp of the batch's oldest tuple at
    the topology *source* (the moment it was offered); the final stage
    measures end-to-end latency against it.  A zero ``origin_at`` means
    "same as sent_at" (single-stage runs).
    """

    interval: int
    sent_at: float
    keys: List[Key]
    values: List[Any]
    origin_at: float = 0.0

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class EndInterval:
    """Marks the interval boundary; the worker replies with an IntervalReport."""

    interval: int


@dataclass
class ExtractKeys:
    """Hand over the windowed state of ``keys`` (source side of a migration).

    The same wire type also drives **checkpointing**: with ``copy=True`` the
    worker ships a *non-destructive* snapshot (the keys stay owned and keep
    serving tuples) and includes its lifetime counters in the shipment.
    ``keys=None`` means "every key with state on this task" and is only
    meaningful in copy mode.
    """

    keys: Optional[List[Key]]
    #: Snapshot instead of extract: ship a copy, keep serving the keys.
    copy: bool = False


@dataclass
class InstallState:
    """Install previously extracted snapshots (target side of a migration).

    With non-empty ``counters`` (a checkpoint restore after supervised
    recovery) the worker additionally resets its lifetime counters —
    processed/cost totals, busy seconds, emission sequence and interval
    watermark — to the checkpointed values, so a replay of the
    post-checkpoint dispatch log reproduces the dead worker's accounting
    exactly once.
    """

    entries: List[Tuple[Key, KeyStateSnapshot]]
    #: Checkpointed lifetime counters (see StateShipment.counters); empty for
    #: an ordinary migration install.
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class SetServiceTime:
    """Adjust the worker's emulated per-cost-unit service time mid-run.

    Sent by the coordinator after the calibration interval (adaptive pacing):
    the first interval runs unpaced to measure the host's raw speed, then the
    pacing that keeps the bench saturated on *this* machine is installed.
    """

    service_time_us: float


@dataclass
class CrashSelf:
    """Fault injection: die by SIGKILL when this message is dequeued.

    The worker SIGKILLs its own process — no final report, no state
    hand-off, no Python cleanup.  The command is handled *between* messages,
    never inside a ``put``, which keeps the *shared* egress/report channels'
    write locks out of the blast radius (a process SIGKILLed in mid-frame
    would leave a torn frame and a held lock behind for every sibling
    producer — an artifact of sharing one pipe; real deployments lose a
    socket, which dies with its process), and everything the worker emitted
    before it is already on the wire.  Everything else about the death is a
    hard crash: in-memory state, accounting and queued inbound messages are
    gone, and recovery must rebuild them from checkpoint + replay.
    """


@dataclass
class EndOfStream:
    """No more data; reply with a FinalReport and exit.

    ``collect_state`` asks the worker to include its final per-key windowed
    payloads in the report (used by correctness tests; off for benchmarks,
    where the state can be large).
    """

    collect_state: bool = False


# -- stage -> stage (and source -> first stage) ------------------------------------


@dataclass
class EmittedBatch:
    """Tuples emitted by one upstream producer, before downstream routing.

    Columnar like :class:`TupleBatch` (``keys[i]``/``values[i]`` form one
    tuple).  ``interval`` is the logical interval the tuples belong to;
    ``origin_at`` the source-offer stamp of the batch's oldest tuple.  The
    downstream stage's router re-keys nothing (the producer already applied
    its stage's key mapper) — it only assigns destinations and re-stamps
    ``sent_at``; it may route several waiting batches of one interval as one
    chunk, which then carries the oldest of their ``origin_at`` stamps.
    """

    interval: int
    origin_at: float
    keys: List[Key]
    values: List[Any]
    #: Producing worker id and its per-producer emission sequence number.
    #: Workers stamp every batch with a monotone ``producer_seq`` (restored
    #: from the checkpoint after a recovery), so the downstream router can
    #: drop the duplicates a post-crash replay re-emits — what the dead
    #: worker emitted is on the wire (a ``put`` that returned is readable),
    #: so the replay's first new sequence number is the first batch the
    #: crash cut short.  ``-1`` (the source process) disables the dedup.
    producer_id: int = -1
    producer_seq: int = -1
    #: Name of the producing stage ("source" for the source process).  In a
    #: DAG topology a consumer stage can have several upstream stages feeding
    #: one shared ingress queue; ``origin`` identifies the edge so the
    #: consumer can dedup and close intervals per (origin, producer).  The
    #: empty string (linear chains, old pickles) means "the only upstream".
    origin: str = ""

    def __len__(self) -> int:
        return len(self.keys)


@dataclass
class UpstreamMark:
    """One producer finished emitting for ``interval``.

    The downstream router closes the interval once every producer of **every
    upstream stage** has marked it (producer = source process for stage 0,
    upstream worker for later stages; FIFO queue order guarantees the mark
    follows the producer's last batch of the interval on its edge).
    """

    producer_id: int
    interval: int
    #: Producing stage name; see :class:`EmittedBatch.origin`.
    origin: str = ""


@dataclass
class UpstreamDone:
    """One producer reached end of stream and will emit nothing more."""

    producer_id: int
    #: Producing stage name; see :class:`EmittedBatch.origin`.
    origin: str = ""


# -- worker -> coordinator ---------------------------------------------------------


@dataclass
class IntervalReport:
    """Per-worker account of one finished interval.

    Because the inbound queue is FIFO, ``processed`` counts exactly the tuples
    of that interval which were dispatched to this worker — the report is
    emitted when the worker reaches the interval's :class:`EndInterval`
    marker, after the last of its batches.
    """

    worker_id: int
    interval: int
    processed: int
    cost: float
    busy_seconds: float
    #: Sum of per-tuple latencies (µs) over the interval, for weighted means.
    latency_us_sum: float = 0.0
    #: Log-bucketed latency histogram *delta* of this interval alone
    #: (:meth:`~repro.runtime.histogram.LatencyHistogram.to_dict` payload), so
    #: latency-over-time plots come from measured data, not just the mean.
    histogram: Dict[str, Any] = field(default_factory=dict)


@dataclass
class StateShipment:
    """The extracted windowed state snapshots, shipped to the coordinator.

    A checkpoint shipment (``ExtractKeys(copy=True)``) additionally carries
    the worker's lifetime ``counters`` — processed/cost totals, busy
    seconds, emission sequence, interval watermark — which the supervisor
    persists beside the state and restores on recovery.
    """

    worker_id: int
    entries: List[Tuple[Key, KeyStateSnapshot]]
    state_size: float
    #: Lifetime counters at snapshot time (copy mode only; else empty).
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class InstallAck:
    """Acknowledges an InstallState command."""

    worker_id: int
    installed_keys: int


@dataclass
class FinalReport:
    """Lifetime totals of one worker, sent right before it exits."""

    worker_id: int
    processed: int
    cost: float
    busy_seconds: float
    histogram: Dict[str, Any]
    migrations_in: int
    migrations_out: int
    state_size: float
    state_keys: int
    #: ``{key: [windowed payloads, oldest first]}`` when collect_state was set.
    final_state: Dict[Key, List[Any]] = field(default_factory=dict)
    #: Latency recorded after the last interval marker (e.g. tuples released
    #: by a final migration hand-off); folded into the last interval's delta
    #: so the per-interval histograms still sum to the lifetime histogram.
    tail_histogram: Dict[str, Any] = field(default_factory=dict)
    #: End-to-end (source-offer to completion) histogram; only populated by
    #: final-stage workers (no egress), where it differs from ``histogram``.
    e2e_histogram: Dict[str, Any] = field(default_factory=dict)
    #: The service pacing in effect when the worker exited (observability for
    #: the adaptive calibration).
    service_time_us: float = 0.0


@dataclass
class WorkerError:
    """A worker crashed; carries the formatted traceback."""

    worker_id: int
    message: str
