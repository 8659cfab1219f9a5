"""The multi-stage process topology runtime.

This is the execution core of :mod:`repro.runtime`: a
:class:`TopologySpec` chains :class:`StageSpec` s — each stage owning its own
group of worker processes, its own partitioner (and therefore its own online
rebalancing strategy + live key migration), and its own
:class:`~repro.runtime.router.StreamRouter` — into a dataflow pipeline::

    source ──▶ [router₀]──▶ workers₀ ──▶ [router₁]──▶ workers₁ ──▶ …
    (process)     │  bounded FIFO │ egress   │  bounded FIFO │
                  ▼               ▼          ▼               ▼
              controller₀     (bounded)  controller₁      final stage

Every queue is bounded, so backpressure chains: a slow task in stage *k*
fills its inbound queue, blocks stage *k*'s router thread, stops it draining
stage *k−1*'s egress queue, blocks the upstream workers' emit puts — and the
stall propagates to the source.  That is the paper's Fig. 16 effect ("the
data imbalance slows down the previous join operator … and suspends the
processing on downstream join operators"), reproduced on real processes and
measured on the wall clock.

The coordinator process runs one router thread per stage (threads spend
their time in blocking queue operations, which release the GIL, so stages
genuinely overlap) plus a per-stage :class:`~repro.runtime.controller.
RuntimeController` executing any registered rebalancing strategy online.
The source is a separate process (:mod:`repro.runtime.source`) offering
tuples either closed-loop (drain, the saturated-throughput setup) or
open-loop at a fixed rate (latency below saturation becomes measurable).

A single operator behind one router is simply a :class:`TopologySpec` with
one stage; there is no separate single-stage runtime.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.analysis.sanitizer import (
    SanitizedQueue,
    SanitizerReport,
    StageSanitizer,
)
from repro.baselines.base import Partitioner
from repro.core.load import max_balance_indicator, max_skewness
from repro.core.statistics import IntervalStats
from repro.engine.metrics import IntervalMetrics, MetricsCollector
from repro.engine.operator import OperatorLogic
from repro.runtime.controller import LiveMigrationReport, RuntimeController
from repro.runtime.histogram import LatencyHistogram
from repro.runtime.messages import (
    CrashSelf,
    EmittedBatch,
    EndInterval,
    EndOfStream,
    ExtractKeys,
    FinalReport,
    IntervalReport,
    StateShipment,
    UpstreamDone,
    UpstreamMark,
    WorkerError,
)
from repro.runtime.resilience.checkpoint import CheckpointStore
from repro.runtime.resilience.scaling import (
    ScaleDirective,
    ScaleEvent,
    execute_scale,
)
from repro.runtime.resilience.supervisor import (
    KillDirective,
    LoggedQueue,
    RetentionLog,
    StageSupervisor,
)
from repro.runtime.router import StreamRouter
from repro.runtime.source import SOURCE_ORIGIN, source_main
from repro.runtime.worker import worker_main

__all__ = [
    "MarkBarrier",
    "RuntimeConfig",
    "RuntimeResult",
    "StageSpec",
    "TopologySpec",
    "TopologyResult",
    "TopologyRuntime",
    "calibrated_service_time_us",
]

Key = Hashable
TupleStream = Iterable[List[Tuple[Key, Any]]]

#: Poll period of abort-aware blocking queue operations, seconds.
_POLL_SECONDS = 0.1


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the process runtime.

    Attributes
    ----------
    parallelism:
        Unused: every stage takes its parallelism from its partitioner.
        Still accepted (and validated positive) because ``perf/`` passes it;
        to be removed with the next benchmark revision.
    batch_size:
        Tuples per dispatched micro-batch.
    queue_capacity:
        Bound of each worker's inbound queue and of every inter-stage egress
        queue, in batches; a full queue blocks the producer (backpressure)
        or sheds (see ``shed_timeout_seconds``).
    service_time_us:
        Emulated service time per cost unit (pacing); 0 disables pacing and
        the workers run as fast as the host CPU allows.
    offered_rate:
        Open-loop source rate in tuples/second; ``None`` (default) is the
        closed-loop drain.
    calibrate_pacing:
        Adaptive pacing: run the first interval unpaced, measure each
        stage's drain speed on *this* host, then install
        ``service_time_us = headroom × elapsed × parallelism / cost`` so the
        bench stays saturated across machines of different speed (the
        configured ``service_time_us`` is ignored).
    calibration_headroom:
        Target mean per-worker utilisation of the calibrated pacing,
        relative to the unpaced drain rate; > 1 makes service capacity the
        bottleneck so imbalance costs measurable throughput.
    shed_timeout_seconds:
        When set, a dispatch blocked longer than this sheds the batch (the
        drop is recorded per task); ``None`` means pure backpressure.
    collect_final_state:
        Ask workers to report their final windowed per-key payloads
        (correctness tests; expensive for large state).
    sanitize:
        Enable the runtime protocol sanitizer
        (:mod:`repro.analysis.sanitizer`): invariant checks on every
        coordinator→worker send, interval close, and pause/resume, plus
        end-of-run tuple conservation; violations are recorded into the
        result's ``sanitizer`` report instead of raised.
    start_method:
        ``multiprocessing`` start method; default picks ``fork`` when the
        platform offers it, else ``spawn``.
    join_timeout_seconds:
        How long to wait for replies/workers before declaring the run wedged.
    checkpoint_dir:
        Run-scoped checkpoint root; setting it turns the resilience
        subsystem on — periodic per-task ``KeyedState`` snapshots at
        interval boundaries and supervised recovery (respawn + restore +
        replay) instead of abort when a worker process dies.
    checkpoint_every:
        Snapshot cadence in intervals (1 = every boundary).
    kill_worker:
        Fault injection: ``(stage, task, interval)`` — the named stage's
        coordinator SIGKILLs that worker when it first sees traffic of the
        interval.
    scale_at:
        Elasticity: ``(interval, stage, delta)`` — grow/shrink the stage's
        process group by ``delta`` workers when the interval closes,
        live-migrating the keys whose assignment changes.
    """

    parallelism: int = 4
    batch_size: int = 256
    queue_capacity: int = 8
    service_time_us: float = 50.0
    offered_rate: Optional[float] = None
    calibrate_pacing: bool = False
    calibration_headroom: float = 2.0
    shed_timeout_seconds: Optional[float] = None
    collect_final_state: bool = False
    sanitize: bool = False
    start_method: Optional[str] = None
    join_timeout_seconds: float = 120.0
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1
    kill_worker: Optional[Tuple[str, int, int]] = None
    scale_at: Optional[Tuple[int, str, int]] = None

    def __post_init__(self) -> None:
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if self.service_time_us < 0:
            raise ValueError("service_time_us must be non-negative")
        if self.offered_rate is not None and self.offered_rate <= 0:
            raise ValueError("offered_rate must be positive (or None)")
        if self.calibration_headroom <= 0:
            raise ValueError("calibration_headroom must be positive")
        if self.join_timeout_seconds <= 0:
            raise ValueError("join_timeout_seconds must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.kill_worker is not None:
            stage, task, interval = self.kill_worker
            if not stage or task < 0 or interval < 0:
                raise ValueError(
                    f"kill_worker needs (stage, task >= 0, interval >= 0), "
                    f"got {self.kill_worker!r}"
                )
        if self.scale_at is not None:
            interval, stage, delta = self.scale_at
            if not stage or interval < 0 or delta == 0:
                raise ValueError(
                    f"scale_at needs (interval >= 0, stage, delta != 0), "
                    f"got {self.scale_at!r}"
                )


def calibrated_service_time_us(
    cost: float,
    elapsed_seconds: float,
    parallelism: int,
    headroom: float = 2.0,
) -> float:
    """Pacing that saturates ``parallelism`` workers at a measured drain rate.

    The unpaced first interval delivered ``cost`` cost units in
    ``elapsed_seconds``; pacing each unit at the returned service time makes
    the *mean* per-worker utilisation ``headroom`` at that offered rate — so
    with ``headroom > 1`` the service capacity (not the host CPU or the
    router) is the bottleneck, on any machine.
    """
    if cost <= 0 or elapsed_seconds <= 0 or parallelism <= 0:
        return 0.0
    return headroom * elapsed_seconds * parallelism / cost * 1e6


@dataclass(frozen=True)
class StageSpec:
    """One stage of a topology: an operator, its routing, its re-keying.

    ``partitioner`` fixes the stage's parallelism (one worker process per
    task) and, through its ``on_interval_end`` hook, the stage's online
    rebalancing strategy.  ``key_mapper`` re-keys the stage's *output*
    tuples for the next stage (e.g. the Q5 order-join re-keys by customer);
    it runs inside the stage's workers, so it must be picklable.

    ``upstream`` names the stages feeding this one and makes the topology a
    DAG.  ``None`` (the default) keeps the classic chain reading — "the
    previous stage in the list" (the source for the first stage).  An empty
    tuple pins the stage directly to the source, so several stages can fan
    out from it; a tuple of names fans several producer stages into this one
    (the names must appear *earlier* in the stage list, which makes every
    spec acyclic by construction).
    """

    name: str
    logic: OperatorLogic
    partitioner: Partitioner
    key_mapper: Optional[Callable[[Key], Key]] = None
    upstream: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if self.upstream is not None:
            object.__setattr__(self, "upstream", tuple(self.upstream))

    @property
    def parallelism(self) -> int:
        return self.partitioner.num_tasks


@dataclass(frozen=True)
class TopologySpec:
    """A DAG of stages fed by one source (a chain being the common case)."""

    name: str
    stages: Tuple[StageSpec, ...]

    def __init__(self, name: str, stages: Sequence[StageSpec]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "stages", tuple(stages))
        if not self.name:
            raise ValueError("topology name must be non-empty")
        if not self.stages:
            raise ValueError("a topology needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate stage names in topology: {names}")
        if SOURCE_ORIGIN in names:
            raise ValueError(
                f"stage name {SOURCE_ORIGIN!r} is reserved for the source"
            )
        # Resolve each stage's upstream edges.  Referencing only *earlier*
        # stages keeps the graph acyclic without a separate cycle check.
        upstreams: Dict[str, Tuple[str, ...]] = {}
        earlier: set = set()
        for index, stage in enumerate(self.stages):
            if stage.upstream is None:
                resolved = (
                    (SOURCE_ORIGIN,)
                    if index == 0
                    else (self.stages[index - 1].name,)
                )
            elif not stage.upstream:
                resolved = (SOURCE_ORIGIN,)
            else:
                resolved = stage.upstream
                if len(set(resolved)) != len(resolved):
                    raise ValueError(
                        f"stage {stage.name!r} lists a duplicate upstream: "
                        f"{resolved}"
                    )
                for upstream_name in resolved:
                    if upstream_name == SOURCE_ORIGIN:
                        continue
                    if upstream_name not in earlier:
                        raise ValueError(
                            f"stage {stage.name!r} upstream {upstream_name!r} "
                            f"must name an earlier stage (have "
                            f"{sorted(earlier) or ['<source only>']})"
                        )
            upstreams[stage.name] = resolved
            earlier.add(stage.name)
        object.__setattr__(self, "_upstreams", upstreams)
        # Every stage except the last must feed someone, or its emissions
        # would pile into an egress nobody drains; the last stage is the
        # topology's single sink (its output is the end-to-end result).
        consumed = {name for edges in upstreams.values() for name in edges}
        for stage in self.stages[:-1]:
            if stage.name not in consumed:
                raise ValueError(
                    f"stage {stage.name!r} has no downstream consumer "
                    f"(only the final stage may be a sink)"
                )
        if self.stages[-1].name in consumed:
            raise ValueError(
                f"final stage {self.stages[-1].name!r} must be the sink, "
                f"but another stage consumes it"
            )

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def upstreams_of(self, name: str) -> Tuple[str, ...]:
        """The resolved upstream edge origins of ``name`` (source included)."""
        return self._upstreams[name]

    def consumers_of(self, name: str) -> List[str]:
        """The stages fed by ``name``, in stage-list order."""
        return [
            stage.name
            for stage in self.stages
            if name in self._upstreams[stage.name]
        ]

    @property
    def is_chain(self) -> bool:
        """True when every stage has exactly the classic linear wiring."""
        return all(
            self._upstreams[stage.name]
            == ((SOURCE_ORIGIN,) if index == 0 else (self.stages[index - 1].name,))
            for index, stage in enumerate(self.stages)
        )


@dataclass
class RuntimeResult:
    """Measured outcome of one stage (or of a whole single-stage run)."""

    label: str
    metrics: MetricsCollector
    latency: LatencyHistogram
    tuples_offered: int = 0
    tuples_processed: int = 0
    tuples_shed: float = 0.0
    wall_seconds: float = 0.0
    migrations: List[LiveMigrationReport] = field(default_factory=list)
    final_reports: Dict[int, FinalReport] = field(default_factory=dict)
    final_state: Dict[Key, List[Any]] = field(default_factory=dict)
    shed_by_task: Dict[int, float] = field(default_factory=dict)
    #: Per-interval latency histogram deltas (merged across the stage's
    #: workers); they sum to :attr:`latency` and give Fig. 13(b)-style
    #: latency-over-time from measured buckets.
    interval_latency: Dict[int, LatencyHistogram] = field(default_factory=dict)
    #: End-to-end (source-offer to completion) histogram; populated on the
    #: final stage of a topology, empty elsewhere.
    e2e_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: Pacing installed by the adaptive calibration (``None`` = not calibrated).
    calibrated_service_time_us: Optional[float] = None
    #: Protocol-sanitizer report of the run (``None`` = sanitizer off); the
    #: report is run-global, so every stage of one topology shares it.
    sanitizer: Optional[Dict[str, Any]] = None
    #: Resilience accounting of this stage (``None`` = subsystem off):
    #: ``{"incidents": [...], "scale_events": [...], "checkpoints": {...}}``.
    resilience: Optional[Dict[str, Any]] = None
    #: Number of upstream edges feeding this stage (source included); ≥ 2
    #: marks a fan-in consumer whose intervals close on the multi-origin
    #: mark barrier.
    upstreams: int = 0
    #: Cumulative split-key routing statistics (``None`` unless the stage's
    #: partitioner splits keys — see :meth:`StreamRouter.snapshot_split_stats`).
    split_stats: Optional[Dict[str, float]] = None

    @property
    def tuples_per_second(self) -> float:
        return self.tuples_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def pause_seconds_total(self) -> float:
        return sum(report.pause_seconds for report in self.migrations)

    @property
    def moved_keys_total(self) -> int:
        return sum(report.moved_keys for report in self.migrations)

    def summary(self) -> Dict[str, float]:
        """Headline numbers (one bench table row)."""
        row: Dict[str, float] = {
            "tuples": float(self.tuples_processed),
            "wall_seconds": self.wall_seconds,
            "tuples_per_second": self.tuples_per_second,
        }
        row.update(self.summary_latency())
        row.update(
            {
                "rebalances": float(len(self.migrations)),
                "moved_keys": float(self.moved_keys_total),
                "pause_seconds": self.pause_seconds_total,
                "shed_tuples": float(self.tuples_shed),
            }
        )
        return row

    def summary_latency(self) -> Dict[str, float]:
        summary = self.latency.summary_ms()
        summary.pop("samples", None)
        summary.pop("latency_max_ms", None)
        return summary


@dataclass
class TopologyResult:
    """Measured outcome of one topology run: one RuntimeResult per stage."""

    label: str
    stages: Dict[str, RuntimeResult]
    wall_seconds: float = 0.0
    tuples_offered: int = 0
    #: Protocol-sanitizer report (``None`` = sanitizer off).
    sanitizer: Optional[Dict[str, Any]] = None

    @property
    def stage_names(self) -> List[str]:
        return list(self.stages)

    @property
    def final(self) -> RuntimeResult:
        """The last stage — its processed count is the chain's output."""
        return self.stages[next(reversed(self.stages))]

    @property
    def first(self) -> RuntimeResult:
        return self.stages[next(iter(self.stages))]

    @property
    def e2e_latency(self) -> LatencyHistogram:
        return self.final.e2e_latency

    @property
    def migrations(self) -> List[LiveMigrationReport]:
        return [report for stage in self.stages.values() for report in stage.migrations]

    @property
    def tuples_processed(self) -> int:
        """Tuples completed by the final stage (end-to-end output)."""
        return self.final.tuples_processed

    @property
    def resilience(self) -> Optional[Dict[str, Any]]:
        """Merged resilience accounting across stages (``None`` = off)."""
        merged: Dict[str, Any] = {
            "incidents": [],
            "scale_events": [],
            "checkpoints": {"count": 0.0, "bytes_written": 0.0, "write_seconds": 0.0},
        }
        enabled = False
        for stage in self.stages.values():
            data = stage.resilience
            if data is None:
                continue
            enabled = True
            merged["incidents"].extend(data.get("incidents", []))
            merged["scale_events"].extend(data.get("scale_events", []))
            for key, value in data.get("checkpoints", {}).items():
                merged["checkpoints"][key] = (
                    merged["checkpoints"].get(key, 0.0) + value
                )
        return merged if enabled else None

    @property
    def tuples_shed(self) -> float:
        return sum(stage.tuples_shed for stage in self.stages.values())

    @property
    def tuples_per_second(self) -> float:
        return self.tuples_processed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """Chain-level headline row (same keys as a stage summary).

        Latency percentiles come from the final stage's measured end-to-end
        histogram (source offer → completion), so they include every queue
        and every stage of the chain.
        """
        e2e = self.e2e_latency.summary_ms()
        return {
            "tuples": float(self.tuples_processed),
            "wall_seconds": self.wall_seconds,
            "tuples_per_second": self.tuples_per_second,
            "latency_p50_ms": e2e["latency_p50_ms"],
            "latency_p99_ms": e2e["latency_p99_ms"],
            "latency_mean_ms": e2e["latency_mean_ms"],
            "rebalances": float(sum(len(s.migrations) for s in self.stages.values())),
            "moved_keys": float(sum(s.moved_keys_total for s in self.stages.values())),
            "pause_seconds": sum(s.pause_seconds_total for s in self.stages.values()),
            "shed_tuples": float(self.tuples_shed),
        }


# -- coordination plumbing ---------------------------------------------------------


class _Aborted(Exception):
    """Raised inside stage threads when another stage already failed."""


class _AbortFlag:
    """First-error latch shared by every stage thread of one run."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.error: Optional[str] = None

    def trip(self, stage: str, exc: BaseException) -> None:
        with self._lock:
            if self.error is None:
                self.error = f"stage {stage!r}: {exc}"
        self._event.set()

    def check(self) -> None:
        if self._event.is_set():
            raise _Aborted()

    @property
    def tripped(self) -> bool:
        return self._event.is_set()


class _AbortableQueue:
    """A put-side queue proxy whose blocking waits stay interruptible.

    ``checker`` is called between short waits; it raises (worker crashed,
    sibling stage failed, run wedged) to unwind the caller instead of
    blocking forever on a queue nobody will ever drain again.
    """

    def __init__(self, queue: Any, checker: Callable[[], None]) -> None:
        self._queue = queue
        self._checker = checker

    def replace(self, queue: Any) -> None:
        """Swap the inner queue in place (worker respawned on a fresh one).

        A put blocked on the dead worker's full queue re-reads ``_queue``
        every retry, so the swap redirects it mid-wait — the wrapping
        logged/sanitized chain and every list holding this proxy stay valid.
        """
        self._queue = queue

    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        if timeout is not None:
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise queue_module.Full
                try:
                    return self._queue.put(
                        item, timeout=min(remaining, _POLL_SECONDS)
                    )
                except queue_module.Full:
                    self._checker()
            # unreachable
        while True:
            try:
                return self._queue.put(item, timeout=_POLL_SECONDS)
            except queue_module.Full:
                self._checker()


class _Mailbox:
    """Demultiplexes one stage's outbound queue by message type.

    Replies from workers (interval reports, state shipments, install acks,
    final reports) interleave arbitrarily; consumers ask for a specific type
    and everything else is stashed for later.  ``checker`` (when given) is
    polled during blocking collects so a sibling-stage failure interrupts
    the wait.
    """

    def __init__(
        self,
        out_queue: Any,
        timeout_seconds: float,
        checker: Optional[Callable[[], None]] = None,
    ) -> None:
        self._queue = out_queue
        self._timeout = timeout_seconds
        self._checker = checker
        self._pending: List[Any] = []

    def _check(self, message: Any) -> Any:
        if isinstance(message, WorkerError):
            raise RuntimeError(
                f"worker {message.worker_id} crashed:\n{message.message}"
            )
        return message

    def _take_pending(self, message_type: Type, limit: Optional[int]) -> List[Any]:
        matched: List[Any] = []
        remaining: List[Any] = []
        for message in self._pending:
            if isinstance(message, message_type) and (
                limit is None or len(matched) < limit
            ):
                matched.append(message)
            else:
                remaining.append(message)
        self._pending = remaining
        return matched

    def collect(self, message_type: Type, expected: int) -> List[Any]:
        """Block until ``expected`` messages of ``message_type`` arrived."""
        matched = self._take_pending(message_type, expected)
        deadline = time.monotonic() + self._timeout
        while len(matched) < expected:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise RuntimeError(
                    f"timed out waiting for {expected} {message_type.__name__} "
                    f"replies (got {len(matched)})"
                )
            if self._checker is not None:
                # The checker may pump the queue into the pending stash
                # (check_errors), so re-examine it every pass.
                self._checker()
                matched.extend(
                    self._take_pending(message_type, expected - len(matched))
                )
                if len(matched) >= expected:
                    break
            try:
                message = self._check(
                    self._queue.get(timeout=min(timeout, _POLL_SECONDS))
                )
            except queue_module.Empty:
                continue
            if isinstance(message, message_type):
                matched.append(message)
            else:
                self._pending.append(message)
        return matched

    def drain(self, message_type: Type) -> List[Any]:
        """Every already-available message of ``message_type`` (non-blocking)."""
        self.check_errors()
        return self._take_pending(message_type, None)

    def check_errors(self) -> None:
        """Pump the queue without blocking; raise if a worker crashed."""
        while True:
            try:
                message = self._check(self._queue.get_nowait())
            except queue_module.Empty:
                break
            self._pending.append(message)


class MarkBarrier:
    """Fan-in interval barrier: per-origin producer marks gate each close.

    One consumer stage may be fed by several upstream *origins* (the source
    process and/or producer stages).  The barrier tracks, independently per
    origin, the producer-count timeline of the PR 7 resize machinery —
    ``(from_interval, count)`` entries appended when an upstream stage
    resizes — plus the per-``(origin, producer)`` mark floors that dedup
    post-recovery replays.  :meth:`observe_mark` returns ``True`` exactly
    when its interval became closable: **every** origin's expected producer
    count for that interval has marked it.

    Because each producer marks its intervals in increasing order on a FIFO
    edge, interval ``k+1`` can only complete after every producer already
    marked ``k`` — so closable intervals emerge in order even across
    origins, without the barrier having to re-order anything.

    The class is deliberately free of queue/process machinery so protocol
    tests can drive arbitrary mark/done/resize interleavings directly.
    """

    def __init__(self, producers: Mapping[str, int]) -> None:
        if not producers:
            raise ValueError("a mark barrier needs at least one upstream origin")
        for origin, count in producers.items():
            if count < 1:
                raise ValueError(
                    f"origin {origin!r} needs a positive producer count, "
                    f"got {count}"
                )
        self._lock = threading.Lock()
        self._counts: Dict[str, List[Tuple[int, int]]] = {
            origin: [(0, int(count))] for origin, count in producers.items()
        }
        self._expected_done = sum(int(count) for count in producers.values())
        self._done = 0
        #: Last accepted mark interval per (origin, producer): replays
        #: re-emit marks the consumer already counted, and a non-advancing
        #: mark is a duplicate.
        self._mark_floor: Dict[Tuple[str, int], int] = {}
        #: Marks arrived per open interval, split by origin.
        self._marks: Dict[int, Dict[str, int]] = {}

    @property
    def origins(self) -> Tuple[str, ...]:
        return tuple(self._counts)

    @property
    def finished(self) -> bool:
        """True once every expected producer sent its end-of-stream."""
        with self._lock:
            return self._done >= self._expected_done

    def expected_marks(self, origin: str, interval: int) -> int:
        """``origin``'s producer count in effect for ``interval``'s marks."""
        with self._lock:
            return self._expected_locked(origin, interval)

    def _expected_locked(self, origin: str, interval: int) -> int:
        timeline = self._counts[origin]
        expected = timeline[0][1]
        for start, count in timeline:
            if interval >= start:
                expected = count
        return expected

    def observe_mark(
        self, origin: str, producer: int, interval: int
    ) -> Tuple[bool, bool]:
        """Count one producer mark.

        Returns ``(accepted, closable)``: ``accepted`` is False for a
        duplicate (a replayed mark at or below the edge's floor), and
        ``closable`` is True exactly when this mark completed ``interval``
        across every origin.
        """
        with self._lock:
            if origin not in self._counts:
                raise KeyError(
                    f"mark from unknown upstream origin {origin!r} "
                    f"(expected one of {sorted(self._counts)})"
                )
            edge = (origin, producer)
            floor = self._mark_floor.get(edge)
            if floor is not None and interval <= floor:
                return False, False
            self._mark_floor[edge] = interval
            arrived = self._marks.setdefault(interval, {})
            arrived[origin] = arrived.get(origin, 0) + 1
            for other, timeline in self._counts.items():
                if arrived.get(other, 0) < self._expected_locked(other, interval):
                    return True, False
            del self._marks[interval]
            return True, True

    def observe_done(self, origin: str) -> None:
        """Count one producer's end-of-stream."""
        with self._lock:
            if origin not in self._counts:
                raise KeyError(
                    f"end-of-stream from unknown upstream origin {origin!r} "
                    f"(expected one of {sorted(self._counts)})"
                )
            self._done += 1

    def resize(
        self, origin: str, from_interval: int, count: int, done_delta: int
    ) -> None:
        """An upstream origin resized: new producer count from an interval on.

        Appends to ``origin``'s timeline and adjusts the expected
        end-of-stream count (scale-out adds producers; scale-in's drained
        workers still send their own done, so shrink passes zero).
        """
        with self._lock:
            if origin not in self._counts:
                raise KeyError(
                    f"resize of unknown upstream origin {origin!r} "
                    f"(expected one of {sorted(self._counts)})"
                )
            self._counts[origin].append((int(from_interval), int(count)))
            self._expected_done += int(done_delta)


class _StageLoop(threading.Thread):
    """The router thread of one stage: ingress → route → workers.

    Consumes the stage's shared ingress queue (fed by the source and/or by
    every upstream stage's workers), dispatches batches through the stage's
    :class:`StreamRouter`, closes intervals when every upstream origin's
    producers have marked them (planning + live migration via the stage's
    :class:`RuntimeController`), and finally collects the workers' reports.
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
        sanitizer: Optional[StageSanitizer] = None,
        supervisor: Optional[StageSupervisor] = None,
        worker_factory: Optional[Callable[[int, Any, float], Any]] = None,
        queue_factory: Optional[Callable[[], Any]] = None,
        initial_service_us: float = 0.0,
        kill: Optional[KillDirective] = None,
        scale: Optional[ScaleDirective] = None,
    ) -> None:
        super().__init__(name=f"repro-stage-{spec.name}", daemon=True)
        self.spec = spec
        self.config = config
        self.ingress = ingress
        self.raw_worker_queues = list(worker_queues)
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
            out_queue, config.join_timeout_seconds, checker=self._checkpoint
        )
        #: The innermost abort-aware proxies, by task — recovery swaps a
        #: fresh queue into the dead worker's slot through these.
        self._abortable_queues: List[_AbortableQueue] = [
            _AbortableQueue(queue, self._checkpoint) for queue in worker_queues
        ]
        guarded: List[Any] = list(self._abortable_queues)
        self.supervisor = supervisor
        if supervisor is not None:
            # Record every successful coordinator→worker put; the retention
            # log is what recovery replays after a checkpoint restore.
            guarded = [
                LoggedQueue(queue, supervisor.log, task)
                for task, queue in enumerate(guarded)
            ]
        self.sanitizer = sanitizer
        if sanitizer is not None:
            # Every coordinator→worker send funnels through the monitor.
            guarded = [
                SanitizedQueue(queue, task, sanitizer)
                for task, queue in enumerate(guarded)
            ]
        self.router = StreamRouter(
            spec.partitioner,
            spec.logic,
            guarded,
            batch_size=config.batch_size,
            shed_timeout_seconds=config.shed_timeout_seconds,
        )
        self.controller = RuntimeController(
            spec.partitioner, self.router, guarded, self.mailbox
        )
        self.guarded_queues = guarded
        if sanitizer is not None:
            sanitizer.wrap_router(self.router)

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
        self._kill = kill
        self._killed = False
        self._scale = scale
        self._scale_done = False
        self.scale_events: List[ScaleEvent] = []
        #: Keys this stage ever routed (maintained only when a scale
        #: directive is armed): the placement diff of a resize needs them.
        self.seen_keys: set = set()
        self._recovering = False
        #: Tasks currently draining through an elastic scale-in (their
        #: process exit is expected, not a crash).
        self._detaching: set = set()
        self._drained_finals: List[FinalReport] = []
        #: Tasks whose snapshot of an in-progress checkpoint round has not
        #: arrived yet (None = no round in progress).
        self._ckpt_awaiting: Optional[set] = None
        #: Dedup floors for post-recovery replay: last producer_seq accepted
        #: per (origin, producer) edge.  Mark floors and the per-origin
        #: producer-count timelines live in the barrier.
        self._last_seq: Dict[Tuple[str, int], int] = {}
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

    def _checkpoint(self) -> None:
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
                if self.supervisor is None:
                    raise RuntimeError(
                        f"worker process {process.name} died unexpectedly "
                        f"(exit code {process.exitcode})"
                    )
                self._recover_worker(task, process)

    def _recover_worker(self, task: int, process: Any) -> None:
        """Heal a dead worker through the supervisor (respawn/restore/replay).

        ``_recovering`` suppresses the dead-worker scan while the recovery
        itself blocks on queues (its collects re-enter :meth:`_checkpoint`),
        and the supervisor's failure modes (e.g. death during a live
        migration) propagate as ordinary stage errors.
        """
        self._recovering = True
        try:
            self.supervisor.recover(self, task, process)
        finally:
            self._recovering = False

    def _pump(self) -> None:
        """Between micro-batches: advance a migration hand-off, spot crashes."""
        self.controller.poll()
        self.mailbox.check_errors()

    def _next_ingress(self) -> Any:
        idle_since = time.monotonic()
        while True:
            self._checkpoint()
            source = self.source_process
            if (
                source is not None
                and not source.is_alive()
                and time.monotonic() - idle_since > self.config.join_timeout_seconds
            ):
                # The source is gone and its remaining messages would have
                # drained long ago — its end-of-stream mark was lost (e.g. a
                # queue feeder pickling failure swallowed it).  Fail loudly
                # instead of polling forever.
                raise RuntimeError(
                    "source process exited but its end-of-stream mark never "
                    "arrived (message lost in the source queue?)"
                )
            try:
                return self.ingress.get(timeout=_POLL_SECONDS)
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

    def _loop(self) -> None:
        config = self.config
        self.router.begin_interval(0)
        self._interval_started = time.monotonic()

        while not self._barrier.finished:
            message = self._next_ingress()
            if isinstance(message, EmittedBatch):
                if (
                    self._kill is not None
                    and not self._killed
                    and message.interval >= self._kill.interval
                ):
                    self._fire_kill()
                producer = message.producer_id
                if producer >= 0 and message.producer_seq >= 0:
                    # Post-recovery replay dedup: a replayed batch carries
                    # the same (origin, producer, seq) as the original, so
                    # anything at or below the accepted floor was already
                    # dispatched; re-emissions of batches the dead process's
                    # queue feeder lost arrive *above* the floor and pass.
                    edge = (self._origin_of(message), producer)
                    if message.producer_seq <= self._last_seq.get(edge, -1):
                        continue
                    self._last_seq[edge] = message.producer_seq
                if self.sanitizer is not None:
                    self.sanitizer.on_ingress_batch(
                        self._origin_of(message), len(message.keys)
                    )
                self.router.dispatch(
                    message.keys,
                    message.values,
                    pump=self._pump,
                    interval=message.interval,
                    origin_at=message.origin_at,
                )
            elif isinstance(message, UpstreamMark):
                origin = self._origin_of(message)
                accepted, closable = self._barrier.observe_mark(
                    origin, message.producer_id, message.interval
                )
                if accepted and self.sanitizer is not None:
                    self.sanitizer.on_upstream_mark(
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
        if self.sanitizer is not None:
            self.sanitizer.on_close(interval)
        # Finish any hand-off BEFORE the markers: tuples released by resume()
        # belong to this interval and must precede its EndInterval in the
        # FIFO queues to be counted in it.
        self.controller.finish_pending()
        for guarded_queue in self.guarded_queues:
            guarded_queue.put(EndInterval(interval=interval))
        if self.config.calibrate_pacing and interval == 0:
            self._calibrate()
        if self.supervisor is not None and self.supervisor.checkpoint_due(interval):
            self._take_checkpoint(interval)
        # The closing interval's own accounting bucket: early batches of the
        # next interval (fast upstream producers) are already parked in
        # their own bucket and do not pollute this one.
        account = self.router.pop_interval(interval)
        if self._scale is not None:
            # The placement diff of a pending resize needs every key this
            # stage ever routed.
            self.seen_keys.update(account.freqs.keys())
        # Split-key bookkeeping is per interval inside the partitioner and is
        # reset by its on_interval_end — fold it into the lifetime totals now.
        self.router.snapshot_split_stats()
        migration = self.controller.end_interval(
            self._interval_stats(interval, account.freqs)
        )
        if (
            self._scale is not None
            and not self._scale_done
            and interval == self._scale.interval
        ):
            self._scale_done = True
            self.scale_events.append(execute_scale(self, self._scale))
        now = time.monotonic()
        # The account's dense per-task arrays convert to the report's
        # ``{task: value}`` dict shape only here, at interval close.
        self.interval_rows.append(
            {
                "interval": interval,
                "offered_tuples": float(account.offered_tuples_by_task.sum()),
                "offered_cost": account.offered_cost,
                "shed": dict(account.shed),
                "elapsed": now - self._interval_started,
                "migration": migration,
            }
        )
        self._interval_started = now
        self.current_interval = interval + 1
        self.router.begin_interval(interval + 1)

    # -- resilience / elasticity ---------------------------------------------------

    def _fire_kill(self) -> None:
        """Inject the configured fault: SIGKILL the directive's worker.

        Delivered as a :class:`CrashSelf` command through the victim's FIFO
        inbound queue — behind the batches already dispatched to it — sent
        through the bare abort-aware proxy so it is neither retained for
        replay nor counted by the sanitizer.
        """
        self._killed = True
        task = self._kill.task
        if task >= len(self.workers):
            raise ValueError(
                f"kill directive {self._kill.spec()!r} names task {task} but "
                f"stage {self.spec.name!r} has {len(self.workers)} workers"
            )
        self._abortable_queues[task].put(CrashSelf())

    def _take_checkpoint(self, interval: int) -> None:
        """Snapshot every task's ``KeyedState`` at this interval boundary.

        The snapshot command rides the FIFO queues right behind the
        interval's ``EndInterval`` marker, so each shipped state covers
        exactly the tuples up to the boundary (watermark = ``interval``).
        The log cut is taken *before* the command is sent: everything the
        checkpoint covers — and nothing it does not — is truncated once the
        task's snapshot is durable.
        """
        supervisor = self.supervisor
        tasks = range(len(self.workers))
        cuts = {task: supervisor.log.cut(task) for task in tasks}
        self._ckpt_awaiting = set(tasks)
        with supervisor.log.suspended():
            for guarded_queue in self.guarded_queues:
                guarded_queue.put(ExtractKeys(keys=None, copy=True))
            while self._ckpt_awaiting:
                shipment = self.mailbox.collect(StateShipment, 1)[0]
                task = shipment.worker_id
                if task not in self._ckpt_awaiting:
                    # Duplicate from a mid-checkpoint recovery (the original
                    # arrived before the re-issued command's copy).
                    continue
                supervisor.store.save(
                    task, interval, shipment.entries, shipment.counters
                )
                supervisor.log.truncate(task, cuts[task])
                self._ckpt_awaiting.discard(task)
        self._ckpt_awaiting = None

    def checkpoint_pending(self, task: int) -> bool:
        """True when a checkpoint round still awaits ``task``'s snapshot."""
        return self._ckpt_awaiting is not None and task in self._ckpt_awaiting

    def spawn_worker(self, task: int) -> Any:
        """Start a replacement process for ``task`` on a *fresh* queue.

        The dead worker's inbound queue cannot be reused: a process parked
        in ``Queue.get`` holds the queue's reader lock, and a SIGKILL never
        releases it — a replacement reading the same queue would deadlock.
        Anything buffered in the abandoned queue is superseded by the
        retention-log replay, so the swap loses nothing; the fresh queue is
        swapped *into* the existing guarded chain, so a dispatch currently
        blocked on the dead worker's full queue is redirected mid-wait.
        """
        queue = self.queue_factory()
        self.raw_worker_queues[task] = queue
        self._abortable_queues[task].replace(queue)
        process = self.worker_factory(task, queue, self._service_us)
        process.start()
        self.workers[task] = process
        self.spawned_processes.append(process)
        return process

    def attach_worker(self, task: int) -> None:
        """Add a brand-new worker (elastic scale-out): queue, process, wraps."""
        queue = self.queue_factory()
        process = self.worker_factory(task, queue, self._service_us)
        process.start()
        self.raw_worker_queues.append(queue)
        self.workers.append(process)
        self.spawned_processes.append(process)
        guarded: Any = _AbortableQueue(queue, self._checkpoint)
        self._abortable_queues.append(guarded)
        if self.supervisor is not None:
            self.supervisor.log.ensure_task(task)
            guarded = LoggedQueue(guarded, self.supervisor.log, task)
        if self.sanitizer is not None:
            guarded = SanitizedQueue(guarded, task, self.sanitizer)
        self.guarded_queues.append(guarded)

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
            if self.supervisor is not None:
                for task in doomed:
                    self.supervisor.log.drop_task(task)
            del self.workers[new:old]
            del self.raw_worker_queues[new:old]
            del self.guarded_queues[new:old]
            del self._abortable_queues[new:old]
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
        from repro.runtime.messages import SetServiceTime

        reports = self.mailbox.collect(IntervalReport, self.spec.parallelism)
        self.interval_reports.extend(reports)
        cost = sum(report.cost for report in reports)
        busy = sum(report.busy_seconds for report in reports)
        service_us = calibrated_service_time_us(
            cost,
            busy / self.spec.parallelism,
            self.spec.parallelism,
            self.config.calibration_headroom,
        )
        if service_us > 0:
            for guarded_queue in self.guarded_queues:
                guarded_queue.put(SetServiceTime(service_time_us=service_us))
            self.calibrated_us = service_us
            self._service_us = service_us

    def _interval_stats(
        self, interval: int, freqs: Mapping[Key, float]
    ) -> IntervalStats:
        stats = IntervalStats(interval)
        tuple_cost = self.spec.logic.tuple_cost
        state_delta = self.spec.logic.state_delta
        stats.record_bulk(
            (key, float(count), count * tuple_cost(key), count * state_delta(key))
            for key, count in freqs.items()
            if count > 0
        )
        return stats

    # -- aggregation ---------------------------------------------------------------

    def aggregate(self, wall_seconds: float) -> RuntimeResult:
        """Fold the loop's rows and the workers' reports into a RuntimeResult."""
        # Keep-last per (interval, worker): a recovery replays EndInterval
        # markers, so a respawned worker re-sends interval reports the dead
        # one already delivered — the re-send carries the healed accounting.
        deduped: Dict[Tuple[int, int], IntervalReport] = {}
        for report in self.interval_reports + self.mailbox.drain(IntervalReport):
            deduped[(report.interval, report.worker_id)] = report
        per_interval: Dict[int, List[IntervalReport]] = {}
        for report in deduped.values():
            per_interval.setdefault(report.interval, []).append(report)

        latency = LatencyHistogram()
        e2e = LatencyHistogram()
        final_reports: Dict[int, FinalReport] = {}
        final_state: Dict[Key, List[Any]] = {}
        processed_total = 0
        tail = LatencyHistogram()
        for report in self.finals:
            final_reports[report.worker_id] = report
            latency.merge(LatencyHistogram.from_dict(report.histogram))
            if report.e2e_histogram:
                e2e.merge(LatencyHistogram.from_dict(report.e2e_histogram))
            if report.tail_histogram:
                tail.merge(LatencyHistogram.from_dict(report.tail_histogram))
            processed_total += report.processed
            final_state.update(report.final_state)

        interval_latency: Dict[int, LatencyHistogram] = {}
        for interval, reports in per_interval.items():
            merged = LatencyHistogram()
            for report in reports:
                if report.histogram:
                    merged.merge(LatencyHistogram.from_dict(report.histogram))
            interval_latency[interval] = merged
        # Latency recorded after the last marker (e.g. a final migration's
        # released tuples) is folded into the last interval so the deltas
        # still sum to the lifetime histogram.
        if tail.total and self.interval_rows:
            last = self.interval_rows[-1]["interval"]
            interval_latency.setdefault(last, LatencyHistogram()).merge(tail)

        metrics = MetricsCollector(label=self.spec.name)
        for row in self.interval_rows:
            interval = row["interval"]
            reports = per_interval.get(interval, [])
            processed = sum(report.processed for report in reports)
            latency_sum_us = sum(report.latency_us_sum for report in reports)
            elapsed = row["elapsed"]
            migration: Optional[LiveMigrationReport] = row["migration"]
            offered_cost: Dict[int, float] = row["offered_cost"]
            shed_map: Dict[int, float] = row["shed"]
            histogram = interval_latency.get(interval)
            metrics.record(
                IntervalMetrics(
                    interval=interval,
                    offered_tuples=row["offered_tuples"],
                    processed_tuples=float(processed),
                    shed_tuples=sum(shed_map.values()),
                    throughput=float(processed) / elapsed if elapsed > 0 else 0.0,
                    latency_ms=(
                        latency_sum_us / processed / 1000.0 if processed else 0.0
                    ),
                    latency_p50_ms=(
                        histogram.p50_us / 1000.0 if histogram and histogram.total else 0.0
                    ),
                    latency_p99_ms=(
                        histogram.p99_us / 1000.0 if histogram and histogram.total else 0.0
                    ),
                    skewness=max_skewness(offered_cost),
                    max_theta=max_balance_indicator(offered_cost),
                    migrated_state=migration.moved_state if migration else 0.0,
                    migration_fraction=(
                        migration.migration_fraction if migration else 0.0
                    ),
                    migration_seconds=migration.pause_seconds if migration else 0.0,
                    generation_time=migration.generation_time if migration else 0.0,
                    routing_table_size=migration.table_size if migration else 0,
                    rebalanced=migration is not None,
                    num_tasks=self.spec.parallelism,
                    per_task_load=offered_cost,
                    per_task_shed=shed_map,
                )
            )

        offered_total = int(
            sum(row["offered_tuples"] for row in self.interval_rows)
        )
        if self.sanitizer is not None:
            self.sanitizer.finalize(
                offered=float(offered_total),
                processed=float(processed_total),
                shed=self.router.shed_ledger.total,
            )
        resilience: Optional[Dict[str, Any]] = None
        if self.supervisor is not None or self.scale_events:
            resilience = {
                "incidents": (
                    [incident.to_dict() for incident in self.supervisor.incidents]
                    if self.supervisor is not None
                    else []
                ),
                "scale_events": [event.to_dict() for event in self.scale_events],
                "checkpoints": (
                    self.supervisor.store.stats()
                    if self.supervisor is not None
                    else {"count": 0.0, "bytes_written": 0.0, "write_seconds": 0.0}
                ),
            }
        return RuntimeResult(
            label=self.spec.name,
            metrics=metrics,
            latency=latency,
            tuples_offered=offered_total,
            tuples_processed=processed_total,
            tuples_shed=self.router.shed_ledger.total,
            wall_seconds=wall_seconds,
            migrations=list(self.controller.migrations),
            final_reports=final_reports,
            final_state=final_state,
            shed_by_task=self.router.shed_ledger.by_task(),
            interval_latency=interval_latency,
            e2e_latency=e2e,
            calibrated_service_time_us=self.calibrated_us,
            resilience=resilience,
            upstreams=len(self.upstream_producers),
            split_stats=self.router.split_stats,
        )


class TopologyRuntime:
    """Spawns the source, every stage's workers, and runs the dataflow."""

    def __init__(
        self,
        spec: TopologySpec,
        config: Optional[RuntimeConfig] = None,
        *,
        label: str = "",
    ) -> None:
        self.spec = spec
        self.config = config if config is not None else RuntimeConfig()
        self.label = label or spec.name

    def _directives(
        self,
    ) -> Tuple[Optional[KillDirective], Optional[ScaleDirective]]:
        """Resolve the run's fault-injection and elasticity directives.

        Both kinds are validated against the topology's stage names before
        any process is spawned.
        """
        config = self.config
        kill: Optional[KillDirective] = None
        if config.kill_worker is not None:
            stage, task, interval = config.kill_worker
            kill = KillDirective(stage=stage, task=int(task), interval=int(interval))
        scale: Optional[ScaleDirective] = None
        if config.scale_at is not None:
            interval, stage, delta = config.scale_at
            scale = ScaleDirective(
                interval=int(interval), stage=stage, delta=int(delta)
            )
        names = set(self.spec.stage_names())
        if kill is not None and kill.stage not in names:
            raise ValueError(
                f"kill directive {kill.spec()!r} names unknown stage "
                f"{kill.stage!r} (topology has {sorted(names)})"
            )
        if scale is not None and scale.stage not in names:
            raise ValueError(
                f"scale directive {scale.spec()!r} names unknown stage "
                f"{scale.stage!r} (topology has {sorted(names)})"
            )
        return kill, scale

    def run(self, stream: TupleStream) -> TopologyResult:
        """Execute the stream through the chain; blocks until fully drained.

        ``stream`` is an iterable of per-interval ``(key, value)`` tuple
        lists; it is materialised and handed to the source process, which
        offers it closed-loop or at ``config.offered_rate`` tuples/second.
        """
        config = self.config
        interval_lists = [list(batch) for batch in stream]

        method = config.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        context = multiprocessing.get_context(method)
        abort = _AbortFlag()
        sanitizer_report = SanitizerReport() if config.sanitize else None

        stages = self.spec.stages
        kill, scale = self._directives()
        # One bounded ingress queue per stage: every upstream edge (source
        # and/or producer stages) funnels into the consumer's shared queue,
        # so backpressure — and chained starvation — propagates along every
        # edge of the DAG: a full consumer queue blocks each of its
        # producers' emit puts.
        ingresses: Dict[str, Any] = {
            stage.name: context.Queue(maxsize=max(2, config.queue_capacity))
            for stage in stages
        }
        source_fed = [
            stage.name
            for stage in stages
            if SOURCE_ORIGIN in self.spec.upstreams_of(stage.name)
        ]
        source_targets = [ingresses[name] for name in source_fed]

        source = context.Process(
            target=source_main,
            args=(
                interval_lists,
                source_targets,
                config.batch_size,
                config.offered_rate,
            ),
            daemon=True,
            name="repro-source",
        )

        initial_service_us = 0.0 if config.calibrate_pacing else config.service_time_us

        def queue_factory() -> Any:
            return context.Queue(maxsize=config.queue_capacity)

        parallelism_of = {stage.name: stage.parallelism for stage in stages}
        all_workers: List[Any] = []
        loops: List[_StageLoop] = []
        for index, stage in enumerate(stages):
            worker_queues = [queue_factory() for _ in range(stage.parallelism)]
            out_queue = context.Queue()
            consumers = self.spec.consumers_of(stage.name)
            egresses = [ingresses[name] for name in consumers] or None

            def worker_factory(
                worker_id: int,
                queue: Any,
                service_us: float,
                # Bind this iteration's stage wiring (the factory outlives
                # the loop: respawns and scale-outs call it later).
                _stage: StageSpec = stage,
                _out_queue: Any = out_queue,
                _egresses: Any = egresses,
            ) -> Any:
                return context.Process(
                    target=worker_main,
                    args=(
                        worker_id,
                        _stage.logic,
                        queue,
                        _out_queue,
                        service_us,
                        _egresses,
                        _stage.key_mapper,
                        None,
                        _stage.name,
                    ),
                    daemon=True,
                    name=f"repro-{_stage.name}-{worker_id}",
                )

            workers = [
                worker_factory(worker_id, worker_queues[worker_id], initial_service_us)
                for worker_id in range(stage.parallelism)
            ]
            all_workers.extend(workers)
            supervisor = None
            if config.checkpoint_dir is not None:
                supervisor = StageSupervisor(
                    stage.name,
                    CheckpointStore(config.checkpoint_dir, stage.name),
                    RetentionLog(stage.parallelism),
                    checkpoint_every=config.checkpoint_every,
                )
            upstream_names = self.spec.upstreams_of(stage.name)
            loops.append(
                _StageLoop(
                    stage,
                    config,
                    ingresses[stage.name],
                    worker_queues,
                    out_queue,
                    workers,
                    upstream_producers={
                        name: (
                            1 if name == SOURCE_ORIGIN else parallelism_of[name]
                        )
                        for name in upstream_names
                    },
                    abort=abort,
                    source_process=(
                        source if SOURCE_ORIGIN in upstream_names else None
                    ),
                    sanitizer=(
                        StageSanitizer(
                            stage.name,
                            sanitizer_report,
                            origins=upstream_names,
                        )
                        if sanitizer_report is not None
                        else None
                    ),
                    supervisor=supervisor,
                    worker_factory=worker_factory,
                    queue_factory=queue_factory,
                    initial_service_us=initial_service_us,
                    kill=kill if kill is not None and kill.stage == stage.name else None,
                    scale=(
                        scale
                        if scale is not None and scale.stage == stage.name
                        else None
                    ),
                )
            )
        # An elastic resize must update every *consuming* stage's producer
        # accounting (mark barriers, end-of-stream counting) for this edge.
        loops_by_name = {loop.spec.name: loop for loop in loops}
        for loop in loops:
            loop.downstreams = [
                loops_by_name[name]
                for name in self.spec.consumers_of(loop.spec.name)
            ]

        wall_seconds = 0.0
        try:
            for process in all_workers:
                process.start()
            source.start()
            # Stamp after the processes exist: spawn/fork overhead must not
            # deflate measured tuples/sec (trajectory runs compare commits).
            wall_start = time.monotonic()
            for loop in loops:
                loop.start()
            for loop in loops:
                loop.join()
            wall_seconds = time.monotonic() - wall_start
        finally:
            self._shutdown([source], force=abort.tripped)
            # Respawned and scaled-out workers included, not just the
            # initial groups.
            self._shutdown(
                [
                    process
                    for loop in loops
                    for process in loop.spawned_processes
                ],
                force=abort.tripped,
            )

        if abort.tripped:
            raise RuntimeError(
                f"topology {self.spec.name!r} aborted — {abort.error}"
            )

        stage_results = {
            loop.spec.name: loop.aggregate(wall_seconds) for loop in loops
        }
        # The sanitizer report is run-global; attach the final dict (after
        # every stage's conservation finalize) everywhere results travel.
        report_dict = (
            sanitizer_report.to_dict() if sanitizer_report is not None else None
        )
        if report_dict is not None:
            for result in stage_results.values():
                result.sanitizer = report_dict
        return TopologyResult(
            label=self.label,
            stages=stage_results,
            wall_seconds=wall_seconds,
            # With a source fan-out each source-fed stage sees a disjoint
            # share of the stream; the topology's offered count is their sum
            # (identical to stage 0's count in a chain).
            tuples_offered=sum(
                stage_results[name].tuples_offered for name in source_fed
            ),
            sanitizer=report_dict,
        )

    @staticmethod
    def _shutdown(processes: List[Any], *, force: bool = False) -> None:
        deadline = time.monotonic() + (0.5 if force else 10.0)
        for process in processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
