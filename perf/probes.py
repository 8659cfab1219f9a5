"""Per-layer probes of the traced run, their spans, and the CPU budget.

A probe replays the workload's *own* generated tuples (or snapshots) through
one layer's public functions in the driver process and times the calls, so a
number here is that layer alone — no queues, no other process, no pacing —
on the very input the end-to-end run measured.  Every probe records a span
(name, start, end, parent, workload) in the :class:`Tracer`; spans and counts
are written out by ``run.py`` when the run ends.

Spans inside the program itself are a later change: this file only brackets
calls *into* the layers.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import shutil
import statistics
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.statistics import IntervalStats
from repro.core.strategy import get_strategy
from repro.engine import KeyedState, OperatorSimulator, Task
from repro.operators import (
    MergeOperator,
    PartialWindowedAggregate,
    WindowedAggregate,
    WordCountOperator,
)
from repro.operators.tpch_q5 import DimensionJoin
from repro.runtime import LatencyHistogram, StreamRouter, TopologySpec
from repro.runtime.messages import TupleBatch
from repro.runtime.queues import abortable_get, abortable_put
from repro.runtime.resilience.checkpoint import CheckpointStore
from repro.runtime.source import source_main
from repro.workloads.tpch import ForeignKeyLookup

from perf.metrics import BATCH_SIZES, PLAN_STRATEGIES
from perf.workloads import (
    OUT_DIR,
    PlannerOutcome,
    build_strategy,
    cpu_seconds,
    run_planner,
)

__all__ = ["Tracer", "budget", "reference_run", "run_probes"]

Key = Any

#: Router/worker micro-batch of every runtime workload.
BATCH = 256

#: Snapshots the fluid-simulator probe replays (~1 s each at K = 100 000).
SIMULATOR_INTERVALS = 2

#: Tuples per emulated interval when an operator probe replays the prefix
#: (operators accumulate per-interval state; the runtime closes intervals).
PROBE_INTERVAL = 20_000


class Tracer:
    """In-memory span and count recorder of one traced run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self.counts: Counter = Counter()
        self._stack: List[str] = []

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
            }
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        self._stack.append(name)
        try:
            yield
        finally:
            self._stack.pop()
            self.record(name, start, time.perf_counter())

    def count(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def self_times(self) -> Dict[str, float]:
        """Per span name: total duration minus what its child spans cover."""
        totals: Counter = Counter()
        for span in self.spans:
            duration = span["end"] - span["start"]
            totals[span["name"]] += duration
            if span["parent"] is not None:
                totals[span["parent"]] -= duration
        return dict(totals)


class _Sink:
    """A free queue: makes the producer under test the only measured cost."""

    def __init__(self) -> None:
        self.items = 0

    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        self.items += 1


def _median_seconds(run: Callable[[], Any], repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _batches(keys: Sequence[Key], values: Sequence[Any], size: int):
    for start in range(0, len(keys), size):
        yield keys[start : start + size], values[start : start + size]


# -- core / baselines ------------------------------------------------------------------


def _probe_planners(
    tracer: Tracer,
    snapshots: Sequence[Dict[Key, float]],
    num_tasks: int,
    seed: int,
    tunables: Dict[str, Any],
    mixed: Optional[PlannerOutcome],
) -> Dict[str, float]:
    """``core.plan_ms`` & friends: the four controller variants on the same
    snapshots (``mixed`` is passed in when the workload already ran it)."""
    metrics: Dict[str, float] = {}
    for name in PLAN_STRATEGIES:
        if name == "mixed" and mixed is not None:
            outcome = mixed
        else:
            with tracer.span(f"core.plan.{name}"):
                outcome = run_planner(
                    name, snapshots, num_tasks, seed, tunables, span=tracer.record
                )
        plans = outcome.plan_s or outcome.idle_plan_s
        metrics[f"core.plan_ms.{name}"] = statistics.median(plans) * 1e3
        metrics[f"core.migration_frac.{name}"] = statistics.fmean(
            [r.migration_fraction for r in outcome.results] or [0.0]
        )
        metrics[f"core.table_size.{name}"] = statistics.fmean(
            [float(r.table_size) for r in outcome.results] or [0.0]
        )
        tracer.count(f"core.plans.{name}", len(outcome.results))
        if name == "mixed":
            metrics["core.theta_after.mixed"] = max(
                (r.max_theta for r in outcome.results), default=0.0
            )
            metrics["core.route_snapshot_ms"] = statistics.median(outcome.route_s) * 1e3
            metrics["core.stats_build_ms"] = statistics.median(outcome.stats_s) * 1e3
    return metrics


def _probe_baseline_planners(
    tracer: Tracer, snapshots: Sequence[Dict[Key, float]], num_tasks: int, seed: int
) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for name in ("readj", "dkg"):
        with tracer.span(f"baselines.plan.{name}"):
            outcome = run_planner(
                name, snapshots, num_tasks, seed, dict(theta_max=0.08, window=1)
            )
        plans = outcome.plan_s or outcome.idle_plan_s
        metrics[f"baselines.plan_ms.{name}"] = statistics.median(plans) * 1e3
    return metrics


def _warmed_mixed(
    snapshots: Sequence[Dict[Key, float]], num_tasks: int, seed: int, tunables: Dict[str, Any]
):
    """A ``mixed`` partitioner that already rebalanced (routing table filled),
    as a router's partitioner is after the first intervals of a run."""
    partitioner = build_strategy("mixed", num_tasks, seed, tunables)
    for interval, snapshot in enumerate(snapshots[:3]):
        partitioner.route_snapshot(snapshot)
        partitioner.on_interval_end(IntervalStats.from_frequencies(interval, snapshot))
    return partitioner


def _probe_assign(tracer: Tracer, partitioner, keys: Sequence[Key]) -> Dict[str, float]:
    values = keys  # only the slicing matters

    def one_pass() -> None:
        for chunk, _ in _batches(keys, values, BATCH):
            partitioner.assign_batch(chunk)

    def cold_pass() -> None:
        partitioner.invalidate_route_cache()
        one_pass()

    with tracer.span("core.assign_batch.cold"):
        cold = _median_seconds(cold_pass)
    with tracer.span("core.assign_batch.warm"):
        warm = _median_seconds(one_pass)
    tracer.count("core.assign_batch.keys", len(keys))
    return {
        "core.assign_batch_tps.cold": len(keys) / cold,
        "core.assign_batch_tps.warm": len(keys) / warm,
    }


def _probe_pkg(tracer: Tracer, keys: Sequence[Key], num_tasks: int, seed: int) -> Dict[str, float]:
    partitioner = get_strategy("pkg").build(num_tasks, seed=seed)
    sample = keys[:50_000]

    def one_pass() -> None:
        for chunk, _ in _batches(sample, sample, BATCH):
            partitioner.assign_batch(chunk)

    with tracer.span("baselines.pkg.assign_batch"):
        seconds = _median_seconds(one_pass)
    return {"baselines.pkg.assign_batch_tps": len(sample) / seconds}


# -- runtime: source, router, messages, queues -----------------------------------------


def _probe_source(tracer: Tracer, keys: Sequence[Key], values: Sequence[Any]) -> Dict[str, float]:
    interval = list(zip(keys, values))
    with tracer.span("runtime.source.offer"):
        seconds = _median_seconds(lambda: source_main([interval], _Sink(), BATCH))
    return {"runtime.source.offer_tps": len(keys) / seconds}


def _dispatch_pass(
    router: StreamRouter, keys: Sequence[Key], values: Sequence[Any], paused: Sequence[Key]
) -> None:
    """One full dispatch of the probe tuples as a fresh interval; ``paused``
    keys are held back and released as a live migration would."""
    router.pop_interval(0)
    router.begin_interval(0)
    if not paused:
        router.dispatch(keys, values)
        return
    router.pause(paused)
    try:
        router.dispatch(keys, values)
    finally:
        router.resume()


def _probe_router(
    tracer: Tracer, partitioner, keys: Sequence[Key], values: Sequence[Any]
) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    logic = WordCountOperator(emit_updates=False)
    hot = [key for key, _ in Counter(keys).most_common(10)]
    for label, batch_size, paused in (("b256", 256, []), ("b4096", 4096, []), ("paused", 256, hot)):
        router = StreamRouter(
            partitioner,
            logic,
            [_Sink() for _ in range(partitioner.num_tasks)],
            batch_size=batch_size,
        )
        one_pass = functools.partial(_dispatch_pass, router, keys, values, paused)
        one_pass()  # warm route memo: a coordinator's steady state
        with tracer.span(f"runtime.router.dispatch.{label}"):
            seconds = _median_seconds(one_pass)
        metrics[f"runtime.router.dispatch_tps.{label}"] = len(keys) / seconds
    return metrics


def _probe_messages(tracer: Tracer, keys: Sequence[Key], values: Sequence[Any]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for size in BATCH_SIZES:
        batches = [
            TupleBatch(interval=0, sent_at=1.0, keys=list(k), values=list(v), origin_at=1.0)
            for k, v in list(_batches(keys, values, size))[:200]
        ]
        with tracer.span(f"runtime.messages.pickle.b{size}"):
            started = time.perf_counter()
            blobs = [pickle.dumps(batch) for batch in batches]
            pickled = time.perf_counter() - started
        with tracer.span(f"runtime.messages.unpickle.b{size}"):
            started = time.perf_counter()
            for blob in blobs:
                pickle.loads(blob)
            unpickled = time.perf_counter() - started
        metrics[f"runtime.messages.pickle_us.b{size}"] = pickled / len(batches) * 1e6
        metrics[f"runtime.messages.unpickle_us.b{size}"] = unpickled / len(batches) * 1e6
        if size == BATCH:
            metrics["runtime.messages.bytes_per_tuple"] = sum(map(len, blobs)) / sum(
                len(batch) for batch in batches
            )
    return metrics


def _queue_consumer(queue: Any, done: Any, batches: int) -> None:
    for _ in range(batches):
        abortable_get(queue)
    abortable_put(done, batches)


def _queue_roundtrip(pool: Sequence[TupleBatch], rounds: int) -> Tuple[float, float]:
    """``rounds`` messages through a bounded ``mp.Queue`` into one child
    process; returns ``(wall seconds, CPU seconds of both processes)``."""
    context = multiprocessing.get_context("fork")
    queue = context.Queue(maxsize=8)
    done = context.Queue()
    child = context.Process(target=_queue_consumer, args=(queue, done, rounds), daemon=True)

    def child_died() -> bool:
        return not child.is_alive()

    cpu_before = cpu_seconds()
    child.start()
    try:
        started = time.perf_counter()
        for index in range(rounds):
            abortable_put(queue, pool[index % len(pool)], child_died)
        abortable_get(done, child_died)
        seconds = time.perf_counter() - started
    finally:
        child.join(timeout=10.0)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5.0)
        for each in (queue, done):
            each.close()
            each.join_thread()
    return seconds, cpu_seconds() - cpu_before


def _probe_queues(tracer: Tracer, keys: Sequence[Key], values: Sequence[Any]) -> Dict[str, float]:
    """Wall time gives the hand-off rate; the CPU-seconds of both processes
    around the same rounds give what one message costs the machine (what the
    budget needs: producer and consumer overlap, so wall time undercounts)."""
    metrics: Dict[str, float] = {}
    for size in BATCH_SIZES:
        rounds = 500_000 // size
        pool = [
            TupleBatch(interval=0, sent_at=1.0, keys=list(k), values=list(v), origin_at=1.0)
            for k, v in list(_batches(keys, values, size))[:40]
        ]
        with tracer.span(f"runtime.queues.roundtrip.b{size}"):
            seconds, cpu = _queue_roundtrip(pool, rounds)
        tuples = sum(len(pool[index % len(pool)]) for index in range(rounds))
        metrics[f"runtime.queues.roundtrip_tps.b{size}"] = tuples / seconds
        metrics[f"runtime.queues.cpu_us.b{size}"] = cpu / rounds * 1e6
    return metrics


# -- operators, engine -----------------------------------------------------------------


def _replay_operator(logic, keys: Sequence[Key], values: Sequence[Any]):
    """``Task.process_batch`` over the prefix in emulated intervals; returns
    ``(seconds, emitted keys, emitted values)``."""
    task = Task(0, logic)
    out_keys: List[Key] = []
    out_values: List[Any] = []
    started = time.perf_counter()
    for interval, start in enumerate(range(0, len(keys), PROBE_INTERVAL)):
        stop = start + PROBE_INTERVAL
        for chunk_keys, chunk_values in _batches(keys[start:stop], values[start:stop], BATCH):
            emitted_keys, emitted_values = task.process_batch(chunk_keys, chunk_values, interval)
            out_keys.extend(emitted_keys)
            out_values.extend(emitted_values)
        task.end_interval(interval)
    return time.perf_counter() - started, out_keys, out_values


def _probe_operators(tracer: Tracer, keys: Sequence[Key]) -> Dict[str, float]:
    keys = keys[:100_000]
    ones = [1.0] * len(keys)
    metrics: Dict[str, float] = {}
    partials: Tuple[List[Key], List[Any]] = ([], [])
    for name, logic, values in (
        ("wordcount", WordCountOperator(emit_updates=False), [None] * len(keys)),
        ("dimension_join", DimensionJoin(lookup=ForeignKeyLookup({}, 1000)), ones),
        ("windowed_aggregate", WindowedAggregate(), ones),
        ("partial_aggregate", PartialWindowedAggregate(source_tag="a"), ones),
    ):
        with tracer.span(f"operators.process_batch.{name}"):
            seconds, out_keys, out_values = _replay_operator(logic, keys, values)
        metrics[f"operators.process_batch_tps.{name}"] = len(keys) / seconds
        if name == "partial_aggregate":
            partials = (out_keys, out_values)
    with tracer.span("operators.process_batch.merge"):
        seconds, _, _ = _replay_operator(MergeOperator(), *partials)
    metrics["operators.process_batch_tps.merge"] = len(partials[0]) / seconds
    return metrics


def reference_run(
    topology: TopologySpec, stream: Sequence[List[Tuple[Key, Any]]]
) -> Tuple[float, int, Dict[Key, List[Any]]]:
    """The whole job on in-process tasks — one per stage, no queues.

    Follows the topology's edges the way the runtime does (the source and
    every producer round-robin their batches over their consumers; emitted
    keys pass through the stage's key mapper) and closes every interval on
    every task.  Returns ``(seconds, tuples completed by the final stage,
    final stage's per-key payloads)`` — the single-threaded baseline and the
    reference result of the output checks.
    """
    tasks = {stage.name: Task(0, stage.logic) for stage in topology}
    source_fed = [s.name for s in topology if "source" in topology.upstreams_of(s.name)]
    final = topology.stages[-1].name
    started = time.perf_counter()
    for interval, tuples in enumerate(stream):
        pending: Dict[str, List[Tuple[List[Key], List[Any]]]] = {s.name: [] for s in topology}
        keys = [key for key, _ in tuples]
        values = [value for _, value in tuples]
        for index, chunk in enumerate(_batches(keys, values, BATCH)):
            pending[source_fed[index % len(source_fed)]].append(chunk)
        for stage in topology:
            task = tasks[stage.name]
            consumers = topology.consumers_of(stage.name)
            emitted = 0
            for chunk_keys, chunk_values in pending[stage.name]:
                out_keys, out_values = task.process_batch(chunk_keys, chunk_values, interval)
                if consumers and out_keys:
                    if stage.key_mapper is not None:
                        out_keys = [stage.key_mapper(key) for key in out_keys]
                    pending[consumers[emitted % len(consumers)]].append((out_keys, out_values))
                    emitted += 1
            if task.has_open_interval:
                task.end_interval(interval)
    seconds = time.perf_counter() - started
    last = tasks[final]
    state = {key: last.state.payloads(key) for key in last.state.keys()}
    return seconds, last.metrics.tuples_processed, state


def _probe_state_and_checkpoints(tracer: Tracer, keys: Sequence[Key]) -> Dict[str, float]:
    task = Task(0, WordCountOperator(emit_updates=False))
    sample = keys[:50_000]
    for chunk, _ in _batches(sample, sample, BATCH):
        task.process_batch(chunk, [None] * len(chunk), 0)
    state = task.state
    owned = list(state.keys())
    with tracer.span("engine.state.extract"):
        started = time.perf_counter()
        entries = [(key, state.extract(key)) for key in owned]
        extract_s = time.perf_counter() - started
    target = KeyedState(window=1)
    with tracer.span("engine.state.install"):
        started = time.perf_counter()
        for key, snapshot in entries:
            target.install(key, snapshot)
        install_s = time.perf_counter() - started
    metrics = {
        "engine.state.extract_us_per_key": extract_s / len(owned) * 1e6,
        "engine.state.install_us_per_key": install_s / len(owned) * 1e6,
    }

    os.makedirs(OUT_DIR, exist_ok=True)
    root = tempfile.mkdtemp(prefix="probe-ckpt-", dir=OUT_DIR)
    try:
        store = CheckpointStore(root, "probe")
        with tracer.span("runtime.resilience.checkpoint_write"):
            for interval in range(5):
                store.save(0, interval, entries, {"processed": float(len(sample))})
        with tracer.span("runtime.resilience.restore"):
            restore_s = _median_seconds(lambda: store.latest(0), repeats=5)
        blob_mb = store.records[-1].bytes_written / 1e6
        metrics["runtime.resilience.checkpoint_write_mb_per_s"] = (
            store.bytes_written / 1e6 / store.write_seconds
        )
        metrics["runtime.resilience.restore_mb_per_s"] = blob_mb / restore_s
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return metrics


def _probe_histogram(tracer: Tracer) -> Dict[str, float]:
    histogram = LatencyHistogram()
    values = [50.0 + (index * 7919) % 200_000 for index in range(100_000)]
    with tracer.span("runtime.histogram.record"):
        started = time.perf_counter()
        for value in values:
            histogram.record(value, 256)
        seconds = time.perf_counter() - started
    return {"runtime.histogram.record_ns": seconds / len(values) * 1e9}


def _probe_simulator(
    tracer: Tracer,
    snapshots: Sequence[Dict[Key, float]],
    num_tasks: int,
    seed: int,
    tunables: Dict[str, Any],
) -> Dict[str, float]:
    simulator = OperatorSimulator(
        build_strategy("mixed", num_tasks, seed, tunables), WordCountOperator()
    )
    with tracer.span("engine.simulator.run"):
        started = time.perf_counter()
        simulator.run(snapshots)
        seconds = time.perf_counter() - started
    return {"engine.simulator.interval_ms": seconds / len(snapshots) * 1e3}


# -- the probe suite -------------------------------------------------------------------


def run_probes(
    tracer: Tracer,
    *,
    keys: Sequence[Key],
    values: Sequence[Any],
    snapshots: Sequence[Dict[Key, float]],
    baseline_snapshots: Sequence[Dict[Key, float]],
    num_tasks: int,
    seed: int,
    tunables: Dict[str, Any],
    mixed: Optional[PlannerOutcome] = None,
) -> Dict[str, float]:
    """Every probe metric of ``perf.metrics.PER_LAYER`` (the result-derived
    rows, the reference run and the budget are added by the caller)."""
    metrics: Dict[str, float] = {}
    with tracer.span("probes"):
        metrics.update(_probe_planners(tracer, snapshots, num_tasks, seed, tunables, mixed))
        metrics.update(_probe_baseline_planners(tracer, baseline_snapshots, num_tasks, seed))
        partitioner = _warmed_mixed(snapshots, num_tasks, seed, tunables)
        metrics.update(_probe_assign(tracer, partitioner, keys))
        metrics.update(_probe_pkg(tracer, keys, num_tasks, seed))
        metrics.update(_probe_source(tracer, keys, values))
        metrics.update(_probe_router(tracer, partitioner, keys, values))
        metrics.update(_probe_messages(tracer, keys, values))
        metrics.update(_probe_queues(tracer, keys, values))
        metrics.update(_probe_operators(tracer, keys))
        metrics.update(_probe_state_and_checkpoints(tracer, keys))
        metrics.update(_probe_histogram(tracer))
        metrics.update(
            _probe_simulator(tracer, snapshots[:SIMULATOR_INTERVALS], num_tasks, seed, tunables)
        )
    return metrics


# -- CPU budget ------------------------------------------------------------------------

_OPERATOR_PROBE = (
    # Most specific class first: PartialWindowedAggregate is a WindowedAggregate.
    (PartialWindowedAggregate, "partial_aggregate"),
    (MergeOperator, "merge"),
    (DimensionJoin, "dimension_join"),
    (WindowedAggregate, "windowed_aggregate"),
    (WordCountOperator, "wordcount"),
)


def _operator_probe_of(logic: Any) -> str:
    for cls, name in _OPERATOR_PROBE:
        if isinstance(logic, cls):
            return name
    raise KeyError(f"no operator probe covers {type(logic).__name__}")


def _per_message_and_tuple(probe: Dict[str, float], prefix: str) -> Tuple[float, float]:
    """Split a cost probed at the smallest and largest batch size into
    ``(seconds per message, seconds per tuple)``; ``prefix`` names a metric
    family in microseconds per message."""
    small, large = BATCH_SIZES[0], BATCH_SIZES[-1]
    cost_small = probe[f"{prefix}.b{small}"] / 1e6
    cost_large = probe[f"{prefix}.b{large}"] / 1e6
    per_tuple = max(0.0, (cost_large - cost_small) / (large - small))
    return max(0.0, cost_small - small * per_tuple), per_tuple


def budget(outcome: Any, probe: Dict[str, float]) -> Dict[str, float]:
    """CPU-seconds per layer as unit cost (from the probes) x count (from the
    run), reconciled against the measured CPU-seconds of the same run.

    Transport is costed per *message* and per tuple: a stage's router splits
    every incoming batch over its P tasks and nothing re-coalesces them, so a
    chain's messages multiply (and shrink) by P at every stage — counting
    tuples alone would miss most of the queue cost.  Returns the seconds
    (``budget.<layer>_s``, for the printed table and ``trace.json``) and the
    driver-tracked shares (``budget.<layer>_frac``).  Pacing sleep and
    migration pause are wall time, not CPU, and are reported apart so
    emulated capacity is never read as overhead.
    """
    seconds = dict.fromkeys(
        ("source", "router", "serialise", "queue", "operator", "planner"), 0.0
    )
    pacing_frac = pause_frac = 0.0
    counts: Dict[str, float] = {}
    if isinstance(outcome, PlannerOutcome):
        # In-process: the spans are the layers, no unit-cost estimate needed.
        seconds["router"] = sum(outcome.route_s)
        seconds["planner"] = (
            sum(outcome.stats_s) + sum(outcome.plan_s) + sum(outcome.idle_plan_s)
        )
        cpu = outcome.cpu_s
    else:
        result = outcome.result
        topology = outcome.topology
        cpu = outcome.cpu_s
        pickle_msg, pickle_tuple = _per_message_and_tuple(probe, "runtime.messages.pickle_us")
        unpickle_msg, unpickle_tuple = _per_message_and_tuple(
            probe, "runtime.messages.unpickle_us"
        )
        queue_msg, queue_tuple = _per_message_and_tuple(probe, "runtime.queues.cpu_us")
        dispatch_small = BATCH / probe["runtime.router.dispatch_tps.b256"]
        dispatch_tuple = 1.0 / probe["runtime.router.dispatch_tps.b4096"]
        dispatch_msg = max(0.0, dispatch_small - BATCH * dispatch_tuple)
        source_messages = outcome.offered_tuples / BATCH
        source_fed = sum("source" in topology.upstreams_of(s.name) for s in topology)
        #: Messages each stage's workers received (= batches they emit).
        worker_messages: Dict[str, float] = {}
        busy = owed = 0.0
        for stage in topology:
            stage_result = result.stages[stage.name]
            ingress_messages = sum(
                source_messages / source_fed
                if origin == "source"
                else worker_messages[origin] / len(topology.consumers_of(origin))
                for origin in topology.upstreams_of(stage.name)
            )
            worker_messages[stage.name] = ingress_messages * stage.parallelism
            messages = ingress_messages + worker_messages[stage.name]
            tuples = stage_result.tuples_offered + stage_result.tuples_processed
            serialise = messages * (pickle_msg + unpickle_msg) + tuples * (
                pickle_tuple + unpickle_tuple
            )
            seconds["serialise"] += serialise
            seconds["queue"] += max(0.0, messages * queue_msg + tuples * queue_tuple - serialise)
            seconds["router"] += (
                ingress_messages * dispatch_msg + stage_result.tuples_offered * dispatch_tuple
            )
            seconds["operator"] += (
                stage_result.tuples_processed
                / probe[f"operators.process_batch_tps.{_operator_probe_of(stage.logic)}"]
            )
            seconds["planner"] += (
                sum(m.generation_time for m in stage_result.migrations)
                + len(stage_result.metrics) * probe["core.stats_build_ms"] / 1e3
            )
            for report in stage_result.final_reports.values():
                busy += report.busy_seconds
                owed += report.cost * report.service_time_us / 1e6
            counts[f"budget.messages.{stage.name}"] = messages
        seconds["source"] = outcome.offered_tuples / probe["runtime.source.offer_tps"]
        # A paced worker sleeps off whatever of the owed service time
        # (cost x service_time_us) its real work did not use.
        pacing_frac = max(0.0, owed - seconds["operator"]) / busy
        pause_frac = sum(m.pause_seconds for m in result.migrations) / result.wall_seconds
    rows = {f"budget.{layer}_s": value for layer, value in seconds.items()}
    rows.update({f"budget.{layer}_frac": value / cpu for layer, value in seconds.items()})
    rows.update(counts)
    rows["budget.measured_cpu_s"] = cpu
    rows["budget.unattributed_frac"] = 1.0 - sum(seconds.values()) / cpu
    rows["budget.pacing_frac"] = pacing_frac
    rows["budget.migration_pause_frac"] = pause_frac
    return rows
