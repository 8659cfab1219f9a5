"""The four workloads: sizes, set-up, run, checks and metric extraction.

All constants live here; the CLI has no size flags.  ``--seconds`` scales
only the number of intervals, through each workload's nominal interval rate
(measured on the 2-core reference box with the untouched runtime), so the
same ``(seed, seconds)`` always generates the same inputs.

Why these four (one line each is repeated in ``BENCHMARK.json``):

``wordcount_paced_drift``
    The paper's headline regime — sustained Zipf skew with drift, one
    word-count stage under ``mixed`` at parallelism 4, sleep-paced workers
    (``service_time_us=50``, the saturated-CPU set-up), closed loop.  A
    rebalance at almost every interval.  Workers sleep ~80 % of the time, so
    planner quality, the cold route cache and the migration pause set the
    result and transport does almost nothing: the *bypass* workload for
    router / pickle / queue changes (their gain shows only in
    ``runtime.topology.cpu_s_per_mtuple`` here).
``q5_chain_unpaced``
    The TPC-H Q5 chain (order-join -> customer-join -> revenue-agg,
    parallelism 2 each) under ``mixed`` with ``service_time_us=0``, closed
    loop: the transport ceiling.  Workers idle; coordinator dispatch,
    pickling, ``mp.Queue`` hand-off and egress re-keying are the bottleneck,
    and the planner runs a handful of times.  The whole run — coordinator,
    source, six workers — is **held on one CPU**, so its throughput is one
    core divided by the CPU cost of a tuple's whole path.  Free to use both
    cores of the shared 2-core host it wants 1.8 of them at once and its
    throughput follows the host's CPU supply instead (42k-56k tuples/s from
    the same code and seed, while single-threaded work repeats to 4 %).
``diamond_open_ckpt``
    The diamond DAG (source -> split-agg-a/b -> merge) under ``pkg``, paced,
    **open loop at 40 000 tuples/s** (~65 % of its paced capacity) with a
    checkpoint at every interval.  Split-key routing, fan-in mark barriers,
    the merge contract and the state-snapshot wire path; the only workload
    where latency below saturation is observable.
``planner_paper_scale``
    In-process, no child process: Tab. II defaults (K = 100 000, z = 0.85,
    f = 1.0, N_D = 10, A_max = 3000, 1M tuples per interval); per interval
    ``route_snapshot`` -> ``IntervalStats.from_frequencies`` ->
    ``on_interval_end`` under ``mixed``.  Planner and statistics do all the
    work, the runtime none.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import Partitioner
from repro.core.statistics import IntervalStats
from repro.core.strategy import get_strategy
from repro.experiments.config import ExperimentScale
from repro.operators import WordCountOperator
from repro.runtime import (
    BENCH_TOPOLOGY_WORKLOADS,
    RuntimeConfig,
    RuntimeSpec,
    StageSpec,
    TopologyResult,
    TopologyRuntime,
    TopologySpec,
)

from perf import inputs as perf_inputs
from perf.inputs import Inputs
from perf.quantiles import histogram_quantile_us

__all__ = [
    "DEFAULT_SECONDS",
    "OUT_DIR",
    "PROBE_TUPLES",
    "PlannerOutcome",
    "PlannerWorkload",
    "Prepared",
    "Traced",
    "RuntimeOutcome",
    "RuntimeWorkload",
    "WORKLOADS",
    "cpu_seconds",
    "peak_rss_mb",
    "run_planner",
]

#: Length of one measured run (``BENCHMARK.json``'s ``run_seconds``).
DEFAULT_SECONDS = 25

#: Everything the benchmark writes goes here (git-ignored).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Tuples of a workload's own stream that the per-layer probes replay.
PROBE_TUPLES = 200_000

#: Strategy tunables shared by the three runtime workloads (K = 10 000).
RUNTIME_TUNABLES: Dict[str, Any] = dict(
    theta_max=0.08, max_table_size=1000, beta=1.5, window=1
)

#: Key domain of the baseline planners' probe on the planner workload
#: (``readj`` needs ~30 s per plan at the paper's K = 100 000).
BASELINE_KEYS = 10_000

#: Snapshots the baseline-planner probes replay (``readj`` is slow).
BASELINE_INTERVALS = 3

#: Tab. II defaults of the planner workload.
PAPER_TUNABLES: Dict[str, Any] = dict(
    theta_max=0.08, max_table_size=3000, beta=1.5, window=1
)


def cpu_seconds() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports kilobytes


def build_strategy(name: str, num_tasks: int, seed: int, tunables: Dict[str, Any]) -> Partitioner:
    return get_strategy(name).build(num_tasks, seed=seed, **tunables)


@dataclass
class Prepared:
    """A workload after set-up: inputs plus a factory of fresh topologies
    (partitioners are stateful, so every run leg builds its own)."""

    inputs: Inputs
    build_s: float
    make_topology: Optional[Callable[[], TopologySpec]] = None
    topology: Optional[TopologySpec] = None

    @property
    def setup_s(self) -> float:
        return self.inputs.generate_s + self.inputs.expand_s + self.build_s


@dataclass
class Traced:
    """What a workload's traced run hands to the probes and the budget."""

    outcome: Any
    attempted: int
    failed: int
    problems: List[str]
    #: Result-derived per-layer metrics, ``analysis.sanitizer.*`` included.
    layers: Dict[str, float]
    stages: Dict[str, Dict[str, float]]
    #: Interval snapshots the planner probes replay, and the (K = 10 000)
    #: ones the slow baseline planners replay.
    snapshots: List[Dict[Any, float]]
    baseline_snapshots: List[Dict[Any, float]]
    num_tasks: int
    tunables: Dict[str, Any]
    #: The single-task reference job.
    reference_topology: TopologySpec
    reference_stream: List[List[Tuple[Any, Any]]]
    #: ``mixed`` planned by the run itself (planner workload), so the planner
    #: probe does not repeat it.
    mixed: Optional["PlannerOutcome"] = None
    #: Final per-key state the reference run must reproduce (``None`` = the
    #: workload's final state is interleaving-dependent, not compared).
    final_state: Optional[Dict[Any, List[Any]]] = None


# -- runtime workloads (W1-W3) ----------------------------------------------------------


@dataclass
class RuntimeOutcome:
    result: TopologyResult
    topology: TopologySpec
    cpu_s: float
    offered_tuples: int
    offered_rate: Optional[float]


@dataclass(frozen=True)
class RuntimeWorkload:
    """A workload executed by :class:`~repro.runtime.TopologyRuntime`."""

    name: str
    why: str
    strategy: str
    fluctuation: float
    tuples_per_interval: int
    #: Intervals the reference box completes per second (sizes a run).
    intervals_per_second: float
    config: Dict[str, Any]
    #: The ``BENCH_TOPOLOGY_WORKLOADS`` entry providing stream and topology;
    #: ``None`` is the one-stage word count built here.
    bench: Optional[str] = None
    num_keys: int = 10_000
    skew: float = 1.2
    #: Stages routed by fixed hashing whatever the strategy (left out of
    #: ``mean_skewness``, which tracks the strategy under test).
    helper_stages: Tuple[str, ...] = ()
    checkpoints: bool = False
    #: Hold the run (coordinator threads, source, workers) on one CPU.
    one_cpu: bool = False
    #: Whether the final per-key state is a pure function of the stream (true
    #: for one key-contiguous stage; multi-stage windowed state depends on
    #: how the stages' intervals interleave).
    deterministic_state: bool = False

    def intervals(self, seconds: float) -> int:
        return max(4, round(seconds * self.intervals_per_second))

    def _scale(self, intervals: int) -> ExperimentScale:
        parallelism = self.config["parallelism"]
        return ExperimentScale(
            name="perf",
            num_keys=self.num_keys,
            tuples_per_interval=self.tuples_per_interval,
            intervals=intervals,
            sim_intervals=intervals,
            num_tasks=parallelism,
            skew=self.skew,
            fluctuation=self.fluctuation,
            **RUNTIME_TUNABLES,
        )

    def build_inputs(self, seed: int, intervals: int) -> Inputs:
        if self.bench is not None:
            return perf_inputs.bench_stream_inputs(
                seed, self.bench, self._scale(intervals), PROBE_TUPLES
            )
        return perf_inputs.zipf_stream_inputs(
            seed,
            num_keys=self.num_keys,
            skew=self.skew,
            fluctuation=self.fluctuation,
            tuples_per_interval=self.tuples_per_interval,
            intervals=intervals,
            num_tasks=self.config["parallelism"],
            probe_tuples=PROBE_TUPLES,
        )

    def build_topology(self, seed: int, intervals: int) -> TopologySpec:
        """A fresh topology: partitioners are stateful, one per run."""
        parallelism = self.config["parallelism"]
        if self.bench is None:
            return TopologySpec(
                "wordcount",
                [
                    StageSpec(
                        name="wordcount",
                        logic=WordCountOperator(window=1, emit_updates=False),
                        partitioner=build_strategy(
                            self.strategy, parallelism, seed, RUNTIME_TUNABLES
                        ),
                    )
                ],
            )
        scale = self._scale(intervals)
        spec = RuntimeSpec(
            workload=self.bench,
            strategies=[self.strategy],
            parallelism=parallelism,
            scale=scale,
            seed=seed,
        )
        return BENCH_TOPOLOGY_WORKLOADS[self.bench].build_topology(
            scale,
            spec,
            self.strategy,
            lambda name, tasks: build_strategy(name, tasks, seed, RUNTIME_TUNABLES),
        )

    def set_up(self, seed: int, intervals: int) -> Prepared:
        inputs = self.build_inputs(seed, intervals)
        started = time.perf_counter()
        topology = self.build_topology(seed, intervals)
        build_s = time.perf_counter() - started
        return Prepared(
            inputs=inputs,
            build_s=build_s,
            make_topology=lambda: self.build_topology(seed, intervals),
            topology=topology,
        )

    def run(
        self,
        topology: TopologySpec,
        stream: Sequence[List[Tuple[Any, Any]]],
        *,
        sanitize: bool = False,
        collect_final_state: bool = False,
    ) -> RuntimeOutcome:
        """One run of ``stream`` through a fresh ``topology``."""
        checkpoint_root = None
        if self.checkpoints:
            os.makedirs(OUT_DIR, exist_ok=True)
            checkpoint_root = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR)
        config = RuntimeConfig(
            sanitize=sanitize,
            collect_final_state=collect_final_state,
            checkpoint_dir=checkpoint_root,
            **self.config,
        )
        # Threads and forked children inherit the calling thread's affinity.
        allowed = os.sched_getaffinity(0)
        if self.one_cpu:
            os.sched_setaffinity(0, {min(allowed)})
        try:
            cpu_before = cpu_seconds()
            result = TopologyRuntime(topology, config, label=self.name).run(stream)
            cpu_s = cpu_seconds() - cpu_before
        finally:
            os.sched_setaffinity(0, allowed)
            if checkpoint_root is not None:
                shutil.rmtree(checkpoint_root, ignore_errors=True)
        # One workload must not tax the next: every child is gone by now.
        leftover = multiprocessing.active_children()
        if leftover:
            raise RuntimeError(f"{self.name}: child processes still alive: {leftover}")
        return RuntimeOutcome(
            result=result,
            topology=topology,
            cpu_s=cpu_s,
            offered_tuples=sum(len(interval) for interval in stream),
            offered_rate=self.config.get("offered_rate"),
        )

    def measure(self, prepared: Prepared, seed: int) -> RuntimeOutcome:
        """The untraced run: the whole stream through the set-up's topology."""
        return self.run(prepared.topology, prepared.inputs.stream)

    def trace(self, prepared: Prepared, intervals: int, seed: int, tracer: Any) -> Traced:
        """The traced run: the same half-length stream once plain and once
        under the protocol sanitizer (whose per-boundary message counts are
        the trace's counts); their difference is the tracing overhead."""
        stream = prepared.inputs.stream[: max(2, intervals // 2)]
        with tracer.span("run.plain"):
            plain = self.run(prepared.topology, stream)
        with tracer.span("run.sanitized"):
            outcome = self.run(
                prepared.make_topology(), stream, sanitize=True, collect_final_state=True
            )
        attempted, failed, problems = self.check(outcome)
        problems += self.check(plain)[2]
        report = outcome.result.sanitizer or {}
        checks = report.get("checks", {})
        if not sum(checks.values()):
            problems.append("the sanitizer evaluated no checks")
        if report.get("violations"):
            problems.append(f"{len(report['violations'])} sanitizer violations")
        for check, amount in checks.items():
            tracer.count(f"analysis.sanitizer.{check}", amount)
        layers = self.layers(outcome)
        layers["analysis.sanitizer.overhead_frac"] = 1.0 - (
            self.end_to_end(outcome)["throughput_tps"]
            / self.end_to_end(plain)["throughput_tps"]
        )
        layers["analysis.sanitizer.checks"] = float(sum(checks.values()))
        layers["analysis.sanitizer.violations"] = float(len(report.get("violations", [])))
        with tracer.span("workloads.snapshots_of"):
            started = time.perf_counter()
            snapshots = perf_inputs.snapshots_of(stream)
            if not prepared.inputs.snapshots:
                prepared.inputs.expand_s += time.perf_counter() - started
        return Traced(
            outcome=outcome,
            attempted=attempted,
            failed=failed,
            problems=problems,
            layers=layers,
            stages=self.stage_details(outcome),
            snapshots=snapshots,
            baseline_snapshots=snapshots[:BASELINE_INTERVALS],
            num_tasks=outcome.topology.stages[0].parallelism,
            tunables=RUNTIME_TUNABLES,
            reference_topology=prepared.make_topology(),
            reference_stream=stream,
            final_state=(
                outcome.result.final.final_state if self.deterministic_state else None
            ),
        )

    # -- checks -----------------------------------------------------------------------

    def check(self, outcome: RuntimeOutcome) -> Tuple[int, int, List[str]]:
        """Tuple conservation: ``(attempted, failed, problems)``."""
        result = outcome.result
        problems: List[str] = []
        offered = outcome.offered_tuples
        completed = result.tuples_processed
        if result.tuples_offered != offered:
            problems.append(
                f"runtime saw {result.tuples_offered} offered tuples, stream has {offered}"
            )
        if completed != offered:
            problems.append(f"completed {completed} of {offered} offered tuples")
        if result.tuples_shed:
            problems.append(f"{result.tuples_shed:g} tuples shed")
        return offered, offered if problems else 0, problems

    # -- metrics ----------------------------------------------------------------------

    def end_to_end(self, outcome: RuntimeOutcome) -> Dict[str, float]:
        result = outcome.result
        studied = [
            stage for name, stage in result.stages.items() if name not in self.helper_stages
        ]
        return {
            # The median interval, not tuples / wall: one scheduler stall or
            # the cold first interval must not move the number.
            "throughput_tps": statistics.median(result.final.metrics.series("throughput")),
            "latency_p50_ms": histogram_quantile_us(result.e2e_latency.to_dict(), 0.5) / 1e3,
            "mean_skewness": statistics.fmean(
                stage.metrics.mean_skewness for stage in studied
            ),
        }

    def layers(self, outcome: RuntimeOutcome) -> Dict[str, float]:
        """Per-layer metrics read off the result objects."""
        result = outcome.result
        wall = result.wall_seconds
        e2e = result.e2e_latency.to_dict()
        shares = [
            sum(report.busy_seconds for report in stage.final_reports.values())
            / (len(stage.final_reports) * wall)
            for stage in result.stages.values()
        ]
        migrations = result.migrations
        checkpoints = (result.resilience or {}).get("checkpoints", {})
        split = [s.split_stats for s in result.stages.values() if s.split_stats]
        lag = 0.0
        if outcome.offered_rate:
            lag = max(0.0, wall - outcome.offered_tuples / outcome.offered_rate)
        return {
            "runtime.topology.run_tps": result.tuples_processed / wall,
            "runtime.topology.cpu_s_per_mtuple": outcome.cpu_s / (result.tuples_processed / 1e6),
            "runtime.processes": 1.0 + sum(stage.parallelism for stage in outcome.topology),
            "runtime.worker.busy_share.max": max(shares),
            "runtime.worker.busy_share.min": min(shares),
            "runtime.topology.skewness.max": max(
                stage.metrics.mean_skewness for stage in result.stages.values()
            ),
            "latency.mean_ms": result.e2e_latency.mean_us / 1e3,
            "latency.p90_ms": histogram_quantile_us(e2e, 0.90) / 1e3,
            "latency.p99_ms": histogram_quantile_us(e2e, 0.99) / 1e3,
            "latency.samples": float(result.e2e_latency.total),
            "runtime.controller.rebalances": float(len(migrations)),
            "runtime.controller.moved_keys": float(sum(m.moved_keys for m in migrations)),
            "runtime.controller.moved_state": sum(m.moved_state for m in migrations),
            "runtime.controller.table_size_last": float(
                max(
                    (stage.migrations[-1].table_size for stage in result.stages.values()
                     if stage.migrations),
                    default=0,
                )
            ),
            "runtime.controller.pause_share": sum(m.pause_seconds for m in migrations) / wall,
            "runtime.controller.plan_share": sum(m.generation_time for m in migrations) / wall,
            "runtime.source.lag_share": lag / wall,
            "runtime.resilience.checkpoints": checkpoints.get("count", 0.0),
            "runtime.resilience.checkpoint_bytes": checkpoints.get("bytes_written", 0.0),
            "runtime.resilience.checkpoint_write_share": (
                checkpoints.get("write_seconds", 0.0) / wall
            ),
            "runtime.router.split_keys": sum(s["split_keys"] for s in split),
            "runtime.router.max_partials_per_key": max(
                (s["max_partials_per_key"] for s in split), default=0.0
            ),
        }

    def stage_details(self, outcome: RuntimeOutcome) -> Dict[str, Dict[str, float]]:
        """Per-stage rows for the printed report and ``trace.json`` (stage
        names differ per workload, so these are not driver-tracked metrics)."""
        result = outcome.result
        rows: Dict[str, Dict[str, float]] = {}
        for name, stage in result.stages.items():
            busy = sum(report.busy_seconds for report in stage.final_reports.values())
            pauses = sorted(m.pause_seconds * 1e3 for m in stage.migrations)
            rows[name] = {
                "busy_share": busy / (len(stage.final_reports) * result.wall_seconds),
                "service_us_per_tuple": busy / max(1, stage.tuples_processed) * 1e6,
                "stage_latency_mean_ms": stage.latency.mean_us / 1e3,
                "skewness": stage.metrics.mean_skewness,
                "rebalances": float(len(stage.migrations)),
                "moved_keys": float(stage.moved_keys_total),
                "pause_ms_mean": statistics.fmean(pauses) if pauses else 0.0,
                "pause_ms_p50": statistics.median(pauses) if pauses else 0.0,
                "pause_ms_max": pauses[-1] if pauses else 0.0,
                "plan_ms_mean": (
                    statistics.fmean(m.generation_time * 1e3 for m in stage.migrations)
                    if stage.migrations
                    else 0.0
                ),
            }
        return rows


# -- the planner workload (W4) ----------------------------------------------------------


@dataclass
class PlannerOutcome:
    """One strategy planned over a snapshot list, segment by segment."""

    strategy: str
    tuples: float = 0.0
    route_s: List[float] = field(default_factory=list)
    stats_s: List[float] = field(default_factory=list)
    #: ``on_interval_end`` wall time of the intervals that rebalanced.
    plan_s: List[float] = field(default_factory=list)
    idle_plan_s: List[float] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    skewness: List[float] = field(default_factory=list)
    #: Snapshot tuples / (route + stats + plan) seconds, per interval.
    interval_tps: List[float] = field(default_factory=list)
    cpu_s: float = 0.0

    @property
    def loop_s(self) -> float:
        return sum(self.route_s) + sum(self.stats_s) + sum(self.plan_s) + sum(self.idle_plan_s)


def run_planner(
    strategy: str,
    snapshots: Sequence[Dict[Any, float]],
    num_tasks: int,
    seed: int,
    tunables: Dict[str, Any],
    span: Callable[..., Any] = None,
) -> PlannerOutcome:
    """Drive ``strategy`` over ``snapshots`` exactly as a stage coordinator
    does at each interval close: route the snapshot under the assignment in
    force, build the interval statistics, hand them to ``on_interval_end``."""
    partitioner = build_strategy(strategy, num_tasks, seed, tunables)
    outcome = PlannerOutcome(strategy=strategy)
    cpu_before = cpu_seconds()
    for interval, snapshot in enumerate(snapshots):
        t0 = time.perf_counter()
        per_task = partitioner.route_snapshot(snapshot)
        t1 = time.perf_counter()
        stats = IntervalStats.from_frequencies(interval, snapshot)
        t2 = time.perf_counter()
        rebalance = partitioner.on_interval_end(stats)
        t3 = time.perf_counter()
        outcome.route_s.append(t1 - t0)
        outcome.stats_s.append(t2 - t1)
        if rebalance is None:
            outcome.idle_plan_s.append(t3 - t2)
        else:
            outcome.plan_s.append(t3 - t2)
            outcome.results.append(rebalance)
        loads = [sum(bucket.values()) for bucket in per_task.values()]
        total = sum(loads)
        outcome.tuples += total
        outcome.skewness.append(max(loads) * len(loads) / total)
        outcome.interval_tps.append(total / (t3 - t0))
        if span is not None:
            span(f"core.{strategy}.route_snapshot", t0, t1)
            span(f"core.{strategy}.stats_build", t1, t2)
            span(f"core.{strategy}.on_interval_end", t2, t3)
    outcome.cpu_s = cpu_seconds() - cpu_before
    return outcome


@dataclass(frozen=True)
class PlannerWorkload:
    name: str
    why: str
    strategy: str
    num_tasks: int
    num_keys: int
    tuples_per_interval: int
    intervals_per_second: float
    tunables: Dict[str, Any]
    skew: float = 0.85
    fluctuation: float = 1.0

    def intervals(self, seconds: float) -> int:
        return max(4, round(seconds * self.intervals_per_second))

    def set_up(self, seed: int, intervals: int) -> Prepared:
        inputs = perf_inputs.planner_inputs(
            seed,
            num_keys=self.num_keys,
            skew=self.skew,
            fluctuation=self.fluctuation,
            tuples_per_interval=self.tuples_per_interval,
            intervals=intervals,
            num_tasks=self.num_tasks,
            probe_tuples=PROBE_TUPLES,
        )
        started = time.perf_counter()
        build_strategy(self.strategy, self.num_tasks, seed, self.tunables)
        return Prepared(inputs=inputs, build_s=time.perf_counter() - started)

    def run(self, snapshots: Sequence[Dict[Any, float]], seed: int, span=None) -> PlannerOutcome:
        outcome = run_planner(
            self.strategy, snapshots, self.num_tasks, seed, self.tunables, span
        )
        if multiprocessing.active_children():
            raise RuntimeError(f"{self.name} must not spawn processes")
        return outcome

    def measure(self, prepared: Prepared, seed: int) -> PlannerOutcome:
        """The untraced run: every snapshot under the workload's strategy."""
        return self.run(prepared.inputs.snapshots, seed)

    def stage_details(self, outcome: PlannerOutcome) -> Dict[str, Dict[str, float]]:
        return {}  # no stages: nothing crosses a process boundary

    def trace(self, prepared: Prepared, intervals: int, seed: int, tracer: Any) -> Traced:
        """The traced run: the four controller variants share the time
        budget, so each plans a quarter of the snapshots (``mixed`` here, the
        other three in the planner probe).  Nothing crosses a process
        boundary, so there is nothing for the sanitizer to check."""
        snapshots = prepared.inputs.snapshots[: max(4, intervals // 4)]
        with tracer.span("run.plain"):
            outcome = self.run(snapshots, seed, span=tracer.record)
        attempted, failed, problems = self.check(outcome)
        layers = self.layers(outcome)
        layers["analysis.sanitizer.overhead_frac"] = 0.0
        layers["analysis.sanitizer.checks"] = 0.0
        layers["analysis.sanitizer.violations"] = 0.0
        baseline = perf_inputs.planner_inputs(
            seed,
            num_keys=min(self.num_keys, BASELINE_KEYS),
            skew=self.skew,
            fluctuation=self.fluctuation,
            tuples_per_interval=min(self.tuples_per_interval, 100_000),
            intervals=BASELINE_INTERVALS,
            num_tasks=self.num_tasks,
            probe_tuples=1,
        )
        inputs = prepared.inputs
        return Traced(
            outcome=outcome,
            attempted=attempted,
            failed=failed,
            problems=problems,
            layers=layers,
            stages=self.stage_details(outcome),
            snapshots=snapshots,
            baseline_snapshots=baseline.snapshots,
            num_tasks=self.num_tasks,
            tunables=self.tunables,
            # The reference job of a workload without operators: word count
            # over its probe tuples, one interval.
            reference_topology=TopologySpec(
                "wordcount",
                [
                    StageSpec(
                        "wordcount",
                        WordCountOperator(emit_updates=False),
                        build_strategy("storm", 1, seed, {}),
                    )
                ],
            ),
            reference_stream=[list(zip(inputs.probe_keys, inputs.probe_values))],
            mixed=outcome,
        )

    def check(self, outcome: PlannerOutcome) -> Tuple[int, int, List[str]]:
        """Every plan balanced and within the table cap."""
        cap = self.tunables["max_table_size"]
        bad = [
            r for r in outcome.results if not r.balanced or r.table_size > cap
        ]
        problems = (
            [f"{len(bad)} of {len(outcome.results)} plans unbalanced or over A_max={cap}"]
            if bad
            else []
        )
        if not outcome.results:
            problems.append("the planner never rebalanced")
        return max(1, len(outcome.results)), len(bad), problems

    def end_to_end(self, outcome: PlannerOutcome) -> Dict[str, float]:
        return {
            "throughput_tps": statistics.median(outcome.interval_tps),
            "latency_p50_ms": statistics.median(outcome.plan_s) * 1e3,
            "mean_skewness": statistics.fmean(outcome.skewness),
        }

    def layers(self, outcome: PlannerOutcome) -> Dict[str, float]:
        plans_ms = sorted(seconds * 1e3 for seconds in outcome.plan_s)
        results = outcome.results

        def rank(q: float) -> float:
            return plans_ms[min(len(plans_ms) - 1, int(q * len(plans_ms)))]

        wall = outcome.loop_s
        return {
            "runtime.topology.run_tps": outcome.tuples / wall,
            "runtime.topology.cpu_s_per_mtuple": outcome.cpu_s / (outcome.tuples / 1e6),
            "runtime.processes": 0.0,
            "runtime.worker.busy_share.max": 0.0,
            "runtime.worker.busy_share.min": 0.0,
            "runtime.topology.skewness.max": statistics.fmean(outcome.skewness),
            "latency.mean_ms": statistics.fmean(plans_ms),
            "latency.p90_ms": rank(0.90),
            "latency.p99_ms": rank(0.99),
            "latency.samples": float(len(plans_ms)),
            "runtime.controller.rebalances": float(len(results)),
            "runtime.controller.moved_keys": float(
                sum(len(r.migrated_keys) for r in results)
            ),
            "runtime.controller.moved_state": sum(r.migration_cost for r in results),
            "runtime.controller.table_size_last": float(results[-1].table_size),
            "runtime.controller.pause_share": 0.0,
            "runtime.controller.plan_share": sum(outcome.plan_s) / wall,
            "runtime.source.lag_share": 0.0,
            "runtime.resilience.checkpoints": 0.0,
            "runtime.resilience.checkpoint_bytes": 0.0,
            "runtime.resilience.checkpoint_write_share": 0.0,
            "runtime.router.split_keys": 0.0,
            "runtime.router.max_partials_per_key": 0.0,
        }


# -- the four definitions ---------------------------------------------------------------

WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        RuntimeWorkload(
            name="wordcount_paced_drift",
            why=(
                "paced word count under mixed with drifting Zipf skew: a rebalance "
                "almost every interval, workers mostly asleep; bypass workload for "
                "router/pickle/queue changes"
            ),
            strategy="mixed",
            fluctuation=0.5,
            tuples_per_interval=20_000,
            intervals_per_second=3.1,
            config=dict(parallelism=4, batch_size=256, queue_capacity=8, service_time_us=50.0),
            deterministic_state=True,
        ),
        RuntimeWorkload(
            name="q5_chain_unpaced",
            why=(
                "unpaced 3-stage TPC-H Q5 chain under mixed, closed loop, held on one CPU: "
                "workers idle, so dispatch, pickling and mp.Queue hand-off set the rate; the "
                "planner runs a handful of times"
            ),
            strategy="mixed",
            bench="tpch_q5_chain",
            fluctuation=0.2,
            tuples_per_interval=40_000,
            intervals_per_second=0.85,
            config=dict(parallelism=2, batch_size=256, queue_capacity=8, service_time_us=0.0),
            helper_stages=("revenue-agg",),
            one_cpu=True,
        ),
        RuntimeWorkload(
            name="diamond_open_ckpt",
            why=(
                "diamond DAG under pkg, open loop at 40000 tuples/s below saturation, a "
                "checkpoint every interval: split-key routing, fan-in barriers, snapshot "
                "wire path; the latency workload"
            ),
            strategy="pkg",
            bench="diamond",
            fluctuation=0.5,
            tuples_per_interval=30_000,
            intervals_per_second=40_000 / 30_000,
            config=dict(
                parallelism=2,
                batch_size=256,
                queue_capacity=8,
                service_time_us=50.0,
                offered_rate=40_000.0,
                checkpoint_every=1,
            ),
            helper_stages=("merge",),
            checkpoints=True,
        ),
        PlannerWorkload(
            name="planner_paper_scale",
            why=(
                "in-process planning at the paper's Tab. II scale (K=100000, 1M tuples per "
                "interval, N_D=10, A_max=3000) under mixed: planner and statistics do all "
                "the work, the runtime none"
            ),
            strategy="mixed",
            num_tasks=10,
            num_keys=100_000,
            tuples_per_interval=1_000_000,
            intervals_per_second=1.45,
            tunables=PAPER_TUNABLES,
        ),
    )
}
