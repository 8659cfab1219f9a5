"""The benchmark's metric registry: names, units, directions and bounds.

``BENCHMARK.json`` repeats exactly these lists (``test_perf_harness.py`` pins
the two together); every workload reports every metric, so each definition
below says what the metric means on each of the four workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["BATCH_SIZES", "END_TO_END", "Metric", "OPERATORS", "PER_LAYER", "PLAN_STRATEGIES"]

#: Controller variants planned side by side by the planner probes.
PLAN_STRATEGIES = ("mixed", "minmig", "mintable", "compact")

#: Micro-batch sizes the transport probes sweep (tuples per batch).
BATCH_SIZES = (256, 1024, 4096)

#: Operators timed one by one through ``Task.process_batch``.
OPERATORS = (
    "wordcount",
    "dimension_join",
    "windowed_aggregate",
    "partial_aggregate",
    "merge",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen (end-to-end
    #: metrics only).
    bound: Optional[float] = None
    about: str = ""

    def entry(self) -> Dict[str, object]:
        """The metric's ``BENCHMARK.json`` entry."""
        row: Dict[str, object] = {
            "name": self.name,
            "unit": self.unit,
            "better": self.better,
        }
        if self.bound is not None:
            row["bound"] = self.bound
        return row


END_TO_END: List[Metric] = [
    Metric(
        "throughput_tps", "tuples/s", "higher", 0.25,
        "median over intervals of the final stage's completed tuples / interval "
        "wall time; planner workload: snapshot tuples / (route + stats + plan) "
        "seconds, median over intervals",
    ),
    Metric(
        "latency_p50_ms", "ms", "lower", 0.25,
        "median source-offer -> final-stage completion, interpolated inside "
        "the histogram bucket; planner workload: median on_interval_end wall "
        "time over the intervals that rebalanced",
    ),
    Metric(
        "mean_skewness", "ratio", "lower", 0.20,
        "mean over intervals of max/avg task load on the stages routed by the "
        "strategy under test; planner workload: 1 + theta of each next "
        "snapshot under the installed plan",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.15,
        "max of the driver's and its children's ru_maxrss",
    ),
    Metric(
        "setup_s", "s", "lower", 0.25,
        "median over repeated set-ups of input generation + topology/strategy "
        "build (everything before the run)",
    ),
]


def _per_layer() -> List[Metric]:
    tps, ms, us, ratio, count = "tuples/s", "ms", "us", "ratio", "count"
    rows: List[Metric] = [
        # -- read from the result objects of the traced run ------------------
        Metric("runtime.topology.run_tps", tps, "higher",
               about="completed tuples / whole-run wall (warm-up, stalls and drain included)"),
        Metric("runtime.topology.cpu_s_per_mtuple", "CPU-s/Mtuple", "lower",
               about="user+sys seconds of the driver and its children around the run only, "
                     "per million tuples (not end-to-end: the same code reads +-15 % on this host)"),
        Metric("runtime.processes", count, "lower",
               about="child processes the run spawned (source + workers); 0 = in-process"),
        Metric("runtime.worker.busy_share.max", ratio, "higher",
               about="sum of FinalReport.busy_seconds / (P * wall), busiest stage"),
        Metric("runtime.worker.busy_share.min", ratio, "higher",
               about="same, idlest stage"),
        Metric("runtime.topology.skewness.max", ratio, "lower",
               about="largest per-stage mean skewness, helper stages included"),
        Metric("latency.mean_ms", ms, "lower", about="mean of the latency_p50_ms distribution"),
        Metric("latency.p90_ms", ms, "lower", about="its 90th percentile"),
        Metric("latency.p99_ms", ms, "lower", about="its 99th percentile (diagnostic: stall-driven)"),
        Metric("latency.samples", count, "higher", about="samples behind the percentiles"),
        Metric("runtime.controller.rebalances", count, "lower", about="plans executed"),
        Metric("runtime.controller.moved_keys", count, "lower", about="keys migrated"),
        Metric("runtime.controller.moved_state", "units", "lower", about="state volume migrated"),
        Metric("runtime.controller.table_size_last", "entries", "lower",
               about="routing-table size after the last plan"),
        Metric("runtime.controller.pause_share", ratio, "lower",
               about="sum of LiveMigrationReport.pause_seconds / wall"),
        Metric("runtime.controller.plan_share", ratio, "lower",
               about="sum of plan generation time / wall"),
        Metric("runtime.source.lag_share", ratio, "lower",
               about="open loop: (wall - tuples / rate) / wall; closed loop: 0"),
        Metric("runtime.resilience.checkpoints", count, "lower", about="checkpoint blobs written"),
        Metric("runtime.resilience.checkpoint_bytes", "bytes", "lower", about="their total size"),
        Metric("runtime.resilience.checkpoint_write_share", ratio, "lower",
               about="checkpoint write seconds / wall"),
        Metric("runtime.router.split_keys", count, "lower", about="keys routed to > 1 replica"),
        Metric("runtime.router.max_partials_per_key", count, "lower",
               about="widest per-key fan-out"),
        Metric("analysis.sanitizer.overhead_frac", ratio, "lower",
               about="1 - sanitized / plain throughput_tps of the traced run's two legs"),
        Metric("analysis.sanitizer.checks", count, "higher", about="invariant evaluations"),
        Metric("analysis.sanitizer.violations", count, "lower", about="violations recorded"),
        # -- probes: the workload's own tuples replayed through one layer ----
        Metric("workloads.generate_s", "s", "lower", about="generator time of the set-up"),
        Metric("workloads.expand_s", "s", "lower", about="snapshot <-> tuple-list conversion"),
        Metric("core.assign_batch_tps.warm", tps, "higher", about="route memo warm"),
        Metric("core.assign_batch_tps.cold", tps, "higher",
               about="after invalidate_route_cache (what every rebalance triggers)"),
        Metric("core.route_snapshot_ms", ms, "lower", about="one interval snapshot"),
        Metric("core.stats_build_ms", ms, "lower", about="IntervalStats.from_frequencies"),
    ]
    for name in PLAN_STRATEGIES:
        rows.append(Metric(f"core.plan_ms.{name}", ms, "lower",
                           about="median on_interval_end over rebalancing intervals"))
    for name in PLAN_STRATEGIES:
        rows.append(Metric(f"core.migration_frac.{name}", ratio, "lower",
                           about="mean RebalanceResult.migration_fraction"))
    for name in PLAN_STRATEGIES:
        rows.append(Metric(f"core.table_size.{name}", "entries", "lower",
                           about="mean RebalanceResult.table_size"))
    rows += [
        Metric("core.theta_after.mixed", ratio, "lower", about="max RebalanceResult.max_theta"),
        Metric("baselines.plan_ms.readj", ms, "lower", about="at K = 10 000"),
        Metric("baselines.plan_ms.dkg", ms, "lower", about="at K = 10 000"),
        Metric("baselines.pkg.assign_batch_tps", tps, "higher", about="two-choice routing"),
        Metric("runtime.source.offer_tps", tps, "higher",
               about="source_main chunking into a free sink"),
        Metric("runtime.router.dispatch_tps.b256", tps, "higher",
               about="StreamRouter.dispatch into free sinks"),
        Metric("runtime.router.dispatch_tps.b4096", tps, "higher", about="same, batch 4096"),
        Metric("runtime.router.dispatch_tps.paused", tps, "higher",
               about="batch 256 with hot keys paused (migration in flight)"),
    ]
    for size in BATCH_SIZES:
        rows.append(Metric(f"runtime.messages.pickle_us.b{size}", us, "lower",
                           about="pickle.dumps of one TupleBatch"))
    for size in BATCH_SIZES:
        rows.append(Metric(f"runtime.messages.unpickle_us.b{size}", us, "lower",
                           about="pickle.loads of it"))
    rows.append(Metric("runtime.messages.bytes_per_tuple", "bytes", "lower",
                       about="pickled TupleBatch size / tuples at batch 256"))
    for size in BATCH_SIZES:
        rows.append(Metric(f"runtime.queues.roundtrip_tps.b{size}", tps, "higher",
                           about="abortable_put -> child -> abortable_get over mp.Queue"))
    for size in BATCH_SIZES:
        rows.append(Metric(f"runtime.queues.cpu_us.b{size}", us, "lower",
                           about="CPU of both processes per message of that hand-off"))
    for name in OPERATORS:
        rows.append(Metric(f"operators.process_batch_tps.{name}", tps, "higher",
                           about="Task.process_batch at batch 256"))
    rows += [
        Metric("engine.operator.single_task_tps", tps, "higher",
               about="the whole job on in-process tasks, no queues (baseline + reference)"),
        Metric("engine.state.extract_us_per_key", us, "lower", about="KeyedState.extract"),
        Metric("engine.state.install_us_per_key", us, "lower", about="KeyedState.install"),
        Metric("runtime.resilience.checkpoint_write_mb_per_s", "MB/s", "higher",
               about="CheckpointStore.save"),
        Metric("runtime.resilience.restore_mb_per_s", "MB/s", "higher",
               about="CheckpointStore.latest (digest-verified)"),
        Metric("runtime.histogram.record_ns", "ns", "lower", about="LatencyHistogram.record"),
        Metric("engine.simulator.interval_ms", ms, "lower",
               about="OperatorSimulator.run per interval snapshot"),
        # -- CPU budget: unit cost x count, as shares of measured CPU-seconds
        Metric("budget.source_frac", ratio, "lower"),
        Metric("budget.router_frac", ratio, "lower"),
        Metric("budget.serialise_frac", ratio, "lower"),
        Metric("budget.queue_frac", ratio, "lower"),
        Metric("budget.operator_frac", ratio, "lower"),
        Metric("budget.planner_frac", ratio, "lower"),
        Metric("budget.unattributed_frac", ratio, "lower",
               about="1 - sum of the shares above; recorded, not gated"),
        Metric("budget.pacing_frac", ratio, "lower",
               about="emulated-capacity sleep (owed service time - operator work) / worker busy seconds"),
        Metric("budget.migration_pause_frac", ratio, "lower",
               about="wall time with keys paused / wall (not CPU)"),
    ]
    return rows


PER_LAYER: List[Metric] = _per_layer()
