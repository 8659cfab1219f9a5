"""Process-parallel streaming runtime.

Where :mod:`repro.engine.simulator` *models* an interval as a fluid
single-server queue, this package *executes* it as a dataflow **topology**: a
:class:`TopologySpec` (the one description both engines take — defined in
:mod:`repro.engine.topology`, re-exported here) chains stages, each stage
owning a group of worker
processes (one :class:`~repro.engine.operator.Task` instance per process), a
:class:`~repro.runtime.router.StreamRouter` dispatching micro-batches via the
strategy registry's :meth:`~repro.baselines.base.Partitioner.assign_batch`
fast path, and a :class:`~repro.runtime.controller.RuntimeController` running
the paper's rebalancing planner online at interval boundaries with **live key
migration** (pause-key → ship :class:`~repro.engine.state.KeyedState` →
resume, the real wall-clock pause measured).  Every queue — worker inbound
and inter-stage egress — is bounded, so backpressure chains upstream exactly
as Storm's backpushing does, reproducing the paper's Fig. 16 chained
starvation on real processes.  A separate source process offers tuples
closed-loop (saturated drain) or open-loop at a fixed rate
(:mod:`repro.runtime.source`), making latency below saturation measurable.
One operator behind one router is a one-stage :class:`TopologySpec`.

Modules: ``config`` (``RuntimeConfig``), ``topology`` (``TopologyRuntime``:
wiring, spawn, shutdown), ``stage_loop`` (the per-stage router thread),
``lifecycle`` (its observers' hooks), ``barrier`` (``MarkBarrier``), ``result``
(the result types and their fold), ``queues`` (every abort-aware blocking
primitive), ``bench`` (``repro bench``).

Per-worker throughput counters and latency histograms (lifetime plus
per-interval deltas) aggregate into
:class:`~repro.engine.metrics.MetricsCollector`-compatible results, so fluid
and process runs are directly comparable.  Workers emulate a fixed per-task
service capacity (``service_time_us`` per cost unit, enforced by pacing —
optionally calibrated from the first measured interval), mirroring the
paper's saturated-CPU setup: measured throughput then degrades with workload
imbalance even when the host has fewer cores than workers, because paced
(sleeping) workers overlap.
"""

from repro.engine.topology import StageSpec, TopologySpec
from repro.runtime.barrier import MarkBarrier
from repro.runtime.bench import BENCH_TOPOLOGY_WORKLOADS, RuntimeSpec, run_bench
from repro.runtime.config import RuntimeConfig, calibrated_service_time_us
from repro.runtime.controller import LiveMigrationReport, RuntimeController
from repro.runtime.histogram import LatencyHistogram
from repro.runtime.resilience.scaling import ScaleDirective
from repro.runtime.resilience.supervisor import KillDirective
from repro.runtime.result import RuntimeResult, TopologyResult
from repro.runtime.router import StreamRouter
from repro.runtime.topology import TopologyRuntime

__all__ = [
    "BENCH_TOPOLOGY_WORKLOADS",
    "KillDirective",
    "LatencyHistogram",
    "LiveMigrationReport",
    "MarkBarrier",
    "RuntimeConfig",
    "RuntimeController",
    "RuntimeResult",
    "RuntimeSpec",
    "ScaleDirective",
    "StageSpec",
    "StreamRouter",
    "TopologyResult",
    "TopologyRuntime",
    "TopologySpec",
    "calibrated_service_time_us",
    "run_bench",
]
