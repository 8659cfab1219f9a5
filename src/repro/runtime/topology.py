"""The multi-stage process topology runtime.

This is the execution core of :mod:`repro.runtime`: a
:class:`~repro.engine.topology.TopologySpec` (the same description the fluid
simulator takes) chains ``StageSpec`` s — each stage owning its own
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

A single operator behind one router is simply a ``TopologySpec`` with one
stage; there is no separate single-stage runtime.  The per-stage router
thread is :mod:`repro.runtime.stage_loop`, its fan-in interval barrier
:mod:`repro.runtime.barrier`, the measured outcome :mod:`repro.runtime.result`.
"""

from __future__ import annotations

import multiprocessing
import time
from functools import partial
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.engine.topology import SOURCE_ORIGIN, StageSpec, TopologySpec
from repro.runtime.config import RuntimeConfig
from repro.runtime.lifecycle import StageObserver
from repro.runtime.queues import Channel, _AbortFlag
from repro.runtime.resilience.checkpoint import CheckpointStore
from repro.runtime.resilience.scaling import ScaleDirective, StageResizer
from repro.runtime.resilience.supervisor import (
    KillDirective,
    KillInjector,
    RetentionLog,
    StageSupervisor,
)
from repro.runtime.result import TopologyResult
from repro.runtime.sanitizer import SanitizerReport, StageSanitizer
from repro.runtime.source import source_main
from repro.runtime.stage_loop import _StageLoop
from repro.runtime.worker import worker_main

__all__ = ["TopologyRuntime"]

Key = Hashable
TupleStream = Iterable[List[Tuple[Key, Any]]]


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
        """The run's fault-injection and elasticity directives.

        Both are checked against the topology's stage names before any
        process is spawned.
        """
        kill, scale = self.config.kill_worker, self.config.scale_at
        names = set(self.spec.stage_names())
        for kind, directive in (("kill", kill), ("scale", scale)):
            if directive is not None and directive.stage not in names:
                raise ValueError(
                    f"{kind} directive {directive.spec()!r} names unknown stage "
                    f"{directive.stage!r} (topology has {sorted(names)})"
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

        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        abort = _AbortFlag()
        sanitizer_report = SanitizerReport() if config.sanitize else None

        stages = self.spec.stages
        kill, scale = self._directives()
        # The one transport: every queue of the run is built by this factory.
        channel = partial(Channel, context)
        # One bounded ingress queue per stage: every upstream edge (source
        # and/or producer stages) funnels into the consumer's shared queue,
        # so backpressure — and chained starvation — propagates along every
        # edge of the DAG: a full consumer queue blocks each of its
        # producers' emit puts.
        ingresses: Dict[str, Any] = {
            stage.name: channel(
                max(2, config.queue_capacity), f"ingress:{stage.name}"
            )
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

        parallelism_of = {stage.name: stage.parallelism for stage in stages}
        all_workers: List[Any] = []
        loops: List[_StageLoop] = []
        for index, stage in enumerate(stages):

            def queue_factory(task: int, _name: str = stage.name) -> Any:
                return channel(config.queue_capacity, f"worker:{_name}:{task}")

            worker_queues = [queue_factory(task) for task in range(stage.parallelism)]
            # Unbounded in messages: a report waits for the coordinator's
            # attention only once the pipe is full of unread ones, and the
            # stage's watchdog pumps the mailbox whenever its thread waits.
            out_queue = channel(0, f"out:{stage.name}")
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
            upstream_names = self.spec.upstreams_of(stage.name)
            # The stage's lifecycle observers, in hook order.
            observers: List[StageObserver] = []
            if sanitizer_report is not None:
                observers.append(
                    StageSanitizer(stage.name, sanitizer_report, origins=upstream_names)
                )
            if config.checkpoint_dir is not None:
                store = CheckpointStore(config.checkpoint_dir, stage.name)
                log = RetentionLog(stage.parallelism)
                every = config.checkpoint_every
                observers.append(StageSupervisor(stage.name, store, log, checkpoint_every=every))
            if kill is not None and kill.stage == stage.name:
                observers.append(KillInjector(kill))
            if scale is not None and scale.stage == stage.name:
                observers.append(StageResizer(scale))
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
                    observers=observers,
                    worker_factory=worker_factory,
                    queue_factory=queue_factory,
                    initial_service_us=initial_service_us,
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
        drained = False
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
            drained = True
        finally:
            # Processes exit on their own only after a drained run; after a
            # failed stage or a start() that raised, nobody feeds them again.
            force = abort.tripped or not drained
            self._shutdown([source], force=force)
            # Respawned and scaled-out workers included, not just the
            # initial groups.
            self._shutdown(
                [
                    process
                    for loop in loops
                    for process in loop.spawned_processes
                ],
                force=force,
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
        # A failed ``Process.start()`` leaves never-started processes in the
        # list; joining one raises and would mask the real error.
        processes = [process for process in processes if process.pid is not None]
        deadline = time.monotonic() + (0.5 if force else 10.0)
        for process in processes:
            process.join(timeout=max(0.1, deadline - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
