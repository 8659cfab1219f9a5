"""Multi-stage process topologies: chaining, re-keying, failure handling."""

import multiprocessing
import time

import numpy as np
import pytest

from repro.baselines.hash_only import HashPartitioner
from repro.engine.operator import OperatorLogic
from repro.operators import build_q5_topology
from repro.operators.windowed_aggregate import WindowedAggregate
from repro.operators.wordcount import WordCountOperator
from repro.runtime import (
    RuntimeConfig,
    StageSpec,
    TopologyRuntime,
    TopologySpec,
)
from repro.runtime.bench import _expand_snapshots
from repro.workloads import TPCHStreamWorkload, generate_tpch


def _bucket(key):
    """Module-level key mapper (picklable under any start method)."""
    return key % 5


def _stream(intervals=3, keys=40, repeats=25):
    return [
        [(key, None) for key in range(keys) for _ in range(repeats)]
        for _ in range(intervals)
    ]


def _config(**overrides):
    defaults = dict(
        parallelism=2,
        batch_size=64,
        queue_capacity=4,
        service_time_us=5.0,
    )
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


def _two_stage_spec():
    return TopologySpec(
        "two-stage",
        [
            StageSpec(
                name="counter",
                logic=WordCountOperator(emit_updates=True),
                partitioner=HashPartitioner(2, seed=0),
                key_mapper=_bucket,
            ),
            StageSpec(
                name="agg",
                logic=WindowedAggregate(window=16),
                partitioner=HashPartitioner(2, seed=1),
            ),
        ],
    )


class TestChainedExecution:
    @pytest.fixture(scope="class")
    def outcome(self):
        runtime = TopologyRuntime(
            _two_stage_spec(), _config(collect_final_state=True)
        )
        return runtime.run(_stream())

    def test_every_stage_processes_every_tuple(self, outcome):
        total = 3 * 40 * 25
        assert outcome.tuples_offered == total
        for stage in outcome.stages.values():
            # Selectivity 1 everywhere: counter emits one update per input.
            assert stage.tuples_offered == total
            assert stage.tuples_processed == total
            assert stage.latency.total == total

    def test_stage_order_and_names(self, outcome):
        assert outcome.stage_names == ["counter", "agg"]
        assert outcome.stages["counter"].label == "counter"
        assert outcome.final.label == "agg"
        assert outcome.tuples_processed == outcome.final.tuples_processed

    def test_key_mapper_rekeys_between_stages(self, outcome):
        # The counter's output is re-keyed modulo 5, so the aggregation
        # stage's state lives entirely in the mapped key domain.
        assert set(outcome.final.final_state) == set(range(5))
        assert set(outcome.stages["counter"].final_state) == set(range(40))

    def test_end_to_end_latency_measured_at_final_stage_only(self, outcome):
        assert outcome.stages["counter"].e2e_latency.total == 0
        assert outcome.final.e2e_latency.total == 3 * 40 * 25
        # End-to-end spans both stages, so it dominates the final stage's
        # own dispatch-to-completion latency.
        assert (
            outcome.e2e_latency.mean_us
            >= outcome.final.latency.mean_us
        )

    def test_per_stage_interval_accounting(self, outcome):
        for stage in outcome.stages.values():
            processed = stage.metrics.series("processed_tuples")
            assert len(processed) == 3
            assert sum(processed) == stage.tuples_processed

    def test_chain_summary_has_bench_row_shape(self, outcome):
        summary = outcome.summary()
        for key in (
            "tuples",
            "wall_seconds",
            "tuples_per_second",
            "latency_p50_ms",
            "latency_p99_ms",
            "rebalances",
            "shed_tuples",
        ):
            assert key in summary
        assert summary["tuples"] == 3 * 40 * 25
        assert summary["tuples_per_second"] > 0


class TestSpecValidation:
    def test_rejects_empty_topology(self):
        with pytest.raises(ValueError):
            TopologySpec("empty", [])

    def test_rejects_duplicate_stage_names(self):
        stage = StageSpec(
            name="same",
            logic=WordCountOperator(),
            partitioner=HashPartitioner(2),
        )
        with pytest.raises(ValueError, match="duplicate"):
            TopologySpec("dupes", [stage, stage])

    def test_rejects_empty_stage_name(self):
        with pytest.raises(ValueError):
            StageSpec(
                name="", logic=WordCountOperator(), partitioner=HashPartitioner(2)
            )

    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RuntimeConfig(offered_rate=0.0)
        with pytest.raises(ValueError):
            RuntimeConfig(checkpoint_every=0)


def _crashing_source(*args, **kwargs):
    """Source entry point that dies immediately (module-level: picklable)."""
    raise RuntimeError("source boom")


class _PoisonOperator(OperatorLogic):
    """Raises on one key — simulates an operator bug in a worker process."""

    name = "poison"
    stateful = True

    def process_batch(self, keys, values, interval, state, task_id):
        if 13 in keys:
            raise ValueError("poisoned tuple")
        return [], []


class TestFailurePaths:
    def test_worker_crash_surfaces_clean_error_without_hanging(self):
        spec = TopologySpec(
            "crash",
            [
                StageSpec(
                    name="counter",
                    logic=WordCountOperator(emit_updates=True),
                    partitioner=HashPartitioner(2, seed=0),
                ),
                StageSpec(
                    name="poison",
                    logic=_PoisonOperator(),
                    partitioner=HashPartitioner(2, seed=1),
                ),
            ],
        )
        runtime = TopologyRuntime(
            spec, _config(queue_capacity=2, join_timeout_seconds=30.0)
        )
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="poison"):
            runtime.run(_stream(intervals=4))
        # The whole topology (source, both stages) must shut down promptly:
        # no hang on a queue nobody drains anymore.
        assert time.monotonic() - started < 25.0

    def test_failed_process_start_surfaces_and_leaks_no_worker(self, monkeypatch):
        # The second Process.start() fails (say, the fork limit).  The caller
        # must see that error — not an AssertionError from joining the
        # processes that never started — and the worker that did start must
        # be reaped.
        base = multiprocessing.process.BaseProcess
        real_start = base.start
        started = []

        def flaky_start(process):
            started.append(process.name)
            if len(started) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            real_start(process)

        monkeypatch.setattr(base, "start", flaky_start)
        spec = TopologySpec(
            "no-fork",
            [
                StageSpec(
                    name="counter",
                    logic=WordCountOperator(emit_updates=False),
                    partitioner=HashPartitioner(2, seed=0),
                )
            ],
        )
        with pytest.raises(BlockingIOError):
            TopologyRuntime(spec, _config()).run(_stream(intervals=1))
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    def test_source_crash_surfaces_instead_of_hanging(self, monkeypatch):
        # A source process that dies before its end-of-stream mark must trip
        # the stage-0 watchdog; without it the ingress poll waits forever.
        import repro.runtime.topology as topology_module

        monkeypatch.setattr(topology_module, "source_main", _crashing_source)
        spec = TopologySpec(
            "dead-source",
            [
                StageSpec(
                    name="counter",
                    logic=WordCountOperator(emit_updates=False),
                    partitioner=HashPartitioner(2, seed=0),
                )
            ],
        )
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="source process died"):
            TopologyRuntime(
                spec, _config(join_timeout_seconds=30.0)
            ).run(_stream(intervals=1))
        assert time.monotonic() - started < 25.0

    def test_single_stage_crash_reports_worker_traceback(self):
        spec = TopologySpec(
            "solo-crash",
            [
                StageSpec(
                    name="poison",
                    logic=_PoisonOperator(),
                    partitioner=HashPartitioner(2, seed=0),
                )
            ],
        )
        with pytest.raises(RuntimeError, match="poisoned tuple"):
            TopologyRuntime(spec, _config(join_timeout_seconds=30.0)).run(
                _stream(intervals=2)
            )


class TestOpenLoopSource:
    def test_paced_source_slows_the_run_to_the_offered_rate(self):
        total = 3 * 40 * 25  # 3000 tuples
        rate = 4000.0
        spec = TopologySpec(
            "paced",
            [
                StageSpec(
                    name="counter",
                    logic=WordCountOperator(emit_updates=False),
                    partitioner=HashPartitioner(2, seed=0),
                )
            ],
        )
        outcome = TopologyRuntime(spec, _config(offered_rate=rate)).run(_stream())
        stage = outcome.stages["counter"]
        assert stage.tuples_processed == total
        # Open loop: the wall clock is set by the offered rate, not the drain.
        assert outcome.wall_seconds >= (total / rate) * 0.8
        # Below saturation the measured end-to-end latency stays far under
        # the closed-loop queue-bound latency (which is ~queue-depth × pace).
        assert stage.e2e_latency.p50_us < 0.25e6


class TestBackpressureChaining:
    def test_slow_final_stage_throttles_the_whole_chain(self):
        # The aggregation is paced ~10× slower than stage 0 can produce;
        # bounded queues must stall the chain down to the sink's rate rather
        # than buffer unboundedly (offered == processed everywhere, and the
        # wall clock is set by the slow stage's service demand).
        spec = _two_stage_spec()
        total = 2 * 40 * 25
        service_us = 400.0
        outcome = TopologyRuntime(
            spec, _config(service_time_us=service_us, queue_capacity=2)
        ).run(_stream(intervals=2))
        for stage in outcome.stages.values():
            assert stage.tuples_processed == total
        # Each agg worker owes ~(total/2)×service of sleep; the chain cannot
        # finish faster than that floor.
        floor_seconds = (total / 2) * service_us / 1e6
        assert outcome.wall_seconds >= floor_seconds * 0.8


class TestUnpacedChainCoalescing:
    """An unpaced Q5 chain: workers are faster than the routers, so batches
    pile up in the downstream ingresses and are dispatched merged."""

    INTERVALS = 4

    @pytest.fixture(scope="class")
    def run(self):
        dataset = generate_tpch(scale=0.001, seed=0)
        topology = build_q5_topology(
            dataset,
            lambda stage, tasks: HashPartitioner(tasks, seed=0),
            parallelism=2,
            window=2,
        )
        snapshots = TPCHStreamWorkload(
            dataset, tuples_per_interval=6_000, intervals=self.INTERVALS, seed=0
        ).take(self.INTERVALS)
        stream = _expand_snapshots(snapshots, np.random.default_rng(7), value=1.0)
        outcome = TopologyRuntime(
            topology,
            RuntimeConfig(
                batch_size=128,
                service_time_us=0.0,
                collect_final_state=True,
                sanitize=True,
            ),
        ).run(stream)
        return outcome, sum(len(tuples) for tuples in stream)

    def test_every_stage_sees_the_whole_stream(self, run):
        outcome, total = run
        assert outcome.sanitizer["violations"] == []
        assert outcome.final.tuples_processed == total
        for stage in outcome.stages.values():
            assert stage.tuples_processed == stage.tuples_offered == total
        assert outcome.final.final_state

    def test_intervals_close_once_and_in_order(self, run):
        outcome, _ = run
        for stage in outcome.stages.values():
            closed = [int(row.interval) for row in stage.metrics]
            assert closed == list(range(self.INTERVALS))

    def test_message_counters_balance(self, run):
        outcome, total = run
        stages = list(outcome.stages.values())
        for stage in stages:
            messages = stage.messages
            assert messages["tuples_to_workers"] == total
            assert messages["to_workers"] >= messages["chunks"] > 0
            assert stage.tuples_per_worker_message == total / messages["to_workers"]
        # Source batches are exactly batch_size: nothing to merge up front.
        assert stages[0].messages["chunks"] == stages[0].messages["ingress"]
        # Downstream a chunk is one or more ingress messages, never a part
        # of one (workers emit at most a chunk's worth per message), and
        # each stage's ingress is what its upstream's workers were sent.
        for upstream, stage in zip(stages, stages[1:]):
            assert stage.messages["chunks"] <= stage.messages["ingress"]
            assert stage.messages["ingress"] == upstream.messages["to_workers"]
