"""Integration tests for the interval simulators."""

import numpy as np
import pytest

from repro.baselines import HashPartitioner, PartialKeyGrouping, ShufflePartitioner
from repro.core.strategy import get_strategy, list_strategies
from repro.engine import (
    OperatorSimulator,
    PipelineSimulator,
    SimulationConfig,
    StageSpec,
    TopologySpec,
)
from repro.engine.operator import OperatorLogic
from repro.operators import WindowedSelfJoin, WordCountOperator
from repro.runtime import BENCH_TOPOLOGY_WORKLOADS, RuntimeSpec
from repro.workloads import ZipfWorkload


def skewed_workload(intervals=6, num_keys=300, hot=2, tuples=30_000):
    snapshots = []
    for _ in range(intervals):
        snapshot = {f"k{i}": tuples / (num_keys * 2) for i in range(num_keys)}
        for index in range(hot):
            snapshot[f"k{index}"] = tuples / (hot * 4)
        snapshots.append(snapshot)
    return snapshots


class TestOperatorSimulator:
    def test_conservation_and_metrics(self):
        sim = OperatorSimulator(
            HashPartitioner(4, seed=1),
            WordCountOperator(),
            SimulationConfig(capacity_factor=2.0, interval_seconds=10),
        )
        metrics = sim.run(skewed_workload())
        assert len(metrics) == 6
        for record in metrics:
            assert record.processed_tuples <= record.offered_tuples + 1e-6
            assert record.skewness >= 1.0
            assert record.num_tasks == 4
        # Generous capacity: everything is processed, no backlog remains.
        assert metrics.mean("processed_tuples") == pytest.approx(
            metrics.mean("offered_tuples"), rel=1e-6
        )

    def test_per_key_models_are_charged_key_by_key(self):
        """An operator whose batch models answer one value per key (the array
        shape) is simulated with exactly those values: the offered cost and
        the stage window's state ``S(k, w)`` are Σ count × the key's own unit
        cost / state."""

        class Weighted(OperatorLogic):
            name, stateful = "weighted", True

            def batch_cost(self, keys, values=None):
                return np.array([1.0 + int(key[1:]) % 3 for key in keys])

            def batch_state_delta(self, keys, values=None):
                return np.array([0.5 * (1 + int(key[1:]) % 2) for key in keys])

        snapshot = skewed_workload(intervals=1, num_keys=40)[0]
        sim = OperatorSimulator(
            HashPartitioner(4, seed=1), Weighted(), SimulationConfig(capacity_factor=2.0)
        )
        [record] = sim.run([snapshot])
        expected_cost = sum(count * (1.0 + int(key[1:]) % 3) for key, count in snapshot.items())
        expected_state = sum(count * 0.5 * (1 + int(key[1:]) % 2) for key, count in snapshot.items())
        window = sim.simulator.runtimes[0].window
        assert sum(record.per_task_load.values()) == pytest.approx(expected_cost)
        assert window.total_windowed_memory() == pytest.approx(expected_state)
        assert window.windowed_memory("k7") == snapshot["k7"] * 1.0

    def test_mixed_partitioner_rebalances_and_migrates_state(self):
        part = get_strategy("mixed").build(4, theta_max=0.1, max_table_size=200, seed=1)
        sim = OperatorSimulator(part, WordCountOperator(), SimulationConfig(capacity_factor=1.1))
        metrics = sim.run(skewed_workload())
        assert metrics.rebalance_count >= 1
        assert sum(metrics.series("migrated_state")) > 0
        # Skewness drops after the first adjustment.
        skew = metrics.series("skewness")
        assert skew[-1] < skew[0]
        assert part.routing_table_size > 0

    def test_mixed_beats_hash_on_throughput_under_saturation(self):
        config = SimulationConfig(capacity_factor=1.05)
        hash_metrics = OperatorSimulator(
            HashPartitioner(4, seed=1), WordCountOperator(), config
        ).run(skewed_workload())
        mixed_metrics = OperatorSimulator(
            get_strategy("mixed").build(4, theta_max=0.05, seed=1),
            WordCountOperator(),
            config,
        ).run(skewed_workload())
        assert mixed_metrics.mean_throughput >= hash_metrics.mean_throughput
        assert mixed_metrics.mean_latency_ms <= hash_metrics.mean_latency_ms

    @pytest.mark.parametrize(
        "strategy", [spec.name for spec in list_strategies() if spec.rebalancing]
    )
    def test_table_size_recorded_on_intervals_without_a_plan(self, strategy):
        """A live routing table is reported every interval, not only on the
        ones that replan (regression: Readj / DKG used to record 0)."""
        part = get_strategy(strategy).build(8, theta_max=0.3, seed=3)
        sim = OperatorSimulator(part, WordCountOperator(), SimulationConfig(capacity_factor=1.1))
        workload = ZipfWorkload(
            num_keys=2000, skew=0.85, tuples_per_interval=20_000, fluctuation=0.3,
            num_tasks=8, intervals=10, seed=3, sampled=False,
        ).take(10)
        sizes = []

        def stream():
            for snapshot in workload:
                yield snapshot  # the simulator closes the interval before resuming us
                sizes.append(part.assignment.routing_table.size)

        records = sim.run(stream()).intervals
        first = next(index for index, record in enumerate(records) if record.rebalanced)
        assert any(not record.rebalanced for record in records[first + 1 :])
        for record, size in zip(records[first:], sizes[first:]):
            assert record.routing_table_size == size > 0

    def test_shuffle_is_perfectly_balanced(self):
        metrics = OperatorSimulator(
            ShufflePartitioner(4), WordCountOperator(), SimulationConfig()
        ).run(skewed_workload())
        assert metrics.mean_skewness == pytest.approx(1.0)

    def test_pkg_pays_merge_overhead_on_stateful_operator(self):
        config = SimulationConfig(capacity_factor=1.3)
        pkg = OperatorSimulator(
            PartialKeyGrouping(4, seed=1), WordCountOperator(), config
        ).run(skewed_workload())
        ideal = OperatorSimulator(
            ShufflePartitioner(4), WordCountOperator(), config
        ).run(skewed_workload())
        # The merge tax shows up as lost throughput relative to pure shuffle.
        assert pkg.mean_throughput < ideal.mean_throughput

    def test_scale_out_uses_new_task(self):
        part = get_strategy("mixed").build(3, theta_max=0.1, max_table_size=500, seed=2)
        sim = OperatorSimulator(part, WordCountOperator(), SimulationConfig(capacity_factor=1.2))
        metrics = sim.run(skewed_workload(intervals=8), scale_out_at={4: 4})
        assert metrics.intervals[3].num_tasks == 3
        assert metrics.intervals[4].num_tasks == 4
        # After scale-out and one adjustment, the new task receives load.
        last = metrics.intervals[-1]
        assert last.per_task_load.get(3, 0.0) > 0.0

    def test_scale_out_cannot_shrink(self):
        part = get_strategy("mixed").build(3, seed=2)
        sim = OperatorSimulator(part, WordCountOperator(), SimulationConfig())
        with pytest.raises(ValueError):
            sim.run(skewed_workload(intervals=3), scale_out_at={1: 2})

    def test_tasks_accessible(self):
        sim = OperatorSimulator(HashPartitioner(2), WordCountOperator(), SimulationConfig())
        metrics = sim.run(skewed_workload(intervals=2))
        assert [record.num_tasks for record in metrics] == [2, 2]
        assert set(metrics.intervals[-1].per_task_load) == {0, 1}


class TestPipelineSimulator:
    def _two_stage_topology(self, parallelism=4):
        return TopologySpec(
            "pipeline",
            [
                StageSpec(
                    "join",
                    WindowedSelfJoin(window=2),
                    HashPartitioner(parallelism, seed=1),
                    key_mapper=lambda key: hash(key) % 10,
                ),
                StageSpec("agg", WordCountOperator(), HashPartitioner(2, seed=2)),
            ],
        )

    def test_two_stage_flow(self):
        sim = PipelineSimulator(
            self._two_stage_topology(), SimulationConfig(capacity_factor=2.0)
        )
        result = sim.run(skewed_workload(intervals=5))
        assert set(result.stages) == {"join", "agg"}
        assert len(result.pipeline) == 5
        # With generous capacity the last stage processes what the first emits.
        join = result.stages["join"]
        agg = result.stages["agg"]
        assert agg.mean("offered_tuples") == pytest.approx(
            join.mean("processed_tuples"), rel=1e-6
        )
        # Pipeline latency adds up across stages.
        assert result.pipeline.mean_latency_ms >= join.mean_latency_ms

    def test_key_mapper_rekeys_the_downstream_stream(self):
        """A stage's output reaches the next stage under the mapped keys."""
        seen = []

        class RecordingPartitioner(HashPartitioner):
            def route_snapshot(self, freqs):
                seen.append(set(freqs))
                return super().route_snapshot(freqs)

        topo = TopologySpec(
            "rekey",
            [
                StageSpec(
                    "up",
                    WordCountOperator(),
                    HashPartitioner(2, seed=1),
                    key_mapper=lambda key: int(key[1:]) % 3,
                ),
                StageSpec("down", WordCountOperator(), RecordingPartitioner(2, seed=2)),
            ],
        )
        result = PipelineSimulator(topo, SimulationConfig(capacity_factor=2.0)).run(
            skewed_workload(intervals=2)
        )
        assert seen and all(keys == {0, 1, 2} for keys in seen)
        # Re-keying merges keys; it never changes the tuple volume.
        assert result.stages["down"].mean("offered_tuples") == pytest.approx(
            result.stages["up"].mean("processed_tuples"), rel=1e-6
        )

    def test_rejects_a_dag_spec(self):
        """The fluid model is a chain model: the diamond cannot be simulated."""
        spec = RuntimeSpec(workload="diamond", parallelism=2, scale="tiny")
        diamond = BENCH_TOPOLOGY_WORKLOADS["diamond"].build_topology(
            spec.resolve_scale(), spec, "storm", lambda name, tasks: HashPartitioner(tasks)
        )
        with pytest.raises(ValueError, match="'diamond' is not a chain"):
            PipelineSimulator(diamond)

    def test_unknown_scale_out_stage_rejected(self):
        sim = PipelineSimulator(self._two_stage_topology(), SimulationConfig())
        with pytest.raises(KeyError):
            sim.run(skewed_workload(intervals=1), scale_out_schedule={0: {"nope": 5}})

    def test_simulation_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(interval_seconds=0)
        with pytest.raises(ValueError):
            SimulationConfig(capacity_factor=0)
        with pytest.raises(ValueError):
            SimulationConfig(fixed_capacity=-1)
