"""Tests for tasks, operator logic, the migration protocol and metrics."""

from collections import Counter

import pytest

from repro.core.migration import KeyMove, MigrationPlan
from repro.engine.metrics import IntervalMetrics, MetricsCollector
from repro.engine.migration_protocol import (
    BANDWIDTH_BYTES_PER_SECOND,
    BYTES_PER_STATE_UNIT,
    PAUSE_OVERHEAD_SECONDS,
    MigrationProtocol,
    MigrationReport,
)
from repro.engine.operator import OperatorLogic, Task
from repro.operators import WordCountOperator
from repro.runtime.stage_loop import _StageLoop


class TestTask:
    # A task no longer measures per-key statistics: the stage plans on what
    # its router counted (``_StageLoop._interval_stats``), so the per-key
    # assertions read that, over the keys the task was given.

    def test_event_level_processing_and_stage_stats(self):
        logic = WordCountOperator(window=2)
        task = Task(0, logic)
        task.begin_interval(1)
        words = ["a", "a", "b"]
        out_keys, _ = task.process_batch(words, [None] * 3, 1)
        assert out_keys == words
        assert task.end_interval() is None
        stats = _StageLoop._interval_stats(logic, 1, Counter(words))
        assert stats.frequency("a") == 2
        assert stats.cost("b") == 1
        assert stats.total_cost() == task.metrics.cost_processed
        assert task.metrics.tuples_processed == 3
        assert task.state_size == 3.0

    def test_ingest_counts_fluid_path(self):
        logic = WordCountOperator(window=1)
        task = Task(1, logic)
        counts = {"a": 10, "b": 5}
        task.ingest_counts(0, counts, logic.cost_per_tuple, logic.state_per_tuple)
        assert task.has_open_interval
        task.end_interval()
        assert not task.has_open_interval
        stats = _StageLoop._interval_stats(logic, 0, counts)
        assert stats.frequency("a") == 10
        assert stats.memory("b") == 5
        assert stats.total_memory() == task.state_size == 15.0
        assert stats.total_cost() == task.metrics.cost_processed == 15.0
        assert task.metrics.tuples_processed == 15

    def test_state_expiry_on_interval_end(self):
        task = Task(0, WordCountOperator(window=1))
        task.ingest_counts(0, {"a": 10}, 1.0, 1.0)
        task.end_interval()
        task.ingest_counts(5, {"b": 1}, 1.0, 1.0)
        task.end_interval()
        # Window is 1 interval: the state from interval 0 is gone.
        assert task.state.key_size("a") == 0.0

    def test_extract_install_updates_metrics(self):
        source = Task(0, WordCountOperator(window=1))
        target = Task(1, WordCountOperator(window=1))
        source.ingest_counts(0, {"hot": 100}, 1.0, 1.0)
        source.end_interval()
        snapshot = source.extract_key("hot")
        target.install_key("hot", snapshot)
        assert source.metrics.migrations_out == 1
        assert target.metrics.migrations_in == 1
        assert target.state.key_size("hot") == 100.0

    def test_end_interval_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Task(0, WordCountOperator()).end_interval()

    def test_invalid_task_id(self):
        with pytest.raises(ValueError):
            Task(-1, WordCountOperator())

    def test_default_logic_is_stateless_passthrough(self):
        class Passthrough(OperatorLogic):
            name = "noop"

        task = Task(0, Passthrough())
        task.begin_interval(0)
        assert task.process_batch(["x"], [1], 0) == (["x"], [1])
        assert task.state_size == 0.0


class TestMigrationProtocol:
    def _tasks(self):
        tasks = {i: Task(i, WordCountOperator(window=2)) for i in range(3)}
        tasks[0].ingest_counts(0, {"hot": 100, "warm": 10}, 1.0, 1.0)
        tasks[1].ingest_counts(0, {"cold": 5}, 1.0, 1.0)
        for task in tasks.values():
            if task.has_open_interval:  # only tasks that ingested
                task.end_interval()
        return tasks

    def test_empty_plan_is_noop(self):
        protocol = MigrationProtocol()
        report = protocol.execute(MigrationPlan(), self._tasks())
        assert report.moved_keys == 0
        assert report.duration_seconds == 0.0
        assert report.pause_fraction_by_task == {}

    def test_state_actually_moves(self):
        tasks = self._tasks()
        plan = MigrationPlan([KeyMove("hot", 0, 2, state_size=100)])
        report = MigrationProtocol().execute(plan, tasks, interval_seconds=10)
        assert report.moved_keys == 1
        assert report.moved_state == 100.0
        assert tasks[0].state.key_size("hot") == 0.0
        assert tasks[2].state.key_size("hot") == 100.0
        assert report.paused_keys == {"hot"}
        assert set(report.pause_fraction_by_task) == {0, 2}

    def test_duration_scales_with_volume(self):
        tasks = self._tasks()
        plan = MigrationPlan([KeyMove("hot", 0, 2, state_size=100)])
        report = MigrationProtocol().execute(plan, tasks, interval_seconds=10)
        transfer = 100 * BYTES_PER_STATE_UNIT / BANDWIDTH_BYTES_PER_SECOND
        assert report.duration_seconds == pytest.approx(transfer + PAUSE_OVERHEAD_SECONDS)
        assert 0 < report.pause_fraction_by_task[0] <= 1.0

    def test_disjoint_pairs_transfer_in_parallel(self):
        plan = MigrationPlan(
            [KeyMove("hot", 0, 2, state_size=100), KeyMove("warm", 0, 1, state_size=10)]
        )
        both = MigrationProtocol().execute(plan, self._tasks(), interval_seconds=10)
        slowest = MigrationProtocol().execute(
            MigrationPlan([KeyMove("hot", 0, 2, state_size=100)]),
            self._tasks(),
            interval_seconds=10,
        )
        assert both.duration_seconds == pytest.approx(slowest.duration_seconds)
        # ...while the task sending both keys is busy for the sum.
        assert both.pause_fraction_by_task[0] > slowest.pause_fraction_by_task[0]

    def test_unknown_task_rejected(self):
        plan = MigrationPlan([KeyMove("hot", 0, 9, state_size=1)])
        with pytest.raises(KeyError):
            MigrationProtocol().execute(plan, self._tasks())

    def test_stateless_key_uses_plan_estimate(self):
        tasks = self._tasks()
        plan = MigrationPlan([KeyMove("unknown", 1, 2, state_size=42)])
        report = MigrationProtocol().execute(plan, tasks)
        assert report.moved_state == 42.0


class TestMetricsCollector:
    def _collector(self):
        collector = MetricsCollector("test")
        for interval in range(4):
            collector.record(
                IntervalMetrics(
                    interval=interval,
                    offered_tuples=100,
                    processed_tuples=100 - interval * 10,
                    throughput=10 - interval,
                    latency_ms=5.0 * (interval + 1),
                    skewness=1.0 + interval / 10,
                    rebalanced=(interval % 2 == 1),
                    migration_fraction=0.1 * interval,
                    generation_time=0.01 * interval,
                )
            )
        return collector

    def test_series_and_aggregates(self):
        collector = self._collector()
        assert len(collector) == 4
        assert collector.series("throughput") == [10, 9, 8, 7]
        assert collector.mean("throughput") == pytest.approx(8.5)
        assert collector.mean("throughput", skip_warmup=2) == pytest.approx(7.5)
        assert collector.minimum("throughput") == 7
        assert collector.maximum("skewness") == pytest.approx(1.3)

    def test_latency_is_processed_weighted(self):
        collector = self._collector()
        weights = collector.series("processed_tuples")
        latencies = collector.series("latency_ms")
        expected = sum(w * l for w, l in zip(weights, latencies)) / sum(weights)
        assert collector.mean_latency_ms == pytest.approx(expected)

    def test_rebalance_metrics_only_over_rebalanced_intervals(self):
        collector = self._collector()
        assert collector.rebalance_count == 2
        assert collector.mean_migration_fraction == pytest.approx((0.1 + 0.3) / 2)
        assert collector.mean_generation_time == pytest.approx((0.01 + 0.03) / 2)

    def test_summary_keys(self):
        summary = self._collector().summary()
        for key in (
            "throughput_mean",
            "latency_ms_mean",
            "skewness_mean",
            "migration_fraction_mean",
            "rebalances",
        ):
            assert key in summary

    def test_empty_collector(self):
        collector = MetricsCollector()
        assert collector.mean_throughput == 0.0
        assert collector.mean_latency_ms == 0.0
        assert collector.summary()["intervals"] == 0.0
