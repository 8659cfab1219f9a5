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
        assert not task.has_open_interval
        words = ["a", "a", "b"]
        out_keys, _ = task.process_batch(words, [None] * 3, 1)
        assert out_keys == words
        assert task.has_open_interval
        assert task.end_interval(1) is None
        assert not task.has_open_interval
        stats = _StageLoop._interval_stats(logic, 1, Counter(words))
        assert stats.frequency("a") == 2
        assert stats.cost("b") == 1
        assert stats.memory("a") == 2
        assert stats.total_cost() == task.metrics.cost_processed
        assert stats.total_memory() == task.state_size == 3.0
        assert task.metrics.tuples_processed == 3

    def test_state_expiry_on_interval_end(self):
        task = Task(0, WordCountOperator(window=1))
        task.process_batch(["a"] * 10, [None] * 10, 0)
        task.end_interval(0)
        task.process_batch(["b"], [None], 5)
        task.end_interval(5)
        # Window is 1 interval: the state from interval 0 is gone.
        assert task.state.key_size("a") == 0.0
        assert task.state.key_size("b") == 1.0

    def test_extract_install_updates_metrics(self):
        source = Task(0, WordCountOperator(window=1))
        target = Task(1, WordCountOperator(window=1))
        source.process_batch(["hot"] * 100, [None] * 100, 0)
        source.end_interval(0)
        snapshot = source.extract_key("hot")
        target.install_key("hot", snapshot)
        assert source.metrics.migrations_out == 1
        assert target.metrics.migrations_in == 1
        assert target.state.key_size("hot") == 100.0

    def test_end_interval_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Task(0, WordCountOperator()).end_interval(0)

    def test_invalid_task_id(self):
        with pytest.raises(ValueError):
            Task(-1, WordCountOperator())

    def test_default_logic_is_stateless_passthrough(self):
        class Passthrough(OperatorLogic):
            name = "noop"

        task = Task(0, Passthrough())
        assert task.process_batch(["x"], [1], 0) == (["x"], [1])
        assert task.state_size == 0.0


class TestMigrationProtocol:
    def test_empty_plan_is_noop(self):
        report = MigrationProtocol().execute(MigrationPlan(), 3)
        assert report.moved_keys == 0
        assert report.duration_seconds == 0.0
        assert report.pause_fraction_by_task == {}

    def test_report_counts_the_moved_keys_and_paused_tasks(self):
        plan = MigrationPlan([KeyMove("hot", 0, 2, state_size=100)])
        report = MigrationProtocol().execute(plan, 3, interval_seconds=10)
        assert report.moved_keys == 1
        assert report.moved_state == 100.0
        assert report.paused_keys == {"hot"}
        assert set(report.pause_fraction_by_task) == {0, 2}

    def test_duration_scales_with_volume(self):
        plan = MigrationPlan([KeyMove("hot", 0, 2, state_size=100)])
        report = MigrationProtocol().execute(plan, 3, interval_seconds=10)
        transfer = 100 * BYTES_PER_STATE_UNIT / BANDWIDTH_BYTES_PER_SECOND
        assert report.duration_seconds == pytest.approx(transfer + PAUSE_OVERHEAD_SECONDS)
        assert 0 < report.pause_fraction_by_task[0] <= 1.0

    def test_disjoint_pairs_transfer_in_parallel(self):
        plan = MigrationPlan(
            [KeyMove("hot", 0, 2, state_size=100), KeyMove("warm", 0, 1, state_size=10)]
        )
        both = MigrationProtocol().execute(plan, 3, interval_seconds=10)
        slowest = MigrationProtocol().execute(
            MigrationPlan([KeyMove("hot", 0, 2, state_size=100)]), 3, interval_seconds=10
        )
        assert both.duration_seconds == pytest.approx(slowest.duration_seconds)
        # ...while the task sending both keys is busy for the sum.
        assert both.pause_fraction_by_task[0] > slowest.pause_fraction_by_task[0]

    def test_unknown_task_rejected(self):
        for source, target in [(0, 9), (0, 3), (-1, 1)]:
            plan = MigrationPlan([KeyMove("hot", source, target, state_size=1)])
            with pytest.raises(KeyError):
                MigrationProtocol().execute(plan, 3)

    def test_every_move_ships_its_plan_size(self):
        plan = MigrationPlan(
            [KeyMove("unknown", 1, 2, state_size=42), KeyMove("cold", 2, 0, state_size=0.5)]
        )
        report = MigrationProtocol().execute(plan, 3)
        assert report.moved_keys == 2
        assert report.moved_state == 42.5


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
