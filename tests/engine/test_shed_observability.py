"""Observable backpressure shedding: per-task drop totals (satellite).

Shed tuples used to disappear into an aggregate; now every drop is charged to
the task that dropped it — through the :class:`ShedLedger`, the per-interval
``per_task_shed`` map and the :meth:`MetricsCollector.shed_by_task` rollup.
"""

import pytest

from repro.baselines.hash_only import HashPartitioner
from repro.engine.backpressure import ShedLedger
from repro.engine.metrics import IntervalMetrics, MetricsCollector
from repro.engine.simulator import OperatorSimulator, SimulationConfig
from repro.operators.wordcount import WordCountOperator


class TestShedLedger:
    def test_accumulates_per_task(self):
        ledger = ShedLedger()
        ledger.record(0, 10.0)
        ledger.record(2, 5.0)
        ledger.record(0, 2.5)
        assert ledger.by_task() == {0: 12.5, 2: 5.0}
        assert ledger.total == 17.5
        assert bool(ledger)

    def test_ignores_non_positive(self):
        ledger = ShedLedger()
        ledger.record(0, 0.0)
        ledger.record(1, -3.0)
        assert not ledger
        assert ledger.by_task() == {}

    def test_clear(self):
        ledger = ShedLedger()
        ledger.record(0, 1.0)
        ledger.clear()
        assert ledger.total == 0.0


class TestSimulatorExposesShedPerTask:
    @pytest.fixture()
    def overloaded_run(self):
        """One hot task far beyond capacity: shedding is inevitable."""
        partitioner = HashPartitioner(2, seed=0)
        hot_key = 0
        hot_task = partitioner.route(hot_key)
        workload = [
            {hot_key: 10_000.0, "cold-a": 50.0, "cold-b": 50.0} for _ in range(4)
        ]
        simulator = OperatorSimulator(
            partitioner,
            WordCountOperator(emit_updates=False),
            SimulationConfig(fixed_capacity=600.0, max_backlog_intervals=1.0),
        )
        return simulator.run(workload), hot_task, simulator

    def test_shed_is_charged_to_the_hot_task(self, overloaded_run):
        collector, hot_task, _ = overloaded_run
        totals = collector.shed_by_task()
        assert totals
        assert set(totals) == {hot_task}
        assert totals[hot_task] > 0

    def test_per_task_shed_sums_to_aggregate(self, overloaded_run):
        collector, _, _ = overloaded_run
        for record in collector.intervals:
            assert sum(record.per_task_shed.values()) == pytest.approx(
                record.shed_tuples
            )
        total_shed = sum(collector.series("shed_tuples"))
        assert sum(collector.shed_by_task().values()) == pytest.approx(total_shed)
        assert total_shed > 0

    def test_stage_ledger_matches_collector(self, overloaded_run):
        collector, _, simulator = overloaded_run
        ledger = simulator.simulator.runtimes[0].shed_ledger
        assert ledger.by_task() == pytest.approx(collector.shed_by_task())


class TestPersistenceRoundTrip:
    def test_per_task_shed_survives_to_dict(self):
        collector = MetricsCollector(label="x")
        collector.record(
            IntervalMetrics(
                interval=0,
                shed_tuples=7.0,
                per_task_shed={3: 7.0},
                per_task_load={3: 100.0},
            )
        )
        clone = MetricsCollector.from_dict(collector.to_dict())
        assert clone.intervals[0].per_task_shed == {3: 7.0}
        assert clone.shed_by_task() == {3: 7.0}
