"""End-to-end tests of a one-stage topology on real worker processes."""

import pytest

from repro.baselines.hash_only import HashPartitioner
from repro.core.strategy import get_strategy
from repro.operators.wordcount import WordCountOperator
from repro.runtime import RuntimeConfig


def _stream(intervals=2, keys=40, repeats=25):
    """Deterministic stream: every key appears ``repeats`` times per interval."""
    return [
        [(key, None) for key in range(keys) for _ in range(repeats)]
        for _ in range(intervals)
    ]


@pytest.fixture
def _run(run_one_stage):
    def run(stream, parallelism=2, **config):
        defaults = dict(batch_size=64, queue_capacity=4, service_time_us=5.0)
        defaults.update(config)
        return run_one_stage(
            WordCountOperator(emit_updates=False),
            HashPartitioner(parallelism, seed=0),
            RuntimeConfig(**defaults),
            stream,
        )

    return run


class TestConservation:
    def test_every_offered_tuple_is_processed(self, _run):
        stream = _stream(intervals=2, keys=40, repeats=25)
        total = sum(len(interval) for interval in stream)
        result = _run(stream)
        assert result.tuples_offered == total
        assert result.tuples_processed == total
        assert result.tuples_shed == 0
        assert result.latency.total == total

    def test_per_interval_reports_sum_to_total(self, _run):
        stream = _stream(intervals=3, keys=30, repeats=20)
        result = _run(stream)
        processed = result.metrics.series("processed_tuples")
        assert len(processed) == 3
        assert sum(processed) == result.tuples_processed
        # FIFO markers make the per-interval accounting exact.
        assert all(count == len(stream[0]) for count in processed)

    def test_worker_counts_match_dispatch(self, _run):
        result = _run(_stream())
        per_worker = {
            worker_id: report.processed
            for worker_id, report in result.final_reports.items()
        }
        assert sum(per_worker.values()) == result.tuples_processed
        assert set(per_worker) == {0, 1}


class TestMeasurements:
    def test_throughput_and_latency_are_positive(self, _run):
        result = _run(_stream())
        assert result.wall_seconds > 0
        assert result.tuples_per_second > 0
        assert result.latency.p50_us > 0
        assert result.latency.p99_us >= result.latency.p50_us
        summary = result.summary()
        assert summary["tuples_per_second"] == pytest.approx(
            result.tuples_per_second
        )
        assert summary["latency_p99_ms"] >= summary["latency_p50_ms"]

    def test_metrics_records_per_task_load(self, _run):
        result = _run(_stream())
        for record in result.metrics:
            assert set(record.per_task_load) == {0, 1}
            assert sum(record.per_task_load.values()) == pytest.approx(
                record.offered_tuples
            )
            assert record.num_tasks == 2
            assert record.skewness >= 1.0

    def test_final_state_collection(self, _run):
        result = _run(_stream(intervals=1, keys=10, repeats=5), collect_final_state=True)
        # Word count keeps one counter per key; every key appeared 5 times.
        assert sum(payload[-1] for payload in result.final_state.values()) == 50
        assert set(result.final_state) == set(range(10))


class TestRoutingTableSize:
    def test_every_interval_reports_the_table_in_force(self, run_one_stage):
        """A rebalancing stage's table does not vanish on the intervals it
        does not replan (the runtime twin of the simulator's PR 16 fix)."""
        # Four warm keys hashed onto task 0 force a plan after interval 0; the
        # same stream is balanced under F', so the later intervals plan nothing.
        partitioner = get_strategy("mixed").build(2, theta_max=0.2, seed=0)
        warm = [key for key in range(40) if partitioner.route(key) == 0][:4]
        interval = [(key, None) for key in range(40) for _ in range(5)]
        interval += [(key, None) for key in warm for _ in range(55)]
        result = run_one_stage(
            WordCountOperator(emit_updates=False),
            partitioner,
            RuntimeConfig(batch_size=64, queue_capacity=4, service_time_us=5.0),
            [list(interval) for _ in range(4)],
        )
        records = list(result.metrics)
        assert records[0].rebalanced and records[0].routing_table_size > 0
        assert not any(record.rebalanced for record in records[1:])
        assert [record.routing_table_size for record in records[1:]] == [
            partitioner.routing_table_size
        ] * 3


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RuntimeConfig(parallelism=0)
        with pytest.raises(ValueError):
            RuntimeConfig(batch_size=0)
        with pytest.raises(ValueError):
            RuntimeConfig(service_time_us=-1.0)
