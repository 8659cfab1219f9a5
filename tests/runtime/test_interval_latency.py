"""Per-interval latency histogram deltas (Fig. 13(b) from measured data)."""

import pytest

from repro.baselines.hash_only import HashPartitioner
from repro.operators.wordcount import WordCountOperator
from repro.runtime import LatencyHistogram, RuntimeConfig
from repro.runtime.messages import FinalReport, IntervalReport
from repro.runtime.result import fold_stage_result


def _stream(intervals=4, keys=30, repeats=20):
    return [
        [(key, None) for key in range(keys) for _ in range(repeats)]
        for _ in range(intervals)
    ]


@pytest.fixture(scope="module")
def result(run_one_stage):
    return run_one_stage(
        WordCountOperator(emit_updates=False),
        HashPartitioner(2, seed=0),
        RuntimeConfig(batch_size=64, queue_capacity=4, service_time_us=10.0),
        _stream(),
    )


class TestIntervalHistogramDeltas:
    def test_one_delta_histogram_per_interval(self, result):
        assert sorted(result.interval_latency) == [0, 1, 2, 3]
        for histogram in result.interval_latency.values():
            assert isinstance(histogram, LatencyHistogram)
            assert histogram.total == 30 * 20

    def test_deltas_sum_to_the_lifetime_histogram(self, result):
        merged = LatencyHistogram()
        for histogram in result.interval_latency.values():
            merged.merge(histogram)
        assert merged.total == result.latency.total
        assert merged.counts == result.latency.counts
        assert merged.sum_us == pytest.approx(result.latency.sum_us)

    def test_interval_metrics_carry_measured_percentiles(self, result):
        for record in result.metrics:
            assert record.latency_p99_ms >= record.latency_p50_ms > 0
            histogram = result.interval_latency[record.interval]
            assert record.latency_p50_ms == pytest.approx(
                histogram.p50_us / 1000.0
            )
            assert record.latency_p99_ms == pytest.approx(
                histogram.p99_us / 1000.0
            )

    def test_latency_over_time_series_is_plottable(self, result):
        # The Fig. 13(b) view: one measured p99 value per interval.
        series = result.metrics.series("latency_p99_ms")
        assert len(series) == 4
        assert all(value > 0 for value in series)


def _histogram(*values_us):
    histogram = LatencyHistogram()
    for value in values_us:
        histogram.record(value)
    return histogram


def _interval_report(interval, worker, histogram):
    return IntervalReport(
        worker_id=worker,
        interval=interval,
        processed=histogram.total,
        cost=float(histogram.total),
        busy_seconds=0.0,
        latency_us_sum=histogram.sum_us,
        histogram=histogram.to_dict(),
    )


class TestFoldWithoutProcesses:
    """``fold_stage_result`` on hand-built rows and reports.

    The duplicate ``(interval, worker)`` report below is what a supervised
    recovery produces: the replayed ``EndInterval`` makes the respawned
    worker re-send the report its dead predecessor already delivered.
    """

    def _fold(self):
        deltas = {
            (0, 0): _histogram(100, 200),
            (0, 1): _histogram(150),
            (1, 0): _histogram(300),
            (1, 1): _histogram(400, 800, 1600),  # the healed re-send
        }
        stale = _histogram(400)  # worker 1's pre-crash report of interval 1
        tail = _histogram(5000)  # worker 0, after the last interval marker
        reports = [
            _interval_report(0, 0, deltas[0, 0]),
            _interval_report(0, 1, deltas[0, 1]),
            _interval_report(1, 1, stale),
            _interval_report(1, 0, deltas[1, 0]),
            _interval_report(1, 1, deltas[1, 1]),
        ]
        finals = []
        for worker in (0, 1):
            lifetime = _histogram()
            for (_, owner), delta in deltas.items():
                if owner == worker:
                    lifetime.merge(delta)
            if worker == 0:
                lifetime.merge(tail)
            finals.append(
                FinalReport(
                    worker_id=worker,
                    processed=lifetime.total,
                    cost=float(lifetime.total),
                    busy_seconds=0.0,
                    histogram=lifetime.to_dict(),
                    migrations_in=0,
                    migrations_out=0,
                    state_size=0.0,
                    state_keys=0,
                    tail_histogram=tail.to_dict() if worker == 0 else {},
                )
            )
        rows = [
            {
                "interval": interval,
                "offered_tuples": float(offered),
                "offered_cost": {0: 1.0, 1: 1.0},
                "shed": {},
                "elapsed": 0.5,
                "migration": None,
                "routing_table_size": 0,
            }
            for interval, offered in ((0, 3), (1, 5))
        ]
        return fold_stage_result("stage", 2, 1.0, rows, reports, finals)

    def test_replayed_duplicate_report_keeps_the_last(self):
        result = self._fold()
        # Interval 1: worker 0's one tuple + the re-sent three — neither the
        # stale count (2 in total) nor both reports (5).
        assert result.metrics.series("processed_tuples") == [3.0, 4.0]
        assert result.tuples_offered == 8
        assert result.tuples_processed == 8

    def test_deltas_plus_tail_sum_to_the_lifetime_histogram(self):
        result = self._fold()
        merged = LatencyHistogram()
        for histogram in result.interval_latency.values():
            merged.merge(histogram)
        assert merged.counts == result.latency.counts
        assert merged.total == result.latency.total == 8
        # The tail lands in the last closed interval.
        assert result.interval_latency[1].total == 4 + 1
