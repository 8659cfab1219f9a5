"""Per-interval latency histogram deltas (Fig. 13(b) from measured data)."""

import pytest

from repro.baselines.hash_only import HashPartitioner
from repro.operators.wordcount import WordCountOperator
from repro.runtime.histogram import LatencyHistogram
from repro.runtime.topology import RuntimeConfig


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
