"""Adaptive pacing calibration: saturation across machines of any speed."""

import pytest

from repro.baselines.hash_only import HashPartitioner
from repro.operators.wordcount import WordCountOperator
from repro.runtime import (
    RuntimeConfig,
    StageSpec,
    TopologyRuntime,
    TopologySpec,
    calibrated_service_time_us,
)


class TestCalibrationFormula:
    def test_scales_with_measured_drain_time(self):
        # A machine that drains 10k cost units in 1 s with 2 workers gets
        # service_time = headroom × 1s × 2 / 10k = headroom × 200 µs.
        assert calibrated_service_time_us(10_000, 1.0, 2, headroom=1.0) == (
            pytest.approx(200.0)
        )
        # Twice as slow a machine → twice the service time: the bench stays
        # equally saturated.
        assert calibrated_service_time_us(10_000, 2.0, 2, headroom=1.0) == (
            pytest.approx(400.0)
        )

    def test_headroom_multiplies_the_pacing(self):
        base = calibrated_service_time_us(5_000, 0.5, 4, headroom=1.0)
        assert calibrated_service_time_us(5_000, 0.5, 4, headroom=2.0) == (
            pytest.approx(2.0 * base)
        )

    def test_degenerate_measurements_disable_pacing(self):
        assert calibrated_service_time_us(0.0, 1.0, 2) == 0.0
        assert calibrated_service_time_us(100.0, 0.0, 2) == 0.0


class TestCalibratedRun:
    @pytest.fixture(scope="class")
    def outcome(self):
        spec = TopologySpec(
            "calibrated",
            [
                StageSpec(
                    name="counter",
                    logic=WordCountOperator(emit_updates=False),
                    partitioner=HashPartitioner(2, seed=0),
                )
            ],
        )
        config = RuntimeConfig(
            parallelism=2,
            batch_size=64,
            queue_capacity=4,
            service_time_us=123.0,  # must be ignored when calibrating
            calibrate_pacing=True,
        )
        stream = [
            [(key, None) for key in range(40) for _ in range(25)]
            for _ in range(4)
        ]
        return TopologyRuntime(spec, config).run(stream)

    def test_calibrated_pacing_is_recorded(self, outcome):
        stage = outcome.stages["counter"]
        assert stage.calibrated_service_time_us is not None
        assert stage.calibrated_service_time_us > 0
        assert stage.calibrated_service_time_us != 123.0

    def test_every_worker_applied_the_calibrated_pacing(self, outcome):
        stage = outcome.stages["counter"]
        for report in stage.final_reports.values():
            assert report.service_time_us == pytest.approx(
                stage.calibrated_service_time_us
            )

    def test_calibration_does_not_lose_tuples(self, outcome):
        stage = outcome.stages["counter"]
        assert stage.tuples_processed == 4 * 40 * 25
        assert stage.tuples_shed == 0
