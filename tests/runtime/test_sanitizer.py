"""The runtime protocol sanitizer: clean runs stay clean, broken fakes don't."""

from types import SimpleNamespace

import pytest

from repro.runtime.sanitizer import SanitizerReport, StageSanitizer
from repro.baselines.hash_only import HashPartitioner
from repro.operators.windowed_aggregate import WindowedAggregate
from repro.operators.wordcount import WordCountOperator
from repro.runtime.bench import RuntimeSpec, merged_sanitizer_report, run_bench
from repro.runtime.controller import RuntimeController
from repro.runtime.messages import (
    EndInterval,
    EndOfStream,
    InstallAck,
    StateShipment,
    TupleBatch,
)
from repro.runtime import (
    RuntimeConfig,
    StageSpec,
    TopologyRuntime,
    TopologySpec,
)


def _batch(keys, interval=0):
    return TupleBatch(
        interval=interval, sent_at=0.0, keys=list(keys), values=[None] * len(keys)
    )


@pytest.fixture
def sanitizer():
    report = SanitizerReport()
    return StageSanitizer("stage", report), report


class TestViolationDetection:
    """Deliberately-broken fakes: each violation class must be caught."""

    def test_unregistered_message_type(self, sanitizer):
        monitor, report = sanitizer

        class Rogue:
            pass

        monitor.on_send(0, Rogue())
        assert [v.check for v in report.violations] == ["message_type"]
        assert "Rogue" in report.violations[0].message

    def test_put_after_close(self, sanitizer):
        monitor, report = sanitizer
        monitor.on_send(0, EndOfStream())
        monitor.on_send(1, _batch([1]))  # other task: still open
        monitor.on_send(0, _batch([2]))  # closed task: violation
        assert [v.check for v in report.violations] == ["put_after_close"]

    def test_non_monotone_interval_marker(self, sanitizer):
        monitor, report = sanitizer
        monitor.on_send(0, EndInterval(interval=0))
        monitor.on_send(0, EndInterval(interval=1))
        monitor.on_send(1, EndInterval(interval=0))  # per-task, still fine
        monitor.on_send(0, EndInterval(interval=1))  # repeat: violation
        assert [v.check for v in report.violations] == ["watermark"]

    def test_non_monotone_interval_close(self, sanitizer):
        monitor, report = sanitizer
        monitor.on_close(None, 0)
        monitor.on_close(None, 1)
        monitor.on_close(None, 0)
        assert [v.check for v in report.violations] == ["watermark"]

    def test_resume_without_pause(self, sanitizer):
        monitor, report = sanitizer
        monitor.on_resume()
        assert [v.check for v in report.violations] == ["pause_resume"]

    def test_missing_resume_caught_at_finalize(self, sanitizer):
        monitor, report = sanitizer
        monitor.on_pause([1, 2])
        monitor.finalize(offered=0.0, processed=0.0)
        checks = [v.check for v in report.violations]
        assert "pause_resume" in checks

    def test_conservation_imbalance(self, sanitizer):
        monitor, report = sanitizer
        monitor.on_send(0, _batch(range(10)))
        monitor.finalize(offered=12.0, processed=8.0)
        conservation = [
            v for v in report.violations if v.check == "conservation"
        ]
        assert len(conservation) == 2  # offered != enqueued, processed != enqueued

    def test_balanced_books_pass(self, sanitizer):
        monitor, report = sanitizer
        monitor.on_send(0, _batch(range(10)))
        monitor.on_pause([1])
        monitor.on_resume()
        monitor.finalize(offered=10.0, processed=10.0)
        assert report.ok
        assert report.to_dict()["checks"]["conservation"] == 2

    def test_controller_hand_off_pairs_pause_and_resume(self, sanitizer):
        """The controller reports a hand-off's pause and resume to its
        observers, beside the router's own calls."""
        monitor, report = sanitizer

        class FakeRouter:
            def __init__(self):
                self.calls = []

            def pause(self, keys):
                self.calls.append(("pause", tuple(keys)))

            def resume(self):
                self.calls.append(("resume",))
                return 0

        class FakeMailbox:
            def collect(self, message_type, expected):
                if message_type is StateShipment:
                    return [StateShipment(worker_id=0, entries=[(1, None)], state_size=1.0)]
                return [InstallAck(worker_id=1, installed_keys=1)] * expected

        sent = []
        queues = [
            SimpleNamespace(put=lambda message, task=task: sent.append((task, message)))
            for task in range(2)
        ]
        router = FakeRouter()
        controller = RuntimeController(
            HashPartitioner(2, seed=0), router, queues, FakeMailbox(), [monitor]
        )
        controller.execute_moves(0, [(1, 0, 1)])
        monitor.finalize(offered=0.0, processed=0.0)
        assert report.ok
        assert report.to_dict()["checks"]["pause_resume"] == 3
        assert router.calls == [("pause", (1,)), ("resume",)]
        assert [(task, type(message).__name__) for task, message in sent] == [
            (0, "ExtractKeys"),
            (1, "InstallState"),
        ]


class TestSanitizedTopologyRun:
    @pytest.fixture(scope="class")
    def outcome(self):
        spec = TopologySpec(
            "sanitized",
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
        stream = [
            [(key, None) for key in range(40) for _ in range(10)]
            for _ in range(2)
        ]
        config = RuntimeConfig(
            parallelism=2, batch_size=64, queue_capacity=4,
            service_time_us=0.0, sanitize=True,
        )
        return TopologyRuntime(spec, config).run(stream)

    def test_clean_run_has_empty_violation_report(self, outcome):
        assert outcome.sanitizer is not None
        assert outcome.sanitizer["ok"] is True
        assert outcome.sanitizer["violations"] == []

    def test_checks_actually_ran(self, outcome):
        checks = outcome.sanitizer["checks"]
        assert checks["message_type"] > 0
        assert checks["watermark"] > 0
        assert checks["conservation"] >= 4  # two stages, two books each

    def test_report_attached_to_every_stage(self, outcome):
        for stage in outcome.stages.values():
            assert stage.sanitizer is outcome.sanitizer

    def test_sanitizer_off_by_default(self):
        spec = TopologySpec(
            "plain",
            [
                StageSpec(
                    name="counter",
                    logic=WordCountOperator(),
                    partitioner=HashPartitioner(2, seed=0),
                )
            ],
        )
        outcome = TopologyRuntime(
            spec,
            RuntimeConfig(
                parallelism=2, batch_size=64, queue_capacity=4,
                service_time_us=0.0,
            ),
        ).run([[(key, None) for key in range(50)]])
        assert outcome.sanitizer is None


def _bucket(key):
    """Module-level key mapper (picklable under any start method)."""
    return key % 5


class TestSanitizedChainBench:
    def test_tiny_tpch_q5_chain_under_sanitize_is_clean(self):
        # The satellite acceptance run: the full 3-stage Q5 chain with live
        # migration (mixed strategy) under the sanitizer, zero violations.
        spec = RuntimeSpec(
            workload="tpch_q5_chain",
            strategies=["mixed"],
            scale="tiny",
            overrides={"tuples_per_interval": 4000, "sim_intervals": 3},
            service_time_us=0.0,
            sanitize=True,
        )
        _, outcomes = run_bench(spec)
        report = merged_sanitizer_report(outcomes)
        assert report is not None and report["enabled"]
        assert report["violations"] == []
        assert report["checks"]["message_type"] > 0
