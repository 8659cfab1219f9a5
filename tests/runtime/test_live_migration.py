"""Live key migration under load: no state loss, same results as unmigrated.

The satellite acceptance: a key moved between worker processes mid-stream must
lose no windowed state, and the windowed-aggregate outcome must equal that of
a run where the key never moved.
"""

from types import SimpleNamespace

import pytest

from repro.baselines.base import Partitioner
from repro.core.migration import KeyMove, MigrationPlan
from repro.operators.windowed_aggregate import WindowedAggregate
from repro.runtime import RuntimeConfig


class ForcedMovePartitioner(Partitioner):
    """Modulo routing that migrates ``move_key`` to ``target`` after ``move_at``.

    A minimal rebalancing strategy: it exercises the live pause → ship →
    install → resume machinery deterministically, independent of any planner.
    """

    name = "forced-move"

    def __init__(self, num_tasks: int, move_key, move_at: int, target: int) -> None:
        super().__init__(num_tasks)
        self.move_key = move_key
        self.move_at = int(move_at)
        self.target = int(target)
        self.moved = False

    def route(self, key) -> int:
        if self.moved and key == self.move_key:
            return self.target
        return key % self.num_tasks

    def on_interval_end(self, stats):
        if self.moved or stats.interval != self.move_at:
            return None
        source = self.move_key % self.num_tasks
        self.moved = True
        self.invalidate_route_cache()
        plan = MigrationPlan([KeyMove(key=self.move_key, source=source, target=self.target)])
        return SimpleNamespace(
            migration_plan=plan,
            generation_time=0.0,
            migration_fraction=1.0,
            table_size=1,
        )


def _stream(intervals=4, keys=8, repeats=30):
    """Every key appears ``repeats`` times per interval, value 1.0."""
    return [
        [(key, 1.0) for key in range(keys) for _ in range(repeats)]
        for _ in range(intervals)
    ]


@pytest.fixture(scope="module")
def _run(run_one_stage):
    def run(partitioner, stream):
        return run_one_stage(
            WindowedAggregate(window=16),  # wider than the run: nothing expires
            partitioner,
            RuntimeConfig(
                batch_size=32,
                queue_capacity=4,
                service_time_us=20.0,
                collect_final_state=True,
            ),
            stream,
        )

    return run


MOVE_KEY = 0  # routed to task 0 by modulo, migrated to task 1 mid-stream


class TestLiveMigrationUnderLoad:
    @pytest.fixture(scope="class")
    def migrated(self, _run):
        partitioner = ForcedMovePartitioner(2, MOVE_KEY, move_at=1, target=1)
        return _run(partitioner, _stream())

    def test_migration_actually_happened(self, migrated):
        assert len(migrated.migrations) == 1
        report = migrated.migrations[0]
        assert report.interval == 1
        assert report.moved_keys == 1
        assert report.moved_state > 0
        assert report.pause_seconds > 0
        assert report.source_workers == [0]
        assert report.target_workers == [1]
        assert migrated.final_reports[0].migrations_out == 1
        assert migrated.final_reports[1].migrations_in == 1

    def test_no_tuple_lost(self, migrated):
        total = 4 * 8 * 30
        assert migrated.tuples_processed == total
        assert migrated.tuples_shed == 0

    def test_per_interval_attribution_stays_exact(self, migrated):
        # Tuples buffered during the hand-off are released before their
        # interval's marker, so the per-interval rows still add up.
        processed = migrated.metrics.series("processed_tuples")
        assert sum(processed) == migrated.tuples_processed
        assert all(count == 8 * 30 for count in processed)

    def test_moved_key_keeps_full_windowed_state(self, migrated):
        # The aggregate sums value=1.0 per tuple: each interval contributes 30.
        payloads = migrated.final_state[MOVE_KEY]
        assert payloads == [30.0, 30.0, 30.0, 30.0]

    def test_moved_key_state_lives_on_target_worker(self, _run):
        partitioner = ForcedMovePartitioner(2, MOVE_KEY, move_at=1, target=1)
        result = _run(partitioner, _stream(intervals=3))
        # Worker 1 holds the moved key plus the odd keys; worker 0 lost it.
        worker0_keys = 8 // 2 - 1  # even keys minus the migrated one
        assert result.final_reports[0].state_keys == worker0_keys
        assert result.final_reports[1].state_keys == 8 - worker0_keys

    def test_same_result_as_unmigrated_run(self, migrated, _run):
        class StaticModulo(Partitioner):
            def route(self, key):
                return key % self.num_tasks

        baseline = _run(StaticModulo(2), _stream())
        assert baseline.migrations == []
        assert migrated.final_state == baseline.final_state

    def test_latency_of_paused_tuples_includes_the_pause(self, migrated):
        # Buffered tuples are stamped before the pause, so the merged
        # histogram's max must be at least the measured pause.
        pause_us = migrated.migrations[0].pause_seconds * 1e6
        assert migrated.latency.max_us >= pause_us
