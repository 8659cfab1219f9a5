"""Resilience subsystem: checkpoint round-trips, supervised recovery, elasticity.

The equality tests compare an injected run against an uninjected base run on
the *same* stream.  Final tuple counts are deterministic everywhere; per-key
final state is compared on the **counter** stage only — the second (windowed
agg) stage's retained payloads depend on upstream worker interleaving and
differ even between two clean runs.
"""

import os
import queue
import random
import tempfile
from types import SimpleNamespace

import pytest

from repro.baselines.hash_only import HashPartitioner
from repro.baselines.pkg import PartialKeyGrouping
from repro.operators.tpch_q5 import DimensionJoin
from repro.operators.windowed_aggregate import WindowedAggregate
from repro.operators.wordcount import WordCountOperator
from repro.runtime.resilience.checkpoint import (
    CheckpointCorrupt,
    CheckpointStore,
    atomic_write_bytes,
    atomic_write_json,
)
from repro.runtime import (
    KillDirective,
    RuntimeConfig,
    ScaleDirective,
    StageSpec,
    TopologyRuntime,
    TopologySpec,
)
from repro.runtime.controller import LiveMigrationReport
from repro.runtime.messages import ExtractKeys, StateShipment
from repro.runtime.queues import _AbortableQueue, _Mailbox
from repro.runtime.resilience.scaling import execute_scale, parse_scale_spec
from repro.runtime.resilience.supervisor import (
    RetentionLog,
    StageSupervisor,
    parse_kill_spec,
)
from repro.workloads.tpch import ForeignKeyLookup


def _bucket(key):
    """Module-level key mapper (picklable under any start method)."""
    return key % 5


def _stream(intervals=5, keys=40, repeats=25):
    return [
        [(key, None) for key in range(keys) for _ in range(repeats)]
        for _ in range(intervals)
    ]


def _config(**overrides):
    defaults = dict(
        parallelism=2,
        batch_size=64,
        queue_capacity=4,
        service_time_us=5.0,
        collect_final_state=True,
        sanitize=True,
    )
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


def _two_stage_spec():
    return TopologySpec(
        "two-stage",
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


@pytest.fixture(scope="module")
def base_run():
    """The uninjected reference run every injected run must reproduce."""
    run = TopologyRuntime(_two_stage_spec(), _config()).run(_stream())
    assert run.sanitizer["violations"] == []
    return run


def _assert_matches_base(run, base):
    assert run.sanitizer["violations"] == []
    assert run.final.tuples_processed == base.final.tuples_processed
    for stage in ("counter", "agg"):
        assert (
            run.stages[stage].tuples_processed
            == base.stages[stage].tuples_processed
        )
    # Per-key equality on the deterministic stage (see module docstring).
    assert run.stages["counter"].final_state == base.stages["counter"].final_state
    # The sanitizer's per-producer watermark check fired and stayed clean —
    # interval marks never regressed through the injection.
    assert run.sanitizer["checks"].get("watermark", 0) > 0


# -- checkpoint store --------------------------------------------------------------


class TestCheckpointRoundTrip:
    def test_round_trip_property(self, tmp_path):
        """save → latest is the identity for arbitrary entries/counters."""
        rng = random.Random(7)
        store = CheckpointStore(str(tmp_path), "stage-a")
        for round_index in range(10):
            task = rng.randrange(4)
            interval = round_index
            entries = [
                (
                    rng.randrange(1000),
                    [rng.random() for _ in range(rng.randrange(1, 6))],
                )
                for _ in range(rng.randrange(0, 20))
            ]
            counters = {
                "processed": float(rng.randrange(10_000)),
                "emit_seq": float(rng.randrange(500)),
                "watermark": float(interval),
            }
            store.save(task, interval, entries, counters)
            loaded = store.latest(task)
            assert loaded is not None
            assert loaded.task == task
            assert loaded.interval == interval
            assert loaded.entries == entries
            assert loaded.counters == counters

    def test_latest_returns_none_without_checkpoint(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "stage-a")
        assert store.latest(0) is None

    def test_corruption_is_detected(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "stage-a")
        record = store.save(0, 3, [(1, ["x"])], {"processed": 1.0})
        with open(record.path, "rb") as handle:
            blob = handle.read()
        atomic_write_bytes(record.path, blob[:-1] + bytes([blob[-1] ^ 0xFF]))
        with pytest.raises(CheckpointCorrupt):
            store.latest(0)

    def test_save_keeps_one_blob_per_task(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "stage-a")
        for interval in range(3):
            store.save(0, interval, [(interval, ["v"])], {})
        blobs = [name for name in os.listdir(store.root) if name.endswith(".ckpt")]
        assert len(blobs) == 1
        assert store.latest(0).interval == 2
        assert store.stats()["count"] == 3
        assert store.bytes_written > 0

    def test_atomic_writes_leave_no_tmp_files(self, tmp_path):
        path = str(tmp_path / "checkpoint.bin")
        atomic_write_bytes(path, b"payload")
        atomic_write_json(str(tmp_path / "manifest.json"), {"tasks": {}})
        names = os.listdir(str(tmp_path))
        assert sorted(names) == ["checkpoint.bin", "manifest.json"]
        with open(path, "rb") as handle:
            assert handle.read() == b"payload"


# -- directive parsing -------------------------------------------------------------


class TestDirectiveParsing:
    def test_kill_spec_round_trip(self):
        directive = parse_kill_spec("revenue-agg:0@3")
        assert directive == KillDirective(stage="revenue-agg", task=0, interval=3)
        assert parse_kill_spec(directive.spec()) == directive

    @pytest.mark.parametrize("spec", ["", "agg", "agg:x@1", "agg:1", "a:b:c@1"])
    def test_bad_kill_spec_raises(self, spec):
        with pytest.raises(ValueError):
            parse_kill_spec(spec)

    def test_scale_spec_round_trip(self):
        directive = parse_scale_spec("2:order-join:+1")
        assert directive == ScaleDirective(interval=2, stage="order-join", delta=1)
        assert parse_scale_spec("3:agg:-2").delta == -2
        assert parse_scale_spec(directive.spec()) == directive

    @pytest.mark.parametrize("spec", ["", "order-join:+1", "2:agg:0", "2:agg:x"])
    def test_bad_scale_spec_raises(self, spec):
        with pytest.raises(ValueError):
            parse_scale_spec(spec)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(stage="", task=0, interval=0),
            dict(stage="agg", task=-1, interval=0),
            dict(stage="agg", task=0, interval=-1),
        ],
    )
    def test_kill_directive_validates_itself(self, fields):
        with pytest.raises(ValueError, match="kill directive"):
            KillDirective(**fields)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(interval=-1, stage="agg", delta=1),
            dict(interval=0, stage="", delta=1),
            dict(interval=0, stage="agg", delta=0),
        ],
    )
    def test_scale_directive_validates_itself(self, fields):
        with pytest.raises(ValueError, match="scale directive"):
            ScaleDirective(**fields)

    def test_config_supplies_kill_directive(self):
        runtime = TopologyRuntime(
            _two_stage_spec(), _config(kill_worker=KillDirective("counter", 1, 2))
        )
        kill, scale = runtime._directives()
        assert kill == KillDirective(stage="counter", task=1, interval=2)
        assert scale is None

    def test_unknown_stage_in_directive_raises(self):
        runtime = TopologyRuntime(
            _two_stage_spec(), _config(kill_worker=KillDirective("nope", 0, 1))
        )
        with pytest.raises(ValueError, match="unknown stage"):
            runtime._directives()


# -- supervised recovery -----------------------------------------------------------


class TestSupervisedRecovery:
    @pytest.mark.parametrize(
        "kill", [KillDirective("counter", 1, 1), KillDirective("agg", 0, 2)]
    )
    def test_crash_at_interval_matches_uninjected_run(self, base_run, kill):
        """A SIGKILLed worker is respawned, restored and replayed losslessly."""
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            run = TopologyRuntime(
                _two_stage_spec(),
                _config(checkpoint_dir=checkpoint_dir, kill_worker=kill),
            ).run(_stream())
        _assert_matches_base(run, base_run)
        resilience = run.resilience
        assert len(resilience["incidents"]) == 1
        incident = resilience["incidents"][0]
        assert incident["stage"] == kill.stage
        assert incident["task"] == kill.task
        assert incident["recovery_pause_seconds"] > 0
        assert incident["restore_seconds"] >= 0
        # The kill landed after at least one boundary checkpoint, so the
        # restore really exercised the durable path.
        assert incident["checkpoint_interval"] >= 0
        assert incident["restored_keys"] > 0
        assert resilience["checkpoints"]["bytes_written"] > 0


class _AnsweringChannel:
    """A worker's inbound channel whose worker answers ``ExtractKeys`` at
    once: a snapshot with counters in copy mode, a bare shipment otherwise.
    A dead worker answers nothing."""

    def __init__(self, task, replies):
        self.task = task
        self.replies = replies
        self.alive = True

    def put(self, message, timeout=None):
        if self.alive and isinstance(message, ExtractKeys):
            counters = {"processed": 1.0} if message.copy else {}
            self.replies.put(StateShipment(self.task, [(self.task, [1])], 1.0, counters))

    def backlog(self):
        return 0


class TestDeathDuringACheckpointRound:
    def test_live_tasks_snapshots_survive_the_recovery(self, tmp_path):
        """Task 1 dies before its snapshot while task 0's is already pumped
        into the mailbox stash; task 1's log holds a migration ExtractKeys,
        whose replayed reply the recovery waits for and discards.  Task 0's
        snapshot must still complete the round (it was dropped, and the
        round waited out the mailbox timeout)."""
        replies = queue.Queue()
        channels = [_AnsweringChannel(task, replies) for task in range(2)]
        channels[1].alive = False
        supervisor = StageSupervisor(
            "stage", CheckpointStore(str(tmp_path), "stage"), RetentionLog(2)
        )
        supervisor.log.note(1, ExtractKeys(keys=[7]))
        recoveries = []

        def watchdog():
            # The stage loop's watchdog: pump the replies, then heal the dead
            # worker the first time round.
            mailbox.check_errors()
            if not recoveries:
                recoveries.append(1)
                supervisor.on_worker_died(loop, 1, SimpleNamespace(name="worker-1"))

        mailbox = _Mailbox(replies, 2.0, checker=watchdog)
        observers = (supervisor,)
        loop = SimpleNamespace(
            workers=[None, None],
            guarded_queues=[
                _AbortableQueue(channel, watchdog, task, observers)
                for task, channel in enumerate(channels)
            ],
            mailbox=mailbox,
            observers=observers,
            controller=SimpleNamespace(migration_in_flight=False),
            current_interval=0,
            spawn_worker=lambda task: setattr(channels[task], "alive", True),
        )
        supervisor.on_close(loop, 0)
        assert recoveries == [1]
        assert [supervisor.store.latest(task).interval for task in range(2)] == [0, 0]
        assert supervisor.incidents[0].replayed_messages == 1
        assert supervisor.log.replay(1) == []


def _three_stage_spec():
    """counter → recount → agg, every stage two workers.

    The middle stage is the one ingress merging puts at risk: its retention
    log holds the *merged* batches its router dispatched, and what it
    re-emits while replaying them must carry the original ``producer_seq`` s
    for the aggregation's dedup to drop.
    """
    return TopologySpec(
        "three-stage",
        [
            StageSpec(
                name="counter",
                logic=WordCountOperator(emit_updates=True),
                partitioner=HashPartitioner(2, seed=0),
            ),
            StageSpec(
                name="recount",
                # Nothing expires, so a key's payloads sum to its tuple count
                # however the upstream workers' intervals interleaved.
                logic=WordCountOperator(window=16, emit_updates=True),
                partitioner=HashPartitioner(2, seed=2),
                key_mapper=_bucket,
            ),
            StageSpec(
                name="agg",
                logic=WindowedAggregate(window=16),
                partitioner=HashPartitioner(2, seed=1),
            ),
        ],
    )


def _tuples_per_key(stage):
    return {key: sum(payloads) for key, payloads in stage.final_state.items()}


class TestRecoveryBehindAnUnpacedUpstream:
    """Unpaced workers outrun the routers, so the downstream ingresses fill
    and are dispatched as merged chunks — recovery must not notice."""

    STREAM = dict(intervals=5, keys=40, repeats=60)

    @pytest.fixture(scope="class")
    def base(self):
        run = TopologyRuntime(
            _three_stage_spec(), _config(service_time_us=0.0)
        ).run(_stream(**self.STREAM))
        assert run.sanitizer["violations"] == []
        return run

    @pytest.mark.parametrize(
        "kill", [KillDirective("recount", 0, 3), KillDirective("agg", 1, 3)]
    )
    def test_crash_matches_uninjected_run(self, base, kill):
        # Checkpoints at boundaries 1 and 3, the kill in interval 3: all of
        # interval 2 is replayed from the log, and everything the dead worker
        # had emitted from it arrives downstream a second time.
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            run = TopologyRuntime(
                _three_stage_spec(),
                _config(
                    service_time_us=0.0,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_every=2,
                    kill_worker=kill,
                ),
            ).run(_stream(**self.STREAM))
        assert run.sanitizer["violations"] == []
        total = 5 * 40 * 60
        stages = list(run.stages.values())
        for stage in stages:
            # Exactly once: a replayed emission the dedup let through would
            # show up as an extra tuple downstream.
            assert stage.tuples_processed == total, stage.label
            assert stage.messages["tuples_to_workers"] == total, stage.label
            assert stage.messages["chunks"] <= stage.messages["ingress"], stage.label
        # ... and as an extra accepted message: every batch a worker was sent
        # is one emission, accepted downstream once.
        for upstream, stage in zip(stages, stages[1:]):
            assert stage.messages["ingress"] == upstream.messages["to_workers"]
        assert run.stages["counter"].final_state == base.stages["counter"].final_state
        assert _tuples_per_key(run.stages["recount"]) == _tuples_per_key(
            base.stages["recount"]
        )
        incidents = run.resilience["incidents"]
        assert [(i["stage"], i["task"]) for i in incidents] == [
            (kill.stage, kill.task)
        ]
        assert incidents[0]["restored_keys"] > 0


class TestRecoveryOfListPayloadState:
    """A join's per-key payload is a list the task grows in place; the other
    recovery tests only ever restore counters and floats.  One key-contiguous
    final stage, so the state is a pure function of the stream: after a kill,
    a restore from the last checkpoint and the replay of the retention log,
    every retained list must equal the uninjected run's element for element.

    (That a snapshot is detached from the live lists is pinned in-process by
    ``tests/operators/test_operator_contract.py``: the router waits for every
    shipment before it dispatches again, and the channel pickles a checkpoint
    inside the worker's ``put``, so the wire itself never sees a moving list.)"""

    @staticmethod
    def _spec():
        return TopologySpec(
            "dimension-join",
            [
                StageSpec(
                    name="join",
                    logic=DimensionJoin(lookup=ForeignKeyLookup({}, 5), window=3),
                    partitioner=HashPartitioner(2, seed=0),
                )
            ],
        )

    @staticmethod
    def _stream(intervals=5, keys=40, repeats=60):
        # Every tuple carries a distinct value: a lost, doubled or reordered
        # element shows in the lists.
        return [
            [(key, (interval, index)) for index in range(repeats) for key in range(keys)]
            for interval in range(intervals)
        ]

    def test_crash_restores_every_list_element_for_element(self):
        base = TopologyRuntime(self._spec(), _config(service_time_us=0.0)).run(self._stream())
        assert base.sanitizer["violations"] == []
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            run = TopologyRuntime(
                self._spec(),
                _config(
                    service_time_us=0.0,
                    checkpoint_dir=checkpoint_dir,
                    checkpoint_every=1,
                    kill_worker=KillDirective("join", 0, 3),
                ),
            ).run(self._stream())
        assert run.sanitizer["violations"] == []
        incidents = run.resilience["incidents"]
        assert [(i["stage"], i["task"]) for i in incidents] == [("join", 0)]
        assert incidents[0]["restored_keys"] > 0
        assert run.stages["join"].tuples_processed == 5 * 40 * 60
        final = run.stages["join"].final_state
        assert set(final) == set(range(40))
        # Window of three: intervals 2-4 are retained, 60 tuples each.
        assert all([len(kept) for kept in lists] == [60, 60, 60] for lists in final.values())
        assert final == base.stages["join"].final_state


# -- elastic scaling ---------------------------------------------------------------


class TestElasticScaling:
    @pytest.mark.parametrize(
        "scale_at", [ScaleDirective(2, "counter", 1), ScaleDirective(3, "agg", -1)]
    )
    def test_resize_preserves_state_and_counts(self, base_run, scale_at):
        """Scale-out and scale-in re-route keys without losing per-key state."""
        run = TopologyRuntime(
            _two_stage_spec(), _config(scale_at=scale_at)
        ).run(_stream())
        _assert_matches_base(run, base_run)
        resilience = run.resilience
        assert resilience is not None and len(resilience["scale_events"]) == 1
        event = resilience["scale_events"][0]
        assert event["stage"] == scale_at.stage
        assert event["interval"] == scale_at.interval
        assert event["to_tasks"] == event["from_tasks"] + scale_at.delta
        assert event["moved_keys"] > 0
        assert event["rebalance_pause_seconds"] > 0

    def test_split_key_resize_leaves_the_load_estimates_alone(self):
        """A PKG stage is resized without being asked to route: its books of
        the next interval hold no phantom tuples, and no key moves."""
        partitioner = PartialKeyGrouping(4, seed=1)
        partitioner.assign_batch(["a", "b", "a", "c"])
        loads = dict(partitioner._loads)
        splits = {key: dict(tasks) for key, tasks in partitioner.split_counts.items()}
        shipped = []

        def execute_moves(interval, moves):
            shipped.append(list(moves))
            return LiveMigrationReport(interval=interval)

        queues = SimpleNamespace(set_queues=lambda queues: None)
        loop = SimpleNamespace(
            spec=SimpleNamespace(partitioner=partitioner, name="counter"),
            controller=SimpleNamespace(
                finish_pending=lambda: None,
                set_queues=queues.set_queues,
                execute_moves=execute_moves,
            ),
            router=queues,
            attach_worker=lambda task: None,
            guarded_queues=[],
            current_interval=2,
            downstreams=[],
        )
        event = execute_scale(loop, ScaleDirective(2, "counter", 1), {"a", "b", "c"})
        assert event.to_tasks == partitioner.num_tasks == 5
        assert partitioner._loads == {**loads, 4: 0.0}
        assert partitioner.split_counts == splits
        assert shipped == [[]] and event.moved_keys == 0

    def test_kill_after_scale_out_recovers_new_task(self, base_run):
        """A task created by an elastic resize is itself supervised."""
        with tempfile.TemporaryDirectory() as checkpoint_dir:
            run = TopologyRuntime(
                _two_stage_spec(),
                _config(
                    checkpoint_dir=checkpoint_dir,
                    scale_at=ScaleDirective(1, "counter", 1),
                    kill_worker=KillDirective("counter", 2, 3),
                ),
            ).run(_stream())
        _assert_matches_base(run, base_run)
        resilience = run.resilience
        assert len(resilience["scale_events"]) == 1
        assert len(resilience["incidents"]) == 1
        assert resilience["incidents"][0]["task"] == 2
