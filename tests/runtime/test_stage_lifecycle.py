"""The order of an interval close, pinned on one real run.

A sanitized, checkpointed ``mixed`` stage that grows by one worker at
interval 1.  The real observers' hooks (and the controller's plan) are
wrapped to record what happens, in order; at each close the loop must
finish the pending hand-off, send ``EndInterval`` to every task, calibrate
after interval 0, run the checkpoint round, plan, and then resize.
"""

import inspect

import pytest

from repro.runtime.sanitizer import StageSanitizer
from repro.core.strategy import get_strategy
from repro.operators.wordcount import WordCountOperator
from repro.runtime import (
    RuntimeConfig,
    ScaleDirective,
    StageSpec,
    TopologyRuntime,
    TopologySpec,
)
from repro.runtime.controller import RuntimeController
from repro.runtime.messages import ExtractKeys, TupleBatch
from repro.runtime.resilience.scaling import StageResizer
from repro.runtime.resilience.supervisor import StageSupervisor

INTERVALS = 4
SCALE_AT = 1


def _wrap(monkeypatch, cls, name, before=None, after=None):
    original = getattr(cls, name)

    def spy(self, *args):
        if before is not None:
            before(self, *args)
        result = original(self, *args)
        if after is not None:
            after(self, *args)
        return result

    monkeypatch.setattr(cls, name, spy)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    events = []
    kept = []
    with pytest.MonkeyPatch.context() as monkeypatch:

        def on_send(supervisor, task, message):
            if isinstance(message, TupleBatch):
                return
            if isinstance(message, ExtractKeys):
                label = "snapshot" if message.copy else "ExtractKeys"
            else:
                label = type(message).__name__
            events.append((label, getattr(message, "interval", None)))

        def finish_pending(controller):
            # Only the close's own call: end_interval and the resize call it too.
            if inspect.currentframe().f_back.f_back.f_code.co_name == "_close_interval":
                events.append(("finish", None))

        def log_of(supervisor, loop):
            return [
                [type(message).__name__ for message in supervisor.log.replay(task)]
                for task in range(len(loop.workers))
            ]

        _wrap(monkeypatch, StageSupervisor, "on_send", before=on_send)
        _wrap(monkeypatch, RuntimeController, "finish_pending", before=finish_pending)
        _wrap(
            monkeypatch, StageSanitizer, "on_close",
            before=lambda sanitizer, loop, interval: events.append(("sanitizer", interval)),
        )
        _wrap(
            monkeypatch, StageSupervisor, "on_close",
            before=lambda supervisor, loop, interval: (
                events.append(("checkpoint", interval)),
                kept.append((interval, "before", log_of(supervisor, loop))),
            ),
            after=lambda supervisor, loop, interval: kept.append(
                (interval, "after", log_of(supervisor, loop))
            ),
        )
        _wrap(
            monkeypatch, RuntimeController, "end_interval",
            before=lambda controller, stats: events.append(("plan", stats.interval)),
        )
        _wrap(
            monkeypatch, StageResizer, "on_planned",
            before=lambda resizer, loop, interval, keys: events.append(("planned", interval)),
        )
        _wrap(
            monkeypatch, StageSupervisor, "on_attach",
            before=lambda supervisor, task: events.append(("attach", task)),
        )
        spec = TopologySpec(
            "lifecycle",
            [
                StageSpec(
                    name="counter",
                    logic=WordCountOperator(),
                    partitioner=get_strategy("mixed").build(2, theta_max=0.2, seed=0),
                )
            ],
        )
        stream = [
            [(key, None) for key in range(40) for _ in range(40 - key)]
            for _ in range(INTERVALS)
        ]
        config = RuntimeConfig(
            parallelism=2,
            batch_size=64,
            queue_capacity=4,
            calibrate_pacing=True,
            sanitize=True,
            checkpoint_dir=str(tmp_path_factory.mktemp("checkpoints")),
            scale_at=ScaleDirective(SCALE_AT, "counter", 1),
        )
        outcome = TopologyRuntime(spec, config).run(stream)
    return events, kept, outcome


def _close(events, interval):
    """The close of ``interval``: from its ``finish`` to its ``planned`` and
    the resize behind it, without the hand-offs' own messages, repeated
    labels folded."""
    end = events.index(("planned", interval))
    start = max(
        index
        for index, event in enumerate(events[:end])
        if event == ("finish", None)
    )
    labels = []
    for label, _ in events[start:]:
        if "planned" in labels and label in ("finish", "EndOfStream"):
            break
        if label not in ("ExtractKeys", "InstallState") and labels[-1:] != [label]:
            labels.append(label)
    return labels


@pytest.mark.parametrize("interval", range(INTERVALS))
def test_close_order(recorded, interval):
    events, _, _ = recorded
    expected = ["finish", "EndInterval"]
    if interval == 0:
        expected.append("SetServiceTime")
    expected += ["sanitizer", "checkpoint", "snapshot", "plan", "planned"]
    if interval == SCALE_AT:
        expected.append("attach")
    assert _close(events, interval) == expected


def test_every_task_gets_its_marker_and_its_snapshot_command(recorded):
    events, _, _ = recorded
    for interval in range(INTERVALS):
        tasks = 2 if interval <= SCALE_AT else 3
        assert events.count(("EndInterval", interval)) == tasks
        start = events.index(("checkpoint", interval))
        assert events[start + 1 : start + 1 + tasks] == [("snapshot", None)] * tasks


def test_new_task_got_the_attach_hook_after_the_plan(recorded):
    events, _, outcome = recorded
    assert events.count(("attach", 2)) == 1
    assert events.index(("attach", 2)) > events.index(("planned", SCALE_AT))
    assert outcome.resilience["scale_events"][0]["to_tasks"] == 3


def test_retention_log_keeps_only_what_the_stage_sent(recorded):
    """Before a round each task's log ends with the interval's marker (or the
    pacing behind it); after the round it is empty — the snapshot commands
    were never logged."""
    _, kept, _ = recorded
    for interval in range(INTERVALS):
        tasks = 2 if interval <= SCALE_AT else 3
        logs = {when: log for at, when, log in kept if at == interval}
        last = "SetServiceTime" if interval == 0 else "EndInterval"
        assert [log[-1] for log in logs["before"]] == [last] * tasks
        assert logs["after"] == [[]] * tasks


def test_sanitizer_checks(recorded):
    _, _, outcome = recorded
    assert outcome.sanitizer["violations"] == []
    assert set(outcome.sanitizer["checks"]) == {
        "conservation",
        "fan_in_conservation",
        "fan_in_watermark",
        "message_type",
        "pause_resume",
        "watermark",
    }
