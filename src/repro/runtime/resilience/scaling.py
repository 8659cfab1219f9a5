"""Elastic stage scaling at interval boundaries.

A :class:`ScaleDirective` (``repro bench --scale-at INTERVAL:STAGE:±N``)
asks one stage to grow or shrink its process group when the named interval
closes.  :func:`execute_scale` runs entirely inside the coordinator's
interval-close window — dispatch is quiescent, so the whole resize is one
synchronous rebalance:

* **scale-out** — spawn the new workers on fresh queues, resize the
  partitioner, then live-migrate exactly the keys whose assignment changed;
* **scale-in** — resize the partitioner, live-migrate every key off the
  doomed tasks, then drain those workers with an ordinary end-of-stream
  hand-shake so their lifetime totals still reach the final accounting.

The moves are :meth:`~repro.baselines.base.Partitioner.resize`'s placement
diff, the rule the fluid simulator resizes by too (learned routing tables
survive; a split-key strategy moves nothing).

Either way the state hand-off reuses the existing migration wire protocol
(pause → extract → install → ack → resume) and the measured pause is
recorded per event, so the bench report can show the rebalance cost of an
elastic resize next to the cost of ordinary skew-driven migrations.
"""

from __future__ import annotations

import re
import time
from dataclasses import asdict, dataclass
from typing import Any, Collection, Dict, Iterable, List

from repro.runtime.lifecycle import StageObserver

__all__ = ["ScaleDirective", "ScaleEvent", "StageResizer", "execute_scale", "parse_scale_spec"]


@dataclass(frozen=True)
class ScaleDirective:
    """``--scale-at INTERVAL:STAGE:±N`` parsed: resize ``stage`` by ``delta``
    workers when ``interval`` closes."""

    interval: int
    stage: str
    delta: int

    def __post_init__(self) -> None:
        if not self.stage or self.interval < 0 or self.delta == 0:
            raise ValueError(
                f"a scale directive needs interval >= 0, a stage and a "
                f"non-zero delta, got {self!r}"
            )

    def spec(self) -> str:
        return f"{self.interval}:{self.stage}:{self.delta:+d}"


_SCALE_SPEC = re.compile(
    r"^(?P<interval>\d+):(?P<stage>[^:@]+):(?P<delta>[+-]?\d+)$"
)


def parse_scale_spec(spec: str) -> ScaleDirective:
    """Parse ``INTERVAL:STAGE:±N`` (e.g. ``2:order-join:+1``)."""
    match = _SCALE_SPEC.match(spec.strip())
    if match is None:
        raise ValueError(
            f"invalid scale spec {spec!r}: expected INTERVAL:STAGE:±N "
            f"(e.g. 2:order-join:+1)"
        )
    return ScaleDirective(
        interval=int(match.group("interval")),
        stage=match.group("stage"),
        delta=int(match.group("delta")),
    )


@dataclass
class ScaleEvent:
    """One executed elastic resize, measured wall-clock."""

    stage: str
    interval: int
    delta: int
    from_tasks: int
    to_tasks: int
    moved_keys: int = 0
    moved_state: float = 0.0
    #: Pause of the rebalancing key migration alone.
    rebalance_pause_seconds: float = 0.0
    released_tuples: int = 0
    #: Full resize cost including worker spawn/drain.
    wall_seconds: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class StageResizer(StageObserver):
    """Runs a :class:`ScaleDirective` on its stage, once planned at its interval.

    Keeps every key the stage ever routed: the placement diff of the resize
    needs them all.
    """

    def __init__(self, directive: ScaleDirective) -> None:
        self.directive = directive
        self.seen_keys: set = set()
        self.events: List[ScaleEvent] = []

    def on_planned(self, loop: Any, interval: int, keys: Iterable[Any]) -> None:
        self.seen_keys.update(keys)
        if interval == self.directive.interval:
            self.events.append(execute_scale(loop, self.directive, self.seen_keys))

    def on_finalize(self, result: Any) -> None:
        if self.events:
            result.resilience_book()["scale_events"] = [
                event.to_dict() for event in self.events
            ]


def execute_scale(loop: Any, directive: ScaleDirective, seen_keys: Collection[Any]) -> ScaleEvent:
    """Resize ``loop``'s stage per ``directive`` at the current boundary.

    ``loop`` is the stage's ``_StageLoop``; the call runs on the stage
    thread inside ``_close_interval``, after the interval is planned and
    with no dispatch in flight.  ``seen_keys`` are the keys the stage ever
    routed.
    """
    started = time.monotonic()
    partitioner = loop.spec.partitioner
    old = partitioner.num_tasks
    new = old + directive.delta
    if new < 1:
        raise ValueError(
            f"scale directive {directive.spec()!r} would leave stage "
            f"{directive.stage!r} with {new} workers"
        )
    # Any in-flight skew-driven migration must settle before the resize
    # reshuffles ownership underneath it.
    loop.controller.finish_pending()
    for task in range(old, new):
        loop.attach_worker(task)
    # The placement diff over every key this stage ever routed is the
    # migration plan.
    moves = partitioner.resize(new, sorted(seen_keys, key=repr))
    if directive.delta > 0:
        loop.router.set_queues(loop.guarded_queues)
        loop.controller.set_queues(loop.guarded_queues)
    report = loop.controller.execute_moves(loop.current_interval, moves)
    if directive.delta < 0:
        loop.detach_workers(new, old)
        loop.router.set_queues(loop.guarded_queues)
        loop.controller.set_queues(loop.guarded_queues)
    for downstream in loop.downstreams:
        downstream.set_upstream_producers(
            loop.spec.name,
            loop.current_interval + 1,
            new,
            done_delta=max(directive.delta, 0),
        )
    return ScaleEvent(
        stage=directive.stage,
        interval=loop.current_interval,
        delta=directive.delta,
        from_tasks=old,
        to_tasks=new,
        moved_keys=report.moved_keys,
        moved_state=report.moved_state,
        rebalance_pause_seconds=report.pause_seconds,
        released_tuples=report.released_tuples,
        wall_seconds=time.monotonic() - started,
    )
