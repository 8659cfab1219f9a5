"""The hooks a stage's router thread calls on what rides along with it.

The stage loop (:mod:`repro.runtime.stage_loop`) routes, closes intervals and
runs live migrations; four concerns ride on it — the protocol sanitizer
(:mod:`repro.runtime.sanitizer`), the supervisor's retention log and
checkpoint rounds, kill injection (:mod:`~repro.runtime.resilience.
supervisor`) and elastic resize (:mod:`~repro.runtime.resilience.scaling`).
Each is a :class:`StageObserver` in the stage's one ordered list of
observers, which ``TopologyRuntime.run`` builds from the run's config; the
loop calls every observer's hook, in list order, on the stage's thread.

An interval closes in this order: the pending hand-off finishes, every task
is sent ``EndInterval``, interval 0 calibrates the pacing, :meth:`on_close`
runs (the sanitizer's watermark check, the checkpoint round), the
partitioner plans, and :meth:`on_planned` runs (the resize).
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = ["StageObserver"]


class StageObserver:
    """One concern riding a stage's lifecycle; every hook here is a no-op."""

    def on_send(self, task: int, message: Any) -> None:
        """``message`` went to ``task`` (after its put returned: an abandoned
        put is never seen)."""

    def on_ingress_batch(self, loop: Any, origin: str, batch: Any) -> None:
        """An ingress batch passed the replay dedup, before its dispatch."""

    def on_upstream_mark(self, origin: str, producer: int, interval: int) -> None:
        """An upstream mark passed the barrier's dedup."""

    def on_close(self, loop: Any, interval: int) -> None:
        """Every task holds ``interval``'s ``EndInterval``; nothing is planned."""

    def on_planned(self, loop: Any, interval: int, keys: Iterable[Any]) -> None:
        """``interval`` is planned; ``keys`` are the keys routed in it."""

    def on_attach(self, task: int) -> None:
        """``task`` is a new worker (scale-out) with its send path."""

    def on_detach(self, task: int) -> None:
        """``task`` was drained by a scale-in and is gone."""

    def on_worker_died(self, loop: Any, task: int, process: Any) -> bool:
        """``task``'s process died: True once healed, else the run fails."""
        return False

    def on_respawn(self, task: int) -> None:
        """``task`` runs in a fresh process on a fresh channel."""

    def on_replay(self, task: int, replaying: bool) -> None:
        """What follows to ``task`` re-sends its retention log (``replaying``),
        or the replay is over."""

    def on_pause(self, keys: Iterable[Any]) -> None:
        """The router stopped dispatching ``keys`` (a hand-off began)."""

    def on_resume(self) -> None:
        """The router released every paused key."""

    def on_finalize(self, result: Any) -> None:
        """The stage's ``RuntimeResult`` is folded; add to it."""
