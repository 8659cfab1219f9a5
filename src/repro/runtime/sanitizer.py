"""The runtime protocol sanitizer: dynamic invariant checks on a live topology.

TSan-style opt-in instrumentation (``RuntimeConfig(sanitize=True)`` or
``repro bench --sanitize``): each stage's :class:`StageSanitizer` is one of
its lifecycle observers (:mod:`repro.runtime.lifecycle`) and checks, from
the hooks, the same protocol invariants the static rules
(:mod:`repro.analysis.rules`) pin at the source level —

* **message_type** — every object crossing a process boundary is a type
  registered in :mod:`repro.runtime.messages` (the dynamic RPL001);
* **watermark** — interval markers are strictly monotone, both per worker
  queue (``EndInterval`` sends) and at the coordinator's interval close;
* **put_after_close** — nothing is sent to a worker after its
  ``EndOfStream``;
* **pause_resume** — pauses and resumes pair up, and no pause is left
  outstanding at the end of the run (the dynamic RPL003);
* **conservation** — tuples offered = enqueued to workers, and tuples
  processed = enqueued (reusing the router/worker parity accounting): a
  leak or double-count anywhere in the dispatch/pause-buffer plumbing
  shows up as an imbalance here;
* **fan_in_watermark** — on a DAG consumer, accepted upstream marks advance
  strictly per ``(origin, producer)`` edge, and no interval closes before
  *every* upstream origin marked it (an independent re-check of the stage
  loop's multi-origin mark barrier);
* **fan_in_conservation** — the per-origin ingress tuple counts (after
  replay dedup) sum to the stage's dispatch-side offered total, so a
  fan-in funnel neither loses nor double-counts an edge's tuples.

Violations are *recorded*, never raised: a sanitized bench completes and
reports, exactly so the checker can ride along in CI without turning an
accounting bug into a wedged pipeline.  The send hook costs a few attribute
lookups per message — negligible against the pickling cost of the send
itself — so a sanitized run's numbers remain representative.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.runtime import messages
from repro.runtime.lifecycle import StageObserver

__all__ = [
    "SanitizerReport",
    "StageSanitizer",
    "Violation",
]


@dataclass(frozen=True)
class Violation:
    """One observed protocol-invariant breach."""

    check: str
    stage: str
    message: str
    interval: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "check": self.check,
            "stage": self.stage,
            "message": self.message,
        }
        if self.interval is not None:
            data["interval"] = self.interval
        return data


class SanitizerReport:
    """Thread-safe collector shared by every stage of one sanitized run.

    ``checks`` counts how many times each invariant was *evaluated* — a
    clean report with zero checks means the sanitizer never engaged, so
    callers asserting a clean run also assert a non-zero check total.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._violations: List[Violation] = []
        self._checks: Counter = Counter()

    def record(self, violation: Violation) -> None:
        with self._lock:
            self._violations.append(violation)

    def count_check(self, check: str, amount: int = 1) -> None:
        with self._lock:
            self._checks[check] += amount

    @property
    def violations(self) -> List[Violation]:
        with self._lock:
            return list(self._violations)

    @property
    def ok(self) -> bool:
        with self._lock:
            return not self._violations

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": True,
                "ok": not self._violations,
                "checks": dict(self._checks),
                "violations": [v.to_dict() for v in self._violations],
            }


class StageSanitizer(StageObserver):
    """Per-stage monitor: all hooks run on the stage's router thread."""

    def __init__(
        self,
        stage: str,
        report: SanitizerReport,
        origins: Optional[Sequence[str]] = None,
    ) -> None:
        self.stage = stage
        self.report = report
        self._registry = set(messages.__all__)
        #: Declared upstream edges of the stage (``None`` = learn them from
        #: the marks actually observed — single-stage and unit-test use).
        self._origins: Optional[Set[str]] = (
            set(origins) if origins is not None else None
        )
        #: Last EndInterval sent per task (strict monotonicity).
        self._last_marker: Dict[int, int] = {}
        #: Tasks whose EndOfStream already went out.
        self._closed_tasks: Set[int] = set()
        #: Last coordinator-side interval close.
        self._last_closed: Optional[int] = None
        #: Outstanding pauses (pause() calls minus resume() calls).
        self._pause_depth = 0
        #: Tuples enqueued onto worker queues (TupleBatch payload sizes).
        self._enqueued = 0
        #: Ingress tuples accepted per upstream origin (post replay-dedup).
        self._received: Dict[str, int] = {}
        #: Last accepted upstream-mark interval per (origin, producer).
        self._edge_marks: Dict[Any, int] = {}
        #: Origins whose mark arrived per still-open interval.
        self._interval_origins: Dict[int, Set[str]] = {}
        #: True while the supervisor replays a retention log: replayed
        #: batches were already counted when first enqueued, so counting
        #: them again would break end-of-run conservation.
        self._replaying = False

    def _violate(
        self, check: str, message: str, interval: Optional[int] = None
    ) -> None:
        self.report.record(
            Violation(
                check=check, stage=self.stage, message=message, interval=interval
            )
        )

    # -- queue sends -----------------------------------------------------

    def on_send(self, task: int, message: Any) -> None:
        type_name = type(message).__name__
        self.report.count_check("message_type")
        if type_name not in self._registry:
            self._violate(
                "message_type",
                f"unregistered message type {type_name!r} sent to task {task}",
            )
        if task in self._closed_tasks:
            self.report.count_check("put_after_close")
            self._violate(
                "put_after_close",
                f"{type_name} sent to task {task} after its EndOfStream",
            )
        interval = getattr(message, "interval", None)
        if type_name == "EndInterval" and interval is not None:
            self.report.count_check("watermark")
            last = self._last_marker.get(task)
            if last is not None and interval <= last:
                self._violate(
                    "watermark",
                    f"EndInterval marker went backwards on task {task}: "
                    f"{interval} after {last}",
                    interval=interval,
                )
            self._last_marker[task] = interval
        if type_name == "EndOfStream":
            self._closed_tasks.add(task)
        keys = getattr(message, "keys", None)
        if type_name == "TupleBatch" and keys is not None and not self._replaying:
            self._enqueued += len(keys)

    # -- fan-in ingress ---------------------------------------------------

    def on_ingress_batch(self, loop: Any, origin: str, batch: Any) -> None:
        """The per-origin totals reconcile against the router's dispatch-side
        offered count at :meth:`finalize` — the multi-upstream conservation
        book."""
        self._received[origin] = self._received.get(origin, 0) + len(batch.keys)

    def on_upstream_mark(self, origin: str, producer: int, interval: int) -> None:
        """Independently re-checks the stage loop's barrier dedup — an accepted
        mark must strictly advance its ``(origin, producer)`` edge — and
        records which origins marked the interval, so :meth:`on_close` can
        verify no interval closes with an upstream origin still unheard.
        """
        self.report.count_check("fan_in_watermark")
        if self._origins is not None and origin not in self._origins:
            self._violate(
                "fan_in_watermark",
                f"mark from undeclared upstream origin {origin!r} "
                f"(declared: {sorted(self._origins)})",
                interval=interval,
            )
        edge = (origin, producer)
        last = self._edge_marks.get(edge)
        if last is not None and interval <= last:
            self._violate(
                "fan_in_watermark",
                f"accepted upstream mark went backwards on edge "
                f"{origin}:{producer}: {interval} after {last}",
                interval=interval,
            )
        self._edge_marks[edge] = interval
        self._interval_origins.setdefault(interval, set()).add(origin)

    # -- supervised recovery ---------------------------------------------

    def on_respawn(self, task: int) -> None:
        """The fresh process rebuilds its watermark from the checkpoint and the
        replayed markers, so the per-task marker history restarts — replayed
        ``EndInterval`` markers are monotone among themselves but precede
        the markers already seen on the old incarnation.
        """
        self.report.count_check("recovery")
        self._last_marker.pop(task, None)
        self._closed_tasks.discard(task)

    def on_replay(self, task: int, replaying: bool) -> None:
        self._replaying = replaying

    # -- coordinator interval close --------------------------------------

    def on_close(self, loop: Any, interval: int) -> None:
        self.report.count_check("watermark")
        if self._last_closed is not None and interval <= self._last_closed:
            self._violate(
                "watermark",
                f"interval close went backwards: {interval} after "
                f"{self._last_closed}",
                interval=interval,
            )
        self._last_closed = interval
        marked = self._interval_origins.pop(interval, set())
        if self._origins is not None:
            self.report.count_check("fan_in_watermark")
            missing = self._origins - marked
            if missing:
                self._violate(
                    "fan_in_watermark",
                    f"interval {interval} closed before upstream origin(s) "
                    f"{sorted(missing)} marked it",
                    interval=interval,
                )

    # -- pause/resume ----------------------------------------------------

    def on_pause(self, keys: Any) -> None:
        self.report.count_check("pause_resume")
        self._pause_depth += 1

    def on_resume(self) -> None:
        self.report.count_check("pause_resume")
        if self._pause_depth <= 0:
            self._violate(
                "pause_resume", "resume() without a matching pause()"
            )
        else:
            self._pause_depth -= 1

    # -- end-of-run conservation -----------------------------------------

    def on_finalize(self, result: Any) -> None:
        self.finalize(float(result.tuples_offered), float(result.tuples_processed))

    def finalize(self, offered: float, processed: float) -> None:
        """Close the books: pause pairing and tuple conservation.

        ``offered`` is the router's per-interval dispatch accounting,
        ``processed`` the workers' final-report sum; the sanitizer's own
        ``enqueued`` count (successful ``TupleBatch`` puts) must reconcile
        both sides: ``offered = enqueued`` and ``processed = enqueued``.
        """
        self.report.count_check("pause_resume")
        if self._pause_depth > 0:
            self._violate(
                "pause_resume",
                f"{self._pause_depth} pause(s) never resumed by end of run",
            )
        self.report.count_check("conservation", 2)
        if round(offered) != self._enqueued:
            self._violate(
                "conservation",
                f"offered {offered:g} != enqueued {self._enqueued}",
            )
        if round(processed) != self._enqueued:
            self._violate(
                "conservation",
                f"processed {processed:g} != enqueued {self._enqueued}",
            )
        if self._received:
            # Multi-upstream conservation: every edge's accepted ingress
            # tuples — and nothing else — reached the dispatch accounting.
            self.report.count_check("fan_in_conservation", len(self._received))
            total = sum(self._received.values())
            if round(offered) != total:
                self._violate(
                    "fan_in_conservation",
                    f"per-origin ingress {dict(sorted(self._received.items()))} "
                    f"sums to {total} != offered {offered:g}",
                )

