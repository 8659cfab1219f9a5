"""Abort-aware blocking queue operations — the sanctioned RPL002 wrappers.

A bare ``Queue.get()`` / ``Queue.put(item)`` without a timeout is a
hang-on-crash hazard in this runtime: every blocking queue operation waits on
a *peer* (the coordinator for a worker's inbound queue, a downstream stage for
an egress queue), and if that peer crashed or wedged, the wait never ends —
the process survives its own topology and the run hangs instead of failing.

The helpers here poll with a short timeout and re-check an abort predicate
between waits, so a queue operation whose peer is gone unwinds with
:class:`QueueAborted` instead of blocking forever.  The default predicate,
:func:`parent_process_died`, detects the orphaned-child case: worker and
source processes are children of the coordinator process, so a dead parent
means nobody will ever feed (or drain) their queues again.

The ``RPL002`` lint rule (:mod:`repro.analysis.rules`) flags bare blocking
``get``/``put`` calls on queue-like receivers everywhere *except* this
module — new runtime code must route its blocking queue traffic through these
wrappers (or through an abort-aware proxy such as the coordinator-side
``_AbortableQueue`` below, whose receivers the rule recognises by name).
The coordinator's first-error latch (``_AbortFlag``) and reply demultiplexer
(``_Mailbox``) live here too: every "poll, then re-check an abort predicate"
loop of the runtime is in this module.

The hot path pays nothing for the safety: the abort predicate is evaluated
only after a poll interval expires, never between back-to-back messages.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
from typing import Any, Callable, List, Optional, Type

from repro.runtime.messages import WorkerError

__all__ = [
    "POLL_SECONDS",
    "QueueAborted",
    "abortable_get",
    "abortable_put",
    "drain_queue",
    "parent_process_died",
]

#: Poll period of abort-aware blocking queue operations, seconds.  Bounds how
#: long a wedged process outlives its peer.
POLL_SECONDS = 0.1

AbortCheck = Callable[[], bool]


class QueueAborted(RuntimeError):
    """A blocking queue operation was abandoned: the peer is gone."""


def parent_process_died() -> bool:
    """True when this process's parent exited (the orphaned-worker case)."""
    parent = multiprocessing.parent_process()
    return parent is not None and not parent.is_alive()


def abortable_get(
    queue: Any,
    should_abort: Optional[AbortCheck] = None,
    *,
    poll_seconds: float = POLL_SECONDS,
) -> Any:
    """``queue.get()`` that re-checks ``should_abort`` between short waits.

    Returns the next item, or raises :class:`QueueAborted` once the abort
    predicate fires while the queue is empty.  The predicate is only
    evaluated after an empty poll interval, so a busy queue is consumed at
    full speed.
    """
    check = parent_process_died if should_abort is None else should_abort
    while True:
        try:
            return queue.get(timeout=poll_seconds)
        except queue_module.Empty:
            if check():
                raise QueueAborted(
                    "queue get abandoned: the peer process is gone"
                ) from None


def drain_queue(
    queue: Any,
    *,
    quiet_seconds: float = 0.2,
    poll_seconds: float = 0.05,
) -> int:
    """Discard everything readable from ``queue``; return the drained count.

    Used by supervised recovery to empty a dead worker's inbound queue
    before the respawned process attaches to it: the discarded backlog is
    re-created exactly by replaying the supervisor's retention log, so
    leaving it in place would double-process those batches.  A
    ``multiprocessing.Queue`` can surface items with a small pipe latency,
    hence the quiet window: the drain only stops after ``quiet_seconds``
    without a message.
    """
    drained = 0
    deadline = time.monotonic() + quiet_seconds
    while time.monotonic() < deadline:
        try:
            queue.get(timeout=poll_seconds)
        except queue_module.Empty:
            continue
        drained += 1
        deadline = time.monotonic() + quiet_seconds
    return drained


def abortable_put(
    queue: Any,
    item: Any,
    should_abort: Optional[AbortCheck] = None,
    *,
    poll_seconds: float = POLL_SECONDS,
) -> None:
    """``queue.put(item)`` that re-checks ``should_abort`` between short waits.

    Blocking-put backpressure is preserved (the put retries until space
    frees up); only a dead peer converts the wait into :class:`QueueAborted`.
    """
    check = parent_process_died if should_abort is None else should_abort
    while True:
        try:
            return queue.put(item, timeout=poll_seconds)
        except queue_module.Full:
            if check():
                raise QueueAborted(
                    "queue put abandoned: the peer process is gone"
                ) from None


# -- coordinator-side plumbing -----------------------------------------------------


class _Aborted(Exception):
    """Raised inside stage threads when another stage already failed."""


class _AbortFlag:
    """First-error latch shared by every stage thread of one run."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self.error: Optional[str] = None

    def trip(self, stage: str, exc: BaseException) -> None:
        with self._lock:
            if self.error is None:
                self.error = f"stage {stage!r}: {exc}"
        self._event.set()

    def check(self) -> None:
        if self._event.is_set():
            raise _Aborted()

    @property
    def tripped(self) -> bool:
        return self._event.is_set()


class _AbortableQueue:
    """A put-side queue proxy whose blocking waits stay interruptible.

    ``checker`` is called between short waits; it raises (worker crashed,
    sibling stage failed, run wedged) to unwind the caller instead of
    blocking forever on a queue nobody will ever drain again.
    """

    def __init__(self, queue: Any, checker: Callable[[], None]) -> None:
        self._queue = queue
        self._checker = checker

    def replace(self, queue: Any) -> None:
        """Swap the inner queue in place (worker respawned on a fresh one).

        A put blocked on the dead worker's full queue re-reads ``_queue``
        every retry, so the swap redirects it mid-wait — the wrapping
        logged/sanitized chain and every list holding this proxy stay valid.
        """
        self._queue = queue

    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        if timeout is not None:
            deadline = time.monotonic() + timeout
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise queue_module.Full
                try:
                    return self._queue.put(
                        item, timeout=min(remaining, POLL_SECONDS)
                    )
                except queue_module.Full:
                    self._checker()
        while True:
            try:
                return self._queue.put(item, timeout=POLL_SECONDS)
            except queue_module.Full:
                self._checker()


class _Mailbox:
    """Demultiplexes one stage's outbound queue by message type.

    Replies from workers (interval reports, state shipments, install acks,
    final reports) interleave arbitrarily; consumers ask for a specific type
    and everything else is stashed for later.  ``checker`` (when given) is
    polled during blocking collects so a sibling-stage failure interrupts
    the wait.
    """

    def __init__(
        self,
        out_queue: Any,
        timeout_seconds: float,
        checker: Optional[Callable[[], None]] = None,
    ) -> None:
        self._queue = out_queue
        self._timeout = timeout_seconds
        self._checker = checker
        self._pending: List[Any] = []

    def _check(self, message: Any) -> Any:
        if isinstance(message, WorkerError):
            raise RuntimeError(
                f"worker {message.worker_id} crashed:\n{message.message}"
            )
        return message

    def _take_pending(self, message_type: Type, limit: Optional[int]) -> List[Any]:
        matched: List[Any] = []
        remaining: List[Any] = []
        for message in self._pending:
            if isinstance(message, message_type) and (
                limit is None or len(matched) < limit
            ):
                matched.append(message)
            else:
                remaining.append(message)
        self._pending = remaining
        return matched

    def collect(self, message_type: Type, expected: int) -> List[Any]:
        """Block until ``expected`` messages of ``message_type`` arrived."""
        matched = self._take_pending(message_type, expected)
        deadline = time.monotonic() + self._timeout
        while len(matched) < expected:
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                raise RuntimeError(
                    f"timed out waiting for {expected} {message_type.__name__} "
                    f"replies (got {len(matched)})"
                )
            if self._checker is not None:
                # The checker may pump the queue into the pending stash
                # (check_errors), so re-examine it every pass.
                self._checker()
                matched.extend(
                    self._take_pending(message_type, expected - len(matched))
                )
                if len(matched) >= expected:
                    break
            try:
                message = self._check(
                    self._queue.get(timeout=min(timeout, POLL_SECONDS))
                )
            except queue_module.Empty:
                continue
            if isinstance(message, message_type):
                matched.append(message)
            else:
                self._pending.append(message)
        return matched

    def drain(self, message_type: Type) -> List[Any]:
        """Every already-available message of ``message_type`` (non-blocking)."""
        self.check_errors()
        return self._take_pending(message_type, None)

    def check_errors(self) -> None:
        """Pump the queue without blocking; raise if a worker crashed."""
        while True:
            try:
                message = self._check(self._queue.get_nowait())
            except queue_module.Empty:
                break
            self._pending.append(message)
