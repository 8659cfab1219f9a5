"""The runtime's one transport and its abort-aware waits (RPL002's home).

**The channel.**  Every message that crosses a process boundary — stage
ingress, worker inbound, stage outbound — travels on a :class:`Channel`: a
bounded multi-producer / single-consumer pipe.  ``put`` does all of its work
in the calling thread: it takes one capacity slot (a process-shared semaphore
counted in *messages*), pickles the message, takes the write lock and writes
one length-prefixed frame to the pipe.  When ``put`` returns the message is
on the wire; no thread is started, nothing is pickled later, and an
unpicklable message raises at the ``put`` that sent it.  ``get`` reads ahead:
the single consumer moves whatever the pipe holds into a private buffer, hands
out complete frames one at a time and frees one slot per message *handed
out*, so the number of un-got messages never exceeds the capacity.

**The waits.**  A blocking operation waits on a *peer* (the coordinator for a
worker's inbound channel, a downstream stage for an egress channel); if that
peer crashed or wedged, an unbounded wait would turn a failed run into a hung
one.  So no wait here is unbounded: capacity, write lock, pipe space and read
each wake every :data:`POLL_SECONDS` and re-check the caller's abort
predicate.  :func:`abortable_get` / :func:`abortable_put` are the child-side
wrappers (default predicate :func:`parent_process_died`: workers and the
source are children of the coordinator, so a dead parent means nobody will
feed or drain their channels again); ``_AbortableQueue`` is the coordinator's
one send path to a worker, whose predicate is the stage's watchdog and which
reports each put to the stage's lifecycle observers.  They work on any
object with ``queue.Queue``'s ``get`` / ``put`` — only a :class:`Channel` can
be interrupted in mid-frame, so only it is handed the predicate.

The ``RPL002`` lint rule (:mod:`repro.analysis.rules`) flags bare blocking
``get``/``put`` calls on queue-like receivers, and any other queue constructed
under ``repro/runtime``, everywhere *except* this module.  The coordinator's
first-error latch (``_AbortFlag``) and reply demultiplexer (``_Mailbox``) live
here too: every "poll, then re-check an abort predicate" loop of the runtime
is in this module.

The hot path pays nothing for the safety: a message that finds capacity, the
lock and pipe space costs one pickle and one ``write``; one that is already
in the pipe costs one ``read`` and one unpickle.  Pollers are built once per
process and channel and only waited on when there is something to wait for;
the abort predicate is evaluated only after a poll interval expires.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import select
import struct
import threading
import time
from functools import partial
from multiprocessing.synchronize import SEM_VALUE_MAX
from typing import Any, Callable, List, Optional, Sequence, Type

from repro.runtime.messages import WorkerError

__all__ = [
    "Channel",
    "MAX_FRAME_BYTES",
    "POLL_SECONDS",
    "QueueAborted",
    "abortable_get",
    "abortable_put",
    "parent_process_died",
]

#: Poll period of abort-aware blocking queue operations, seconds.  Bounds how
#: long a wedged process outlives its peer.
POLL_SECONDS = 0.1

#: Largest frame a channel carries.  A header announcing more is a torn
#: stream (or a protocol bug), not something to allocate.
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct("<I")
_READ_BYTES = 1 << 16

AbortCheck = Callable[[], bool]


class QueueAborted(RuntimeError):
    """A blocking queue operation was abandoned: the peer is gone."""


def parent_process_died() -> bool:
    """True when this process's parent exited (the orphaned-worker case)."""
    parent = multiprocessing.parent_process()
    return parent is not None and not parent.is_alive()


class Channel:
    """A bounded multi-producer / single-consumer pipe of pickled messages.

    ``role`` names the channel in errors (``ingress:<stage>``,
    ``worker:<stage>:<task>``, ``out:<stage>``); ``capacity`` bounds the
    messages put and not yet handed out (``0`` = unbounded in messages — the
    pipe still bounds the bytes in flight).  Any number of processes may
    ``put``; exactly one may ``get`` — read-ahead keeps bytes in that
    process's private buffer, so a second consumer is refused at once.

    The endpoints are ``multiprocessing`` connections and the counters
    ``multiprocessing`` primitives, so a channel crosses a ``fork`` or
    ``spawn`` boundary like a ``multiprocessing.Queue`` does.  What a process
    builds for itself (read buffer, pollers) is keyed by pid and never
    inherited.
    """

    def __init__(self, context: Any, capacity: int = 0, role: str = "channel") -> None:
        self.role = role
        self.capacity = capacity if capacity > 0 else SEM_VALUE_MAX
        self._reader, self._writer = context.Pipe(duplex=False)
        # O_NONBLOCK belongs to the open file description: every process
        # that inherits or receives these ends shares it.
        os.set_blocking(self._reader.fileno(), False)
        os.set_blocking(self._writer.fileno(), False)
        self._slots = context.BoundedSemaphore(self.capacity)
        self._write_lock = context.Lock()
        self._consumer = context.Value("q", 0)
        self._start_over(0)

    # -- per-process state ---------------------------------------------------------

    def _start_over(self, pid: int) -> None:
        self._pid = pid
        self._buffer: Optional[bytearray] = None
        self._read_poller: Any = None
        self._write_poller: Any = None

    def _local(self) -> None:
        """Nothing a process built for itself survives a fork into another."""
        pid = os.getpid()
        if self._pid != pid:
            self._start_over(pid)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.update(_pid=0, _buffer=None, _read_poller=None, _write_poller=None)
        return state

    def _check(self, abort: Optional[AbortCheck], item: Any, what: str) -> None:
        """A wait's poll interval expired: give up if the caller says so."""
        if abort is not None and abort():
            raise QueueAborted(
                f"channel {self.role}: put of {type(item).__name__} abandoned "
                f"waiting for {what}: the peer process is gone"
            )

    # -- producer side ---------------------------------------------------------------

    def put(
        self,
        item: Any,
        block: bool = True,
        timeout: Optional[float] = None,
        *,
        abort: Optional[AbortCheck] = None,
    ) -> None:
        """Put ``item`` on the wire; it is readable when this returns.

        ``timeout`` bounds the wait for a capacity slot only — the one wait
        that ends in ``queue.Full``, before a byte is written.  Once the
        frame is begun it is finished: the waits for the write lock and for
        pipe space end only in success or, when ``abort`` fires, in
        :class:`QueueAborted` (the channel then holds a torn frame and is of
        no further use — its consumer is gone).
        """
        self._local()
        if block and timeout is None:
            while not self._slots.acquire(True, POLL_SECONDS):
                self._check(abort, item, "capacity")
        elif not self._slots.acquire(block, timeout):
            raise queue_module.Full
        on_wire = False
        try:
            payload = pickle.dumps(item, pickle.HIGHEST_PROTOCOL)
            if len(payload) > MAX_FRAME_BYTES:
                raise ValueError(
                    f"channel {self.role}: a {len(payload)}-byte message exceeds "
                    f"the {MAX_FRAME_BYTES}-byte frame ceiling"
                )
            frame = memoryview(_HEADER.pack(len(payload)) + payload)
            while not self._write_lock.acquire(True, POLL_SECONDS):
                self._check(abort, item, "the write lock")
            try:
                fd = self._writer.fileno()
                while frame:
                    try:
                        sent = os.write(fd, frame)
                    except BlockingIOError:
                        if not self._pipe_space():
                            self._check(abort, item, "pipe space")
                        continue
                    except BrokenPipeError:
                        raise QueueAborted(
                            f"channel {self.role}: no process holds the read end"
                        ) from None
                    on_wire = True
                    frame = frame[sent:]
            finally:
                self._write_lock.release()
        except BaseException:
            if not on_wire:
                self._slots.release()
            raise

    def _pipe_space(self) -> bool:
        """Wait up to ``POLL_SECONDS`` for the pipe to take more bytes."""
        if self._write_poller is None:
            self._write_poller = select.poll()
            self._write_poller.register(self._writer.fileno(), select.POLLOUT)
        return bool(self._write_poller.poll(POLL_SECONDS * 1000.0))

    # -- consumer side ---------------------------------------------------------------

    def get(self, block: bool = True, timeout: Optional[float] = None) -> Any:
        """The next message; ``queue.Empty`` if none is *whole* in time.

        A half-arrived frame stays buffered and counts as nothing there.
        """
        self._local()
        if self._buffer is None:
            self._claim()
        buffer = self._buffer
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if len(buffer) >= _HEADER.size:
                (size,) = _HEADER.unpack_from(buffer)
                if size > MAX_FRAME_BYTES:
                    raise RuntimeError(
                        f"channel {self.role}: torn stream — a frame header "
                        f"announces {size} bytes (ceiling {MAX_FRAME_BYTES})"
                    )
                end = _HEADER.size + size
                if len(buffer) >= end:
                    payload = buffer[_HEADER.size : end]
                    del buffer[:end]
                    self._slots.release()
                    return pickle.loads(payload)
            if not block:
                wait_ms: Optional[float] = 0.0
            elif deadline is None:
                wait_ms = None
            else:
                wait_ms = max(deadline - time.monotonic(), 0.0) * 1000.0
            if not self._read_poller.poll(wait_ms):
                raise queue_module.Empty
            chunk = os.read(self._reader.fileno(), _READ_BYTES)
            if not chunk:
                raise RuntimeError(
                    f"channel {self.role}: every producer closed the pipe"
                    + (f" in mid-frame ({len(buffer)} bytes buffered)" if buffer else "")
                )
            buffer += chunk

    def get_nowait(self) -> Any:
        return self.get(False)

    def _claim(self) -> None:
        """Become the channel's consumer, or refuse: there is only one."""
        pid = os.getpid()
        with self._consumer.get_lock():
            owner = self._consumer.value
            if owner not in (0, pid):
                raise RuntimeError(
                    f"channel {self.role}: process {pid} called get, but process "
                    f"{owner} is already its consumer (read-ahead allows one)"
                )
            self._consumer.value = pid
        self._buffer = bytearray()
        self._read_poller = select.poll()
        self._read_poller.register(self._reader.fileno(), select.POLLIN)

    def backlog(self) -> int:
        """Messages put and not yet handed out.

        Supervised recovery counts what a dead worker left un-got this way —
        by asking, not by reading: the dead reader may have taken half a
        frame into its private buffer, so what is left in the pipe need not
        start at a frame boundary.  Nothing has to be waited for either: a
        ``put`` that returned holds its slot until the message is handed out.
        The count is a report field, so where the platform cannot answer
        (macOS has no ``sem_getvalue``) it reads 0.
        """
        try:
            return self.capacity - self._slots.get_value()
        except NotImplementedError:
            return 0


def _put(queue: Any, item: Any, timeout: float, check: AbortCheck) -> None:
    """One bounded attempt: ``queue.Full`` if no capacity within ``timeout``.

    A plain queue's put is all-or-nothing, so the caller's retry loop is the
    whole story; a :class:`Channel` may have to wait in mid-frame and takes
    the predicate along.
    """
    if isinstance(queue, Channel):
        queue.put(item, timeout=timeout, abort=check)
    else:
        queue.put(item, timeout=timeout)


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
            return _put(queue, item, poll_seconds, check)
        except queue_module.Full:
            if check():
                raise QueueAborted(
                    f"queue put of {type(item).__name__} abandoned: "
                    "the peer process is gone"
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
    """The coordinator's send path to one worker, whose waits stay interruptible.

    ``checker`` is called between short waits; it raises (worker crashed,
    sibling stage failed, run wedged) to unwind the caller instead of
    blocking forever on a queue nobody will ever drain again.  After a put
    returned, each of ``observers`` (the stage's lifecycle observers) sees
    ``on_send(task, item)``; a put that aborts is never seen.
    """

    def __init__(
        self, queue: Any, checker: Callable[[], None], task: int = 0, observers: Sequence[Any] = ()
    ) -> None:
        self._queue = queue
        self._checker = checker
        self._task = task
        self._observers = observers

    def replace(self, queue: Any) -> None:
        """Swap the inner queue in place (worker respawned on a fresh one).

        A put blocked on the dead worker's channel — for capacity or in
        mid-frame — sees the swap at its next wake-up and starts over on the
        new one, so every list holding this proxy stays valid.
        """
        self._queue = queue

    def backlog(self) -> int:
        """Messages put on the current channel and not yet handed out."""
        return self._queue.backlog()

    def _swapped(self, queue: Any) -> bool:
        """The abort check of a put in progress on ``queue``.

        The checker may heal a dead worker, which swaps the queue: a frame
        begun on the old one is then abandoned with it.
        """
        self._checker()
        return self._queue is not queue

    def put(self, item: Any, *, observed: bool = True) -> None:
        """Put ``item``; ``observed=False`` keeps it from the observers."""
        while True:
            queue = self._queue
            try:
                _put(queue, item, POLL_SECONDS, partial(self._swapped, queue))
                break
            except queue_module.Full:
                self._checker()
            except QueueAborted:
                if self._queue is queue:
                    raise
        if observed:
            for observer in self._observers:
                observer.on_send(self._task, item)


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
