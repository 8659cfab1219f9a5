"""Abort-aware queue operations and the wedged-coordinator regression.

Before the abort-aware rework, a worker whose coordinator crashed sat
forever in a bare ``in_queue.get()`` — the run hung instead of failing.
These tests pin the fix: the sanctioned wrappers unwind with
:class:`QueueAborted`, and a full ``worker_main`` stuck on an empty inbound
queue exits promptly once its abort predicate trips.
"""

import multiprocessing
import queue
import threading
import time

import pytest

from repro.operators.wordcount import WordCountOperator
from repro.runtime.messages import EndInterval, EndOfStream, TupleBatch
from repro.runtime.queues import (
    POLL_SECONDS,
    Channel,
    QueueAborted,
    abortable_get,
    abortable_put,
    parent_process_died,
)
from repro.runtime.worker import worker_main


class TestAbortableGet:
    def test_returns_available_item_immediately(self):
        inbound = queue.Queue()
        inbound.put("payload")
        assert abortable_get(inbound, lambda: False) == "payload"

    def test_empty_queue_with_tripped_abort_raises(self):
        start = time.monotonic()
        with pytest.raises(QueueAborted):
            abortable_get(queue.Queue(), lambda: True, poll_seconds=0.01)
        assert time.monotonic() - start < 1.0

    def test_item_arriving_during_poll_wins_over_abort(self):
        # The predicate is only consulted on Empty: an item that lands
        # before the poll expires is delivered even if abort is pending.
        inbound = queue.Queue()
        inbound.put("late")
        assert abortable_get(inbound, lambda: True) == "late"


class TestAbortablePut:
    def test_puts_when_capacity_available(self):
        outbound = queue.Queue(maxsize=1)
        abortable_put(outbound, "item", lambda: False)
        assert outbound.get_nowait() == "item"

    def test_full_queue_with_tripped_abort_raises(self):
        outbound = queue.Queue(maxsize=1)
        outbound.put("blocker")
        start = time.monotonic()
        with pytest.raises(QueueAborted):
            abortable_put(outbound, "stuck", lambda: True, poll_seconds=0.01)
        assert time.monotonic() - start < 1.0

    def test_full_queue_unblocks_when_drained(self):
        outbound = queue.Queue(maxsize=1)
        outbound.put("blocker")
        drainer = threading.Timer(0.05, outbound.get)
        drainer.start()
        try:
            abortable_put(outbound, "item", lambda: False, poll_seconds=0.01)
        finally:
            drainer.join()
        assert outbound.get_nowait() == "item"


class TestAbortTextsNameTheMessage:
    """An abandoned put says what it was sending."""

    def test_abortable_put(self):
        outbound = queue.Queue(maxsize=1)
        outbound.put("blocker")
        batch = TupleBatch(interval=0, sent_at=0.0, keys=[1], values=[None])
        with pytest.raises(QueueAborted, match="queue put of TupleBatch abandoned"):
            abortable_put(outbound, batch, lambda: True, poll_seconds=0.01)

    def test_channel_wait(self):
        channel = Channel(multiprocessing.get_context("fork"), 1, "worker:stage:0")
        channel.put(EndInterval(interval=0))
        with pytest.raises(
            QueueAborted,
            match="channel worker:stage:0: put of EndOfStream abandoned waiting for capacity",
        ):
            channel.put(EndOfStream(), abort=lambda: True)


def test_parent_process_died_is_false_in_the_main_process():
    # The test process was launched by pytest, not via multiprocessing, so
    # it has no multiprocessing parent at all: the predicate must not
    # misfire and kill healthy workers.
    assert parent_process_died() is False


class TestWedgedCoordinatorRegression:
    def test_worker_stuck_on_empty_inbound_queue_exits_on_abort(self):
        # The pre-fix hang: coordinator wedges before sending anything, the
        # worker blocks in in_queue.get() forever.  With the abort-aware
        # loop the worker must unwind within a few poll periods.
        abort = threading.Event()
        worker = threading.Thread(
            target=worker_main,
            kwargs=dict(
                worker_id=0,
                logic=WordCountOperator(),
                in_queue=queue.Queue(),
                out_queue=queue.Queue(),
                service_time_us=0.0,
                should_abort=abort.is_set,
            ),
            daemon=True,
        )
        worker.start()
        time.sleep(POLL_SECONDS)  # let it reach the blocking get
        assert worker.is_alive(), "worker should be waiting for input"
        abort.set()
        worker.join(timeout=20 * POLL_SECONDS)
        assert not worker.is_alive(), "worker wedged on a dead coordinator"

    def test_worker_blocked_on_full_out_queue_exits_on_abort(self):
        # Symmetric hazard: the downstream stage died, the egress queue
        # stays full, and the worker blocks in put().  Feed one batch into
        # a worker whose out_queue has zero spare capacity.
        abort = threading.Event()
        in_queue = queue.Queue()
        out_queue = queue.Queue(maxsize=1)
        out_queue.put("blocker")  # nobody will ever drain this
        in_queue.put(
            TupleBatch(interval=0, sent_at=0.0, keys=[1, 2], values=[None, None])
        )
        in_queue.put(EndOfStream())
        worker = threading.Thread(
            target=worker_main,
            kwargs=dict(
                worker_id=0,
                logic=WordCountOperator(),
                in_queue=in_queue,
                out_queue=out_queue,
                service_time_us=0.0,
                should_abort=abort.is_set,
            ),
            daemon=True,
        )
        worker.start()
        time.sleep(2 * POLL_SECONDS)
        assert worker.is_alive(), "worker should be blocked on the full queue"
        abort.set()
        worker.join(timeout=20 * POLL_SECONDS)
        assert not worker.is_alive(), "worker wedged on a full egress queue"
