"""The runtime's one transport, on real processes.

``repro.runtime.queues.Channel`` is a bounded multi-producer / single-consumer
pipe: ``put`` pickles and writes in the caller, ``get`` reads ahead and frees
one capacity slot per message handed out, and every wait wakes to re-check
an abort predicate.  Producers and consumers here are forked processes; the
frame-level cases (torn stream, half-arrived frame) write to the pipe by hand.
"""

import multiprocessing
import os
import pickle
import queue
import signal
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.operator import OperatorLogic
from repro.runtime.messages import EndOfStream, TupleBatch
from repro.runtime.queues import (
    MAX_FRAME_BYTES,
    POLL_SECONDS,
    Channel,
    QueueAborted,
    _AbortableQueue,
    abortable_get,
    abortable_put,
)
from repro.runtime.worker import worker_main

FORK = multiprocessing.get_context("fork")
PIPE_BYTES = 1 << 16

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)


def _produce(channel, producer, sizes, put_done):
    """Put one ``(producer, seq, payload)`` per size; count each returned put."""
    for seq, size in enumerate(sizes):
        abortable_put(channel, (producer, seq, bytes([seq % 251]) * size))
        with put_done.get_lock():
            put_done.value += 1


class _ThreadCount(OperatorLogic):
    """Emits, per batch, how many threads its process is running."""

    def process_batch(self, keys, values, interval, state, task_id):
        return list(keys), [threading.active_count()] * len(keys)


def _start(target, *args):
    process = FORK.Process(target=target, args=args, daemon=True)
    process.start()
    return process


def _kill(process):
    os.kill(process.pid, signal.SIGKILL)


def _write_raw(channel, data):
    """Bytes straight onto the pipe, holding a slot like a real ``put`` does."""
    assert channel._slots.acquire(timeout=1.0)
    os.write(channel._writer.fileno(), data)


sizes = st.one_of(
    st.integers(1, 2048), st.integers(2048, PIPE_BYTES), st.integers(PIPE_BYTES, 300 * 1024)
)


class TestDelivery:
    @settings(max_examples=12, deadline=None)
    @given(
        per_producer=st.lists(st.lists(sizes, min_size=1, max_size=5), min_size=1, max_size=3),
        capacity=st.integers(1, 8),
    )
    def test_nothing_lost_nothing_reordered_never_over_capacity(self, per_producer, capacity):
        channel = Channel(FORK, capacity, "test")
        put_done = FORK.Value("q", 0)
        producers = [
            _start(_produce, channel, producer, tuple(sizes_), put_done)
            for producer, sizes_ in enumerate(per_producer)
        ]
        expected = sum(len(sizes_) for sizes_ in per_producer)
        got = []
        try:
            while len(got) < expected:
                # ``put_done`` lags the puts and ``len(got)`` is exact, so the
                # difference never overstates what is un-got.  Releasing a
                # slot per message *read* (not handed out) would let
                # producers run ahead of this bound.
                assert put_done.value - len(got) <= capacity
                got.append(
                    abortable_get(
                        channel, lambda: not any(p.is_alive() for p in producers)
                    )
                )
        finally:
            for process in producers:
                process.join(timeout=10.0)
        assert all(process.exitcode == 0 for process in producers)
        with pytest.raises(queue.Empty):
            channel.get_nowait()
        assert channel.backlog() == 0
        for producer, sizes_ in enumerate(per_producer):
            mine = [(seq, payload) for who, seq, payload in got if who == producer]
            # FIFO per producer, whole frames (some larger than the pipe).
            assert mine == [
                (seq, bytes([seq % 251]) * size) for seq, size in enumerate(sizes_)
            ]

    def test_half_arrived_frame_is_not_there_yet(self):
        channel = Channel(FORK, 4, "test")
        payload = pickle.dumps("whole")
        frame = struct.pack("<I", len(payload)) + payload
        _write_raw(channel, frame[:7])
        # What did arrive stays buffered; the message is not there yet.
        with pytest.raises(queue.Empty):
            channel.get_nowait()
        with pytest.raises(queue.Empty):
            channel.get(timeout=0.05)
        os.write(channel._writer.fileno(), frame[7:])
        assert channel.get_nowait() == "whole"

    def test_put_times_out_full_and_leaves_nothing_on_the_wire(self):
        channel = Channel(FORK, 2, "test")
        channel.put("a")
        channel.put("b")
        started = time.monotonic()
        with pytest.raises(queue.Full):
            channel.put("c", timeout=0.2)
        assert 0.2 <= time.monotonic() - started < 1.0
        with pytest.raises(queue.Full):
            channel.put("c", block=False)
        assert channel.get(timeout=1.0) == "a"
        channel.put("d", timeout=1.0)
        assert [channel.get(timeout=1.0) for _ in range(2)] == ["b", "d"]
        with pytest.raises(queue.Empty):
            channel.get_nowait()

    def test_unpicklable_message_raises_in_the_put_that_sent_it(self):
        channel = Channel(FORK, 1, "test")
        with pytest.raises(TypeError, match="pickle"):
            channel.put(threading.Lock())
        # The slot went back and no byte was written.
        channel.put("ok", timeout=0.1)
        assert channel.get(timeout=1.0) == "ok"
        with pytest.raises(queue.Empty):
            channel.get_nowait()

    def test_no_thread_is_started_by_a_put(self):
        # A real worker: its second emission reports the threads it had
        # after its first (an ``mp.Queue`` would have started a feeder).
        inbound, outbound, egress = (Channel(FORK, 4, role) for role in "abc")
        worker = _start(worker_main, 0, _ThreadCount(), inbound, outbound, 0.0, egress)
        try:
            for _ in range(2):
                inbound.put(TupleBatch(interval=0, sent_at=time.monotonic(), keys=["k"], values=[0]))
            emitted = [abortable_get(egress, lambda: not worker.is_alive()) for _ in range(2)]
            assert emitted[1].values == [1]
        finally:
            inbound.put(EndOfStream())
            worker.join(timeout=5.0)

    def test_crosses_a_spawn_boundary(self):
        context = multiprocessing.get_context("spawn")
        channel = Channel(context, 2, "test")
        producer = context.Process(target=abortable_put, args=(channel, "hello"), daemon=True)
        producer.start()
        try:
            assert abortable_get(channel, lambda: not producer.is_alive()) == "hello"
        finally:
            producer.join(timeout=10.0)


class TestDeadPeers:
    def test_consumer_killed_while_a_producer_is_in_mid_frame(self):
        def consume_one_then_hang(channel):
            channel.get(timeout=5.0)
            time.sleep(60.0)

        channel = Channel(FORK, 4, "test")
        consumer = _start(consume_one_then_hang, channel)
        channel.put("claim")
        killer = threading.Timer(0.3, _kill, args=(consumer,))
        killer.start()
        try:
            started = time.monotonic()
            with pytest.raises(QueueAborted, match="pipe space"):
                # Four pipes' worth: the put is stuck in mid-frame when the
                # consumer dies, and only the predicate can end it.
                abortable_put(channel, bytes(4 * PIPE_BYTES), lambda: not consumer.is_alive())
            assert time.monotonic() - started < 0.3 + 5 * POLL_SECONDS
        finally:
            killer.join()

    def test_producer_killed_between_messages(self):
        def put_one_then_hang(channel):
            abortable_put(channel, "only")
            time.sleep(60.0)

        channel = Channel(FORK, 4, "test")
        producer = _start(put_one_then_hang, channel)
        assert abortable_get(channel, lambda: False) == "only"
        _kill(producer)
        producer.join(timeout=5.0)
        started = time.monotonic()
        with pytest.raises(QueueAborted):
            abortable_get(channel, lambda: not producer.is_alive())
        assert time.monotonic() - started < 5 * POLL_SECONDS


    def test_put_in_mid_frame_starts_over_on_a_swapped_in_channel(self):
        # Recovery's shape: the stage thread is stuck in mid-frame on a dead
        # worker's channel, its watchdog heals the worker from inside that
        # wait and swaps a fresh channel into the proxy.
        dead, fresh = Channel(FORK, 4, "worker:join:0"), Channel(FORK, 4, "worker:join:0")
        proxy = _AbortableQueue(dead, lambda: proxy.replace(fresh))
        received = []
        reader = threading.Thread(target=lambda: received.append(fresh.get(timeout=10.0)))
        reader.start()
        big = bytes(4 * PIPE_BYTES)
        proxy.put(big)
        reader.join(timeout=10.0)
        assert received == [big]
        with pytest.raises(queue.Empty):
            fresh.get_nowait()


class TestTornStream:
    def test_absurd_header_names_the_channel(self):
        channel = Channel(FORK, 2, "worker:join:1")
        _write_raw(channel, struct.pack("<I", MAX_FRAME_BYTES + 1))
        with pytest.raises(RuntimeError, match=r"worker:join:1.*torn stream"):
            channel.get_nowait()

    def test_eof_in_mid_frame_names_the_channel(self):
        channel = Channel(FORK, 2, "out:join")
        _write_raw(channel, struct.pack("<I", 100) + b"half")
        channel._writer.close()
        with pytest.raises(RuntimeError, match=r"out:join.*mid-frame"):
            channel.get(timeout=1.0)

    def test_second_consumer_process_is_refused_at_once(self):
        def try_get(channel, verdict):
            try:
                channel.get_nowait()
            except RuntimeError as exc:
                verdict.value = int("already its consumer" in str(exc) and "ingress:agg" in str(exc))

        channel = Channel(FORK, 2, "ingress:agg")
        channel.put("mine")
        assert channel.get(timeout=1.0) == "mine"
        channel.put("not yours")
        verdict = FORK.Value("i", 0)
        _start(try_get, channel, verdict).join(timeout=5.0)
        assert verdict.value == 1
        assert channel.get(timeout=1.0) == "not yours"

    def test_release_past_the_bound_propagates(self):
        channel = Channel(FORK, 1, "test")
        channel.put("held")
        assert channel.get(timeout=1.0) == "held"
        # A frame nobody took a slot for: handing it out would be a second
        # release of the same slot — a protocol bug, not something to swallow.
        stray = pickle.dumps(None)
        os.write(channel._writer.fileno(), struct.pack("<I", len(stray)) + stray)
        with pytest.raises(ValueError):
            channel.get(timeout=1.0)
