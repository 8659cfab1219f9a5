"""Tests for keyed state, the executor model and backpressure.

The sliding window tested here is the one the per-key reference state in
``reference_state.py`` keeps; the keyed-state oracle relies on it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.backpressure import admissible_fraction
from repro.engine.executor import ExecutorConfig, TaskExecutor
from repro.engine.state import KeyedState

from reference_state import SlidingWindow


class TestSlidingWindow:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)

    def test_eviction_order(self):
        window = SlidingWindow(2)
        assert window.append(1, "a") == []
        assert window.append(2, "b") == []
        assert window.append(3, "c") == [1]
        assert window.intervals() == (2, 3)
        assert window.payloads() == ["b", "c"]

    def test_reappend_same_interval_replaces(self):
        window = SlidingWindow(3)
        window.append(1, "a")
        window.append(1, "b")
        assert window.get(1) == "b"
        assert len(window) == 1

    def test_decreasing_interval_rejected(self):
        window = SlidingWindow(3)
        window.append(5, "a")
        with pytest.raises(ValueError):
            window.append(4, "b")

    def test_rewriting_the_newest_slot_evicts_nothing_and_keeps_order(self):
        window = SlidingWindow(2)
        window.append(1, "a")
        window.append(2, "b")
        assert window.append_evict(2, "c") == []
        assert window.intervals() == (1, 2)
        assert window.payloads() == ["a", "c"]
        assert window.newest() == "c"
        # ... an older interval still raises, retained or not,
        for older in (1, 0):
            with pytest.raises(ValueError):
                window.append_evict(older, "late")
        # ... and the first append of a new interval still evicts.
        assert window.append_evict(3, "d") == [(1, "a")]
        assert window.intervals() == (2, 3)

    def test_newest_of_an_empty_window(self):
        assert SlidingWindow(2).newest() is None

    def test_contains_and_clear(self):
        window = SlidingWindow(2)
        window.append(1, "a")
        assert 1 in window and 2 not in window
        window.clear()
        assert len(window) == 0

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=40), st.integers(1, 5))
    @settings(max_examples=50)
    def test_never_exceeds_size(self, intervals, size):
        window = SlidingWindow(size)
        for interval in sorted(intervals):
            window.append(interval, interval)
            assert len(window) <= size


class TestKeyedState:
    def test_update_and_sizes(self):
        state = KeyedState(window=2)
        state.update("a", 1, payload={"x": 1}, size=5.0)
        state.update("a", 2, payload={"x": 2}, size=3.0)
        assert state.key_size("a") == 8.0
        assert state.total_size() == 8.0
        assert state.latest_payload("a") == {"x": 2}

    def test_window_expiry(self):
        state = KeyedState(window=2)
        for interval in range(1, 5):
            state.update("a", interval, payload=interval, size=1.0)
        assert state.key_size("a") == 2.0
        assert state.payloads("a") == [3, 4]

    def test_explicit_expire(self):
        state = KeyedState(window=2)
        state.update("a", 1, payload=1, size=1.0)
        state.update("b", 1, payload=1, size=1.0)
        state.expire(5)
        assert len(state) == 0

    def test_accumulate_counter(self):
        state = KeyedState(window=1)
        state.accumulate("a", 1, 2.0)
        state.accumulate("a", 1, 3.0)
        assert state.key_size("a") == 5.0

    def test_accumulate_custom_payload(self):
        state = KeyedState(window=1)
        state.accumulate("a", 1, 1.0, payload_update=lambda old: (old or []) + ["x"])
        state.accumulate("a", 1, 1.0, payload_update=lambda old: (old or []) + ["y"])
        assert state.latest_payload("a") == ["x", "y"]

    def test_latest_payload_and_key_size_of_an_unknown_key(self):
        state = KeyedState(window=2)
        assert state.latest_payload("missing") is None
        assert state.key_size("missing") == 0.0

    def test_snapshot_copies_and_extract_hands_over(self):
        state = KeyedState(window=2)
        state.accumulate_batch(["a", "a"], [1, 2], 0, 1.0, lambda old, v: (old or []) + [v])
        live = state.latest_payload("a")
        (interval, copied, size), = state.snapshot("a")
        assert (interval, copied, size) == (0, [1, 2], 2.0) and copied is not live
        (_, moved, _), = state.extract("a")
        assert moved is live and "a" not in state

    def test_extract_install_roundtrip(self):
        source = KeyedState(window=3)
        target = KeyedState(window=3)
        for interval in range(1, 4):
            source.accumulate("hot", interval, float(interval))
        snapshot = source.extract("hot")
        assert "hot" not in source
        target.install("hot", snapshot)
        assert target.key_size("hot") == 6.0
        assert target.payloads("hot") == [1.0, 2.0, 3.0]

    def test_extract_unknown_key_is_empty(self):
        assert KeyedState().extract("missing") == []

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            KeyedState().update("a", 1, payload=None, size=-1.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            KeyedState(window=0)

    def test_install_over_a_newer_interval_merges(self):
        state = KeyedState(window=3)
        state.accumulate("a", 5, 1.0)
        state.install("a", [(4, 4.0, 4.0), (5, 9.0, 2.0)])
        assert state.snapshot("a") == [(4, 4.0, 4.0), (5, 9.0, 2.0)]
        assert state.key_size("a") == 6.0 and state.total_size() == 6.0
        # ... and a slot outside the window is not held.
        state.install("b", [(2, 1.0, 1.0), (3, 2.0, 2.0)])
        assert state.snapshot("b") == [(3, 2.0, 2.0)] and state.total_size() == 8.0

    def test_opening_an_interval_drops_what_left_the_window_for_every_key(self):
        # w = 2: once interval 3 is open nothing older than 2 is held, for
        # the key written in 3 and for the ones that were not.
        state = KeyedState(window=2)
        state.accumulate("a", 1, 1.0)
        state.accumulate("b", 2, 2.0)
        state.accumulate("b", 3, 4.0)
        assert state.snapshot("a") == [] and "a" not in state
        assert state.snapshot("b") == [(2, 2.0, 2.0), (3, 4.0, 4.0)]
        assert len(state) == 1 and list(state.keys()) == ["b"]
        assert state.total_size() == 6.0

    def test_a_batch_older_than_the_newest_interval_raises_for_any_key(self):
        state = KeyedState(window=3)
        state.accumulate_batch(["a"], [1], 5, 1.0)
        with pytest.raises(ValueError):
            state.accumulate_batch(["b"], [1], 4, 1.0)
        assert "b" not in state and state.total_size() == 1.0

    def test_an_empty_batch_opens_no_table(self):
        state = KeyedState(window=1)
        state.accumulate("a", 1, 1.0)
        assert state.accumulate_batch([], [], 2, 1.0) == []
        assert state.payloads("a") == [1.0]
        state.accumulate("a", 1, 1.0)  # interval 1 is still the newest
        assert state.payloads("a") == [2.0]


class TestTaskExecutor:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExecutorConfig(capacity=0)
        with pytest.raises(ValueError):
            ExecutorConfig(capacity=10, interval_seconds=0)
        with pytest.raises(ValueError):
            ExecutorConfig(capacity=10, max_backlog=-1)

    def test_underload_processes_everything(self):
        executor = TaskExecutor(ExecutorConfig(capacity=100, interval_seconds=1))
        outcome = executor.run_interval(50)
        assert outcome.processed == 50
        assert outcome.backlog == 0
        assert outcome.shed == 0
        assert outcome.utilization == pytest.approx(0.5)

    def test_overload_accumulates_backlog(self):
        executor = TaskExecutor(ExecutorConfig(capacity=100, interval_seconds=1))
        outcome = executor.run_interval(150)
        assert outcome.processed == 100
        assert outcome.backlog == 50
        second = executor.run_interval(100)
        assert second.processed == 100
        assert second.backlog == 50

    def test_backlog_cap_sheds(self):
        executor = TaskExecutor(
            ExecutorConfig(capacity=100, interval_seconds=1, max_backlog=20)
        )
        outcome = executor.run_interval(200)
        assert outcome.processed == 100
        assert outcome.backlog == 20
        assert outcome.shed == 80

    def test_latency_grows_with_utilization(self):
        def latency_ms(offered):  # a fresh executor each: no backlog carried over
            executor = TaskExecutor(ExecutorConfig(capacity=100, interval_seconds=1))
            return executor.run_interval(offered).latency_ms

        assert latency_ms(20) < latency_ms(95) < latency_ms(300)

    def test_pause_reduces_capacity_and_adds_latency(self):
        executor = TaskExecutor(ExecutorConfig(capacity=100, interval_seconds=1))
        paused = executor.run_interval(100, paused_fraction=0.5)
        assert paused.processed == 50
        assert paused.paused_fraction == 0.5
        fresh = TaskExecutor(ExecutorConfig(capacity=100, interval_seconds=1))
        unpaused = fresh.run_interval(100)
        assert paused.latency_ms > unpaused.latency_ms

    def test_negative_offered_rejected(self):
        executor = TaskExecutor(ExecutorConfig(capacity=10))
        with pytest.raises(ValueError):
            executor.run_interval(-1)

    @given(
        st.lists(st.floats(0, 500), min_size=1, max_size=20),
        st.floats(10, 200),
    )
    @settings(max_examples=50)
    def test_conservation_of_work(self, offers, capacity):
        """Processed + backlog + shed always accounts for every offered unit."""
        executor = TaskExecutor(
            ExecutorConfig(capacity=capacity, interval_seconds=1, max_backlog=capacity)
        )
        total_offered = 0.0
        total_processed = 0.0
        total_shed = 0.0
        for offered in offers:
            outcome = executor.run_interval(offered)
            total_offered += offered
            total_processed += outcome.processed
            total_shed += outcome.shed
        assert total_processed + total_shed + executor.backlog == pytest.approx(
            total_offered
        )


class TestBackpressure:
    def test_no_throttle_when_capacity_sufficient(self):
        fraction = admissible_fraction({0: 50, 1: 60}, {0: 100, 1: 100}, {0: 0, 1: 0})
        assert fraction == 1.0

    def test_throttled_by_bottleneck(self):
        fraction = admissible_fraction({0: 200, 1: 50}, {0: 100, 1: 100}, {0: 0, 1: 0})
        assert fraction == pytest.approx(0.5)

    def test_zero_capacity_blocks(self):
        assert admissible_fraction({0: 10}, {0: 0}, {0: 0}) == 0.0

    def test_backlog_reduces_admission(self):
        fraction = admissible_fraction({0: 100}, {0: 100}, {0: 50})
        assert fraction == pytest.approx(0.5)
