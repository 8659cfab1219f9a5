"""``KeyedState.accumulate_batch`` against its oracle: one ``accumulate`` per tuple.

The batch write looks each tuple's key up once in the batch interval's table
and grows that ``[payload, size]`` slot in place, in tuple order; a batch for
a newer interval first opens its table, dropping every table that left the
window.  Whatever the interleaving of keys, however many intervals pass a
window of two (so a newer batch drops the oldest table) and with or without
a ``fold``, the payload returned after each tuple, the retained payloads and
every key's size must equal the per-tuple path's bit for bit.
``total_size()`` moves once per batch instead of once per tuple, so it is
compared exactly for dyadic deltas (whose sums are exact) and to float
summation order otherwise.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.state import KeyedState
from repro.operators.windowed_join import retain as _retain  # grows its list in place


def _collect(old, value):
    """A fold that builds a new payload per tuple (the reference's shape)."""
    return (old or ()) + (value,)


DYADIC = [0.0, 0.25, 0.5, 1.0, 3.0]
#: batches = one list of (key, value, delta index) per interval, cut in two
BATCHES = st.lists(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(0, 4)), max_size=12),
    min_size=1,
    max_size=8,
)


def _per_tuple(state, keys, values, interval, deltas, fold):
    return [
        state.accumulate(
            key,
            interval,
            delta,
            payload_update=None if fold is None else (lambda old, value=value: fold(old, value)),
        )
        for key, value, delta in zip(keys, values, deltas)
    ]


def _assert_same_state(batched, oracle, *, exact_total):
    assert set(batched.keys()) == set(oracle.keys())
    for key in oracle.keys():
        assert batched.payloads(key) == oracle.payloads(key)
        assert batched.key_size(key) == oracle.key_size(key)
        assert batched.snapshot(key) == oracle.snapshot(key)
    if exact_total:
        assert batched.total_size() == oracle.total_size()
    else:
        assert batched.total_size() == pytest.approx(oracle.total_size(), rel=1e-12)


@pytest.mark.parametrize("fold", [None, _collect, _retain], ids=["counter", "fold", "in-place"])
class TestAccumulateBatchOracle:
    @given(batches=BATCHES, scalar=st.booleans(), dyadic=st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_equals_one_accumulate_per_tuple(self, fold, batches, scalar, dyadic):
        palette = DYADIC if dyadic else [0.0, 0.1, 0.3, 0.7, 1.9]
        batched, oracle = KeyedState(window=2), KeyedState(window=2)
        for index, batch in enumerate(batches):
            interval = index // 2  # two batches per interval, four intervals
            keys = [key for key, _, _ in batch]
            values = [value for _, value, _ in batch]
            deltas = [palette[1] if scalar else palette[pick] for _, _, pick in batch]
            after = batched.accumulate_batch(
                keys, values, interval, palette[1] if scalar else deltas, fold
            )
            expected = _per_tuple(oracle, keys, values, interval, deltas, fold)
            if fold is _retain:
                # One state-owned list per key: compare it once it is final.
                assert all(a is batched.latest_payload(k) for a, k in zip(after, keys))
            else:
                assert after == expected
            _assert_same_state(batched, oracle, exact_total=dyadic)

    def test_empty_batch_writes_nothing(self, fold):
        state = KeyedState(window=2)
        assert state.accumulate_batch([], [], 0, 1.0, fold) == []
        assert len(state) == 0 and state.total_size() == 0.0


class TestNegativeSize:
    """A delta that drives a key's size below zero raises, as ``accumulate``
    does — and the batch is atomic for the store: the check runs on the
    running sizes, before the first table write."""

    def _seeded(self):
        state = KeyedState(window=2)
        state.accumulate_batch(["a", "b"], [1, 2], 0, [2.0, 1.0], _collect)
        return state

    def test_raises_and_writes_nothing(self):
        state = self._seeded()
        before = {key: state.snapshot(key) for key in state.keys()}
        with pytest.raises(ValueError):
            # "c" and "a" are touched before "b" goes negative at interval 1.
            state.accumulate_batch(["c", "a", "b"], [3, 4, 5], 1, [1.0, 1.0, -0.5], _collect)
        assert {key: state.snapshot(key) for key in state.keys()} == before
        assert "c" not in state and state.total_size() == 3.0

    def test_an_intermediate_negative_size_raises_like_the_per_tuple_path(self):
        state, oracle = self._seeded(), self._seeded()
        with pytest.raises(ValueError):
            state.accumulate_batch(["b", "b"], [0, 0], 0, [-1.5, 2.0], _collect)
        with pytest.raises(ValueError):
            oracle.accumulate("b", 0, -1.5, payload_update=lambda old: _collect(old, 0))

    def test_a_shrinking_delta_that_stays_non_negative_is_applied(self):
        state = self._seeded()
        state.accumulate_batch(["a", "a"], [0, 0], 0, [-2.0, 0.5], _collect)
        assert state.key_size("a") == 0.5 and state.total_size() == 1.5


def test_an_older_interval_still_raises():
    state = KeyedState(window=2)
    state.accumulate_batch(["a"], [1], 3, 1.0)
    with pytest.raises(ValueError):
        state.accumulate_batch(["a"], [1], 2, 1.0)
