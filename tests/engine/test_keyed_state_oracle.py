"""The interval-major ``KeyedState`` against the per-key one it replaced.

``reference_state.py`` holds the state as it was when every key owned a
sliding window.  Both are driven through the runtime's call pattern on two
tasks: batches whose intervals never decrease (a key's tuples go to the task
that owns it), an ``expire`` on every task at each close, key moves
(``extract`` on the owner, ``install`` on the other task), ``snapshot``
reads between batches, and a checkpoint of a task — every key's
``snapshot`` — restored into a fresh state through ``install``.  The
reference keeps an unwritten key's stale slots until the next close; the
clock rule (once interval ``i`` is open, nothing older than ``i − w + 1`` is
held) is applied to it by calling ``expire`` at the task's newest written
interval after each write.  After every step both must agree on the keys,
every key's payloads, size and snapshot, the key count and the total size —
exactly, since the deltas are dyadic.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.state import KeyedState
from repro.operators.windowed_join import retain

from reference_state import ReferenceKeyedState

DYADIC = [0.0, 0.25, 0.5, 1.0, 3.0]
KEYS = range(5)


def _collect(old, value):
    """A fold that builds a new payload per tuple."""
    return (old or ()) + (value,)


#: One step of the call pattern: ("batch", [(key, value, delta index)]),
#: ("close",), ("advance", gap), ("move", key), ("snapshot", key) or
#: ("restore", task).
STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.lists(
                st.tuples(st.sampled_from(KEYS), st.integers(0, 9), st.integers(0, 4)),
                max_size=10,
            ),
        ),
        st.tuples(st.just("close")),
        st.tuples(st.just("advance"), st.integers(1, 3)),
        st.tuples(st.just("move"), st.sampled_from(KEYS)),
        st.tuples(st.just("snapshot"), st.sampled_from(KEYS)),
        st.tuples(st.just("restore"), st.integers(0, 1)),
    ),
    max_size=40,
)


class _Twin:
    """One task's state in both layouts; ``clock`` is the newest interval
    written to it, at which the reference is expired after each write."""

    def __init__(self, window):
        self.window = window
        self.state = KeyedState(window)
        self.reference = ReferenceKeyedState(window)
        self.clock = None

    def wrote(self, interval):
        self.clock = interval if self.clock is None else max(self.clock, interval)
        self.reference.expire(self.clock)

    def assert_same(self):
        state, reference = self.state, self.reference
        assert set(state.keys()) == set(reference.keys())
        for key in KEYS:
            assert state.payloads(key) == reference.payloads(key)
            assert state.latest_payload(key) == reference.latest_payload(key)
            assert state.key_size(key) == reference.key_size(key)
            assert state.snapshot(key) == reference.snapshot(key)
            assert (key in state) == (key in reference)
        assert len(state) == len(reference)
        assert state.total_size() == reference.total_size()


@given(
    steps=STEPS,
    window=st.integers(1, 3),
    fold=st.sampled_from([None, _collect, retain]),
    scalar=st.booleans(),
)
# A move into a task that holds the newer of the key's two intervals only:
# the older table is opened behind it, and the key's slots stay in order.
@example(
    steps=[("batch", [(0, 1, 0)]), ("advance", 1), ("batch", [(0, 2, 0), (1, 3, 0)]), ("move", 0)],
    window=2,
    fold=_collect,
    scalar=True,
)
@settings(max_examples=200, deadline=None)
def test_equals_the_per_key_state_over_the_runtime_call_pattern(steps, window, fold, scalar):
    tasks = [_Twin(window), _Twin(window)]
    owner = {key: key % 2 for key in KEYS}
    interval, closed = 0, -1
    for step in steps:
        kind = step[0]
        if kind == "batch":
            for task_id, twin in enumerate(tasks):
                tuples = [t for t in step[1] if owner[t[0]] == task_id]
                keys = [key for key, _, _ in tuples]
                values = [value for _, value, _ in tuples]
                deltas = DYADIC[1] if scalar else [DYADIC[pick] for _, _, pick in tuples]
                after = twin.state.accumulate_batch(keys, values, interval, deltas, fold)
                expected = twin.reference.accumulate_batch(keys, values, interval, deltas, fold)
                assert after == expected
                if keys:
                    twin.wrote(interval)
        elif kind == "close":
            # Closes run in order; once interval c is closed the next batch
            # is at c + 1 or later (the worker clamps to its watermark).
            closed += 1
            if closed > interval:
                interval = closed
            for twin in tasks:
                twin.state.expire(closed)
                twin.reference.expire(closed)
            if closed == interval:
                interval += 1
        elif kind == "advance":
            interval += step[1]
        elif kind == "move":
            key = step[1]
            source, target = tasks[owner[key]], tasks[1 - owner[key]]
            shipped, expected = source.state.extract(key), source.reference.extract(key)
            assert shipped == expected
            target.state.install(key, shipped)
            target.reference.install(key, expected)
            if shipped:
                target.wrote(shipped[-1][0])
            owner[key] = 1 - owner[key]
        elif kind == "snapshot":
            key = step[1]
            twin = tasks[owner[key]]
            assert twin.state.snapshot(key) == twin.reference.snapshot(key)
        else:  # restore a task from a checkpoint of it
            old = tasks[step[1]]
            checkpoint = {key: old.state.snapshot(key) for key in old.state.keys()}
            fresh = _Twin(window)
            for key, snapshot in checkpoint.items():
                fresh.state.install(key, snapshot)
                fresh.reference.install(key, old.reference.snapshot(key))
                if snapshot:
                    fresh.wrote(snapshot[-1][0])
            fresh.assert_same()
            old.assert_same()
            assert set(fresh.state.keys()) == set(old.state.keys())
            for key in checkpoint:
                assert fresh.state.snapshot(key) == old.state.snapshot(key)
            assert fresh.state.total_size() == old.state.total_size()
            fresh.clock = old.clock
            tasks[step[1]] = fresh
        for twin in tasks:
            twin.assert_same()

