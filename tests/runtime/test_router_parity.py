"""Vectorized-dispatch parity: the chunk-level router accounting must equal
the per-tuple scalar reference exactly.

``StreamRouter._dispatch_chunk`` replaced per-tuple dict updates with one
Counter/``np.bincount``/batched-cost pass per chunk; these property tests pin
the refactor to a faithful scalar port of the old loop
(``reference_router.py``) — same freqs, same per-task offered tuples/cost
and the same per-task batch streams (including under pause/resume and mixed
interval tags).

Costs in these tests are dyadic rationals (multiples of 0.25), so scalar
repeated addition and the vectorized ``counts × cost`` / ``bincount`` sums
are bit-identical, and the comparisons below are exact ``==``, not approx.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_router import ReferenceRouter

from repro.baselines.hash_only import HashPartitioner
from repro.engine.operator import OperatorLogic
from repro.operators.windowed_aggregate import WindowedAggregate
from repro.runtime.router import StreamRouter


def _varying_cost(key, value=None):
    return 0.25 * ((hash(key) & 3) + 1)


class VaryingCostOperator(OperatorLogic):
    """Per-key (dyadic) costs: exercises the array branch of batch_cost."""

    name = "varying-cost"
    stateful = True

    def batch_cost(self, keys, values=None):
        return np.array([_varying_cost(key) for key in keys])


class _CaptureQueue:
    """Worker-queue stub recording every batch."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


def _captured(queues):
    return {
        task: [(batch.interval, batch.keys, batch.values) for batch in queue.items]
        for task, queue in enumerate(queues)
    }


def _assert_account_parity(router, reference, tags):
    for tag in tags:
        account = router.pop_interval(tag)
        expected = reference.account(tag)
        # dict == compares 2 and 2.0 equal, so Counter-vs-float is exact here.
        assert account.freqs == expected["freqs"], f"freqs of interval {tag}"
        offered = dict(enumerate(account.offered_tuples_by_task.tolist()))
        assert offered == expected["offered_tuples"]
        assert account.offered_cost == expected["offered_cost"]


#: Key pool mixing types (``True`` and ``1`` are one key): parity must hold
#: for any mix.
KEYS = st.one_of(
    st.integers(min_value=0, max_value=12),
    st.sampled_from(["alpha", "beta", "gamma", "delta"]),
    st.booleans(),
)

SEGMENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.lists(KEYS, min_size=1, max_size=20),
    ),
    min_size=1,
    max_size=6,
)


class TestDispatchParity:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_vectorized_accounting_equals_scalar_reference(self, data):
        num_tasks = data.draw(st.integers(1, 4), label="num_tasks")
        batch_size = data.draw(st.integers(1, 7), label="batch_size")
        constant_cost = data.draw(st.booleans(), label="constant_cost")
        segments = data.draw(SEGMENTS, label="segments")
        pause_after = data.draw(
            st.integers(0, len(segments)), label="pause_after"
        )
        paused_keys = data.draw(st.sets(KEYS, max_size=4), label="paused_keys")

        logic = (
            WindowedAggregate(window=2, cost_per_tuple=0.75)
            if constant_cost
            else VaryingCostOperator()
        )
        partitioner = HashPartitioner(num_tasks, seed=3)
        queues = [_CaptureQueue() for _ in range(num_tasks)]
        router = StreamRouter(partitioner, logic, queues, batch_size=batch_size)
        router.begin_interval(0)
        # The reference charges its own per-tuple formula, not the operator's.
        cost_of = (lambda key, value: 0.75) if constant_cost else _varying_cost
        reference = ReferenceRouter(partitioner, cost_of, num_tasks, batch_size)

        for index, (tag, keys) in enumerate(segments):
            if index == pause_after:
                router.pause(paused_keys)
                reference.pause(paused_keys)
            values = [f"v{index}.{offset}" for offset in range(len(keys))]
            router.dispatch(keys, values, interval=tag)
            reference.dispatch(keys, values, tag)

        assert router.resume() == reference.resume()
        assert router.paused_keys == frozenset()
        assert _captured(queues) == reference.batches
        _assert_account_parity(router, reference, range(4))


class TestResumeIntervalGrouping:
    """Regression: a pause buffer spanning intervals re-tags per interval."""

    def _router(self, num_tasks=1, batch_size=16):
        queues = [_CaptureQueue() for _ in range(num_tasks)]
        router = StreamRouter(
            HashPartitioner(num_tasks, seed=0),
            WindowedAggregate(),
            queues,
            batch_size=batch_size,
        )
        router.begin_interval(0)
        return router, queues

    def test_released_batches_keep_their_interval_tags(self):
        router, queues = self._router()
        router.pause(["hot"])
        router.dispatch(["hot", "hot"], ["a", "b"], interval=3)
        router.dispatch(["hot"], ["c"], interval=5)
        assert queues[0].items == []  # everything buffered
        assert router.resume() == 3
        released = [(b.interval, b.keys, b.values) for b in queues[0].items]
        # One batch per buffered interval — NOT one mixed batch tagged 3.
        assert released == [
            (3, ["hot", "hot"], ["a", "b"]),
            (5, ["hot"], ["c"]),
        ]

    def test_released_batches_chunk_within_an_interval(self):
        router, queues = self._router(batch_size=2)
        router.pause(["hot"])
        router.dispatch(["hot"] * 5, list(range(5)), interval=1)
        assert router.resume() == 5
        sizes = [len(batch.keys) for batch in queues[0].items]
        assert sizes == [2, 2, 1]
        assert all(batch.interval == 1 for batch in queues[0].items)

    def test_resume_with_empty_buffer_is_a_noop(self):
        router, queues = self._router()
        router.pause(["cold"])
        assert router.resume() == 0
        assert queues[0].items == []


class TestBulkRouteMemoSafety:
    """The bulk memo answers equal keys of other classes (1 / True / 1.0) and
    look-alikes of other values (0, "1", b"1", (1,)) exactly like ``route``."""

    def test_mixed_type_batch_matches_scalar_route(self):
        partitioner = HashPartitioner(7, seed=11)
        tricky = [True, 1, 1.0, 0.0, -0.0, "1", b"1", False, 0, (1,)]
        assert partitioner.assign_batch(tricky) == [
            partitioner.route(key) for key in tricky
        ]
        assert partitioner.assign_batch_array(tricky).tolist() == [
            partitioner.route(key) for key in tricky
        ]

    def test_homogeneous_batch_hits_the_bulk_memo(self):
        partitioner = HashPartitioner(5, seed=2)
        keys = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
        expected = [partitioner.route(key) for key in keys]
        # Twice: the second call answers purely from the raw-key memo.
        assert partitioner.assign_batch(keys) == expected
        assert partitioner.assign_batch(keys) == expected
        assert partitioner.assign_batch_array(keys).tolist() == expected

    def test_bulk_memo_survives_type_flips_between_batches(self):
        partitioner = HashPartitioner(5, seed=2)
        ints = [1, 2, 3]
        texts = ["1", "2", "3"]
        assert partitioner.assign_batch(ints) == [
            partitioner.route(key) for key in ints
        ]
        assert partitioner.assign_batch(texts) == [
            partitioner.route(key) for key in texts
        ]
        assert partitioner.assign_batch(ints) == [
            partitioner.route(key) for key in ints
        ]

    def test_invalidate_drops_the_typed_memos(self):
        partitioner = HashPartitioner(5, seed=2)
        keys = [1, 2, 3, 4]
        before = partitioner.assign_batch(keys)
        partitioner.invalidate_route_cache()
        assert partitioner.assign_batch(keys) == before
