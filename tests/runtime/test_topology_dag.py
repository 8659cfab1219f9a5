"""DAG topologies: fan-in mark barrier, spec validation, diamond execution.

The :class:`~repro.runtime.barrier.MarkBarrier` is the protocol heart of
multi-upstream stages — an interval may close only once *every* upstream
origin's expected producers marked it — so it gets property tests driving
arbitrary mark/replay/resize interleavings, alongside an end-to-end diamond
(source → split-agg ×2 → merge) on real worker processes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hash_only import HashPartitioner
from repro.operators.windowed_aggregate import (
    MergeOperator,
    PartialWindowedAggregate,
    WindowedAggregate,
)
from repro.operators.wordcount import WordCountOperator
from repro.runtime import (
    MarkBarrier,
    RuntimeConfig,
    ScaleDirective,
    StageSpec,
    TopologyRuntime,
    TopologySpec,
)

INTERVALS = 3
KEYS = 40
REPEATS = 25


def _stream():
    return [
        [(key, None) for key in range(KEYS) for _ in range(REPEATS)]
        for _ in range(INTERVALS)
    ]


def _config(**overrides):
    defaults = dict(
        parallelism=2,
        batch_size=64,
        queue_capacity=4,
        service_time_us=5.0,
    )
    defaults.update(overrides)
    return RuntimeConfig(**defaults)


def _diamond_spec():
    return TopologySpec(
        "diamond",
        [
            StageSpec(
                name="branch-a",
                logic=PartialWindowedAggregate(window=16, source_tag="a"),
                partitioner=HashPartitioner(2, seed=0),
                upstream=(),
            ),
            StageSpec(
                name="branch-b",
                logic=PartialWindowedAggregate(window=16, source_tag="b"),
                partitioner=HashPartitioner(2, seed=1),
                upstream=(),
            ),
            StageSpec(
                name="merge",
                logic=MergeOperator(window=16),
                partitioner=HashPartitioner(2, seed=2),
                upstream=("branch-a", "branch-b"),
            ),
        ],
    )


class TestMarkBarrier:
    def test_closes_only_after_every_origin_marked(self):
        barrier = MarkBarrier({"a": 2, "b": 1})
        assert barrier.observe_mark("a", 0, 0) == (True, False)
        assert barrier.observe_mark("b", 0, 0) == (True, False)
        # The last missing producer completes the interval.
        assert barrier.observe_mark("a", 1, 0) == (True, True)

    def test_replayed_mark_is_deduped(self):
        barrier = MarkBarrier({"a": 1, "b": 1})
        assert barrier.observe_mark("a", 0, 0) == (True, False)
        # A replay at (or below) the edge's floor is not accepted and can
        # never double-count toward the close.
        assert barrier.observe_mark("a", 0, 0) == (False, False)
        assert barrier.observe_mark("b", 0, 0) == (True, True)

    def test_unknown_origin_raises(self):
        barrier = MarkBarrier({"a": 1})
        with pytest.raises(KeyError):
            barrier.observe_mark("ghost", 0, 0)
        with pytest.raises(KeyError):
            barrier.observe_done("ghost")
        with pytest.raises(KeyError):
            barrier.resize("ghost", 1, 2, done_delta=1)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            MarkBarrier({})
        with pytest.raises(ValueError):
            MarkBarrier({"a": 0})

    def test_resize_changes_expectation_from_interval(self):
        barrier = MarkBarrier({"a": 1, "b": 1})
        barrier.resize("a", from_interval=1, count=2, done_delta=1)
        # Interval 0 still closes on one mark per origin.
        assert barrier.observe_mark("a", 0, 0) == (True, False)
        assert barrier.observe_mark("b", 0, 0) == (True, True)
        # Interval 1 now needs both of a's producers plus b's.
        assert barrier.observe_mark("a", 0, 1) == (True, False)
        assert barrier.observe_mark("b", 0, 1) == (True, False)
        assert barrier.observe_mark("a", 1, 1) == (True, True)

    def test_finished_counts_done_across_origins_and_resizes(self):
        barrier = MarkBarrier({"a": 2, "b": 1})
        barrier.observe_done("a")
        barrier.observe_done("a")
        assert not barrier.finished
        barrier.observe_done("b")
        assert barrier.finished
        grown = MarkBarrier({"a": 1})
        grown.resize("a", from_interval=1, count=2, done_delta=1)
        grown.observe_done("a")
        assert not grown.finished
        grown.observe_done("a")
        assert grown.finished

    @settings(max_examples=200, deadline=None)
    @given(
        producers_a=st.integers(min_value=1, max_value=3),
        producers_b=st.integers(min_value=1, max_value=3),
        intervals=st.integers(min_value=1, max_value=4),
        order_seed=st.randoms(use_true_random=False),
        duplicates=st.booleans(),
    )
    def test_property_interval_closes_exactly_once_all_marked(
        self, producers_a, producers_b, intervals, order_seed, duplicates
    ):
        """Any interleaving of per-edge FIFO mark streams closes every
        interval exactly once, in order, and never before all origins marked."""
        barrier = MarkBarrier({"a": producers_a, "b": producers_b})
        edges = [("a", producer) for producer in range(producers_a)]
        edges += [("b", producer) for producer in range(producers_b)]
        # Per-edge FIFO streams (each producer marks in increasing order,
        # optionally replaying its previous mark), interleaved at random.
        pending = {
            edge: [
                interval
                for interval in range(intervals)
                for _ in range(2 if duplicates else 1)
            ]
            for edge in edges
        }
        seen = {edge: -1 for edge in edges}
        closed = []
        while any(pending.values()):
            edge = order_seed.choice([e for e, left in pending.items() if left])
            interval = pending[edge].pop(0)
            accepted, closable = barrier.observe_mark(edge[0], edge[1], interval)
            assert accepted == (interval > seen[edge])
            if accepted:
                seen[edge] = interval
            if closable:
                closed.append(interval)
                # Close fires only when EVERY edge already marked it.
                assert all(marked >= interval for marked in seen.values())
        assert closed == list(range(intervals))

    @settings(max_examples=200, deadline=None)
    @given(
        before=st.integers(min_value=1, max_value=3),
        delta=st.integers(min_value=-2, max_value=2),
        resize_at=st.integers(min_value=1, max_value=3),
        intervals=st.integers(min_value=2, max_value=5),
        order_seed=st.randoms(use_true_random=False),
    )
    def test_property_close_tracks_resized_producer_count(
        self, before, delta, resize_at, intervals, order_seed
    ):
        """With origin `a` resized mid-run, each interval closes exactly when
        the count *in effect for that interval* has marked on every origin."""
        after = before + delta
        if after < 1:
            after = 1
        barrier = MarkBarrier({"a": before, "b": 1})
        barrier.resize(
            "a", from_interval=resize_at, count=after, done_delta=max(delta, 0)
        )
        closed = []
        for interval in range(intervals):
            expected_a = before if interval < resize_at else after
            marks = [("a", producer) for producer in range(expected_a)]
            marks.append(("b", 0))
            order_seed.shuffle(marks)
            for position, (origin, producer) in enumerate(marks):
                _, closable = barrier.observe_mark(origin, producer, interval)
                if closable:
                    closed.append(interval)
                    assert position == len(marks) - 1, (
                        "interval closed before its last expected mark"
                    )
        assert closed == list(range(intervals))


class TestDagSpecValidation:
    def test_default_wiring_is_a_chain(self):
        spec = TopologySpec(
            "chain",
            [
                StageSpec("one", WordCountOperator(), HashPartitioner(2)),
                StageSpec("two", WindowedAggregate(), HashPartitioner(2)),
            ],
        )
        assert spec.is_chain
        assert spec.upstreams_of("one") == ("source",)
        assert spec.upstreams_of("two") == ("one",)
        assert spec.consumers_of("one") == ["two"]
        assert spec.consumers_of("two") == []

    def test_diamond_wiring(self):
        spec = _diamond_spec()
        assert not spec.is_chain
        assert spec.upstreams_of("branch-a") == ("source",)
        assert spec.upstreams_of("branch-b") == ("source",)
        assert spec.upstreams_of("merge") == ("branch-a", "branch-b")
        assert spec.consumers_of("branch-a") == ["merge"]

    def test_upstream_must_name_an_earlier_stage(self):
        with pytest.raises(ValueError, match="earlier stage"):
            TopologySpec(
                "bad",
                [
                    StageSpec(
                        "one",
                        WordCountOperator(),
                        HashPartitioner(2),
                        upstream=("two",),
                    ),
                    StageSpec("two", WindowedAggregate(), HashPartitioner(2)),
                ],
            )

    def test_duplicate_upstream_rejected(self):
        with pytest.raises(ValueError, match="duplicate upstream"):
            TopologySpec(
                "bad",
                [
                    StageSpec("one", WordCountOperator(), HashPartitioner(2)),
                    StageSpec(
                        "two",
                        WindowedAggregate(),
                        HashPartitioner(2),
                        upstream=("one", "one"),
                    ),
                ],
            )

    def test_source_is_a_reserved_stage_name(self):
        with pytest.raises(ValueError, match="reserved"):
            TopologySpec(
                "bad", [StageSpec("source", WordCountOperator(), HashPartitioner(2))]
            )

    def test_unconsumed_stage_rejected(self):
        with pytest.raises(ValueError, match="no downstream consumer"):
            TopologySpec(
                "bad",
                [
                    StageSpec(
                        "one",
                        WordCountOperator(),
                        HashPartitioner(2),
                        upstream=(),
                    ),
                    StageSpec(
                        "two",
                        WindowedAggregate(),
                        HashPartitioner(2),
                        upstream=(),
                    ),
                ],
            )


class TestMergeContract:
    def test_default_operator_is_not_mergeable(self):
        logic = WordCountOperator()
        assert logic.mergeable is False
        with pytest.raises(NotImplementedError):
            logic.merge("key", [1, 2])

    def test_partial_aggregate_merges_with_its_reducer(self):
        logic = PartialWindowedAggregate(source_tag="a")
        assert logic.mergeable
        assert logic.merge("key", [3.0, 4.0]) == 7.0

    def test_merge_operator_combines_partials(self):
        logic = MergeOperator()
        assert logic.mergeable
        assert logic.merge("key", [2.0, 5.0, 1.0]) == 8.0


class TestDiamondExecution:
    @pytest.fixture(scope="class")
    def outcome(self):
        runtime = TopologyRuntime(
            _diamond_spec(), _config(collect_final_state=True, sanitize=True)
        )
        return runtime.run(_stream())

    def test_source_share_splits_and_merge_sees_everything(self, outcome):
        total = INTERVALS * KEYS * REPEATS
        branches = [outcome.stages["branch-a"], outcome.stages["branch-b"]]
        # The source round-robins chunks: each branch gets a non-empty,
        # disjoint share summing to the full stream.
        assert all(branch.tuples_offered > 0 for branch in branches)
        assert sum(branch.tuples_offered for branch in branches) == total
        assert outcome.tuples_offered == total
        merge = outcome.stages["merge"]
        assert merge.tuples_offered == total
        assert merge.tuples_processed == total

    def test_fan_in_edge_counts(self, outcome):
        assert outcome.stages["branch-a"].upstreams == 1
        assert outcome.stages["branch-b"].upstreams == 1
        assert outcome.stages["merge"].upstreams == 2

    def test_merge_state_shape(self, outcome):
        # Each merge-task payload is a {(tag, task): partial} slot dict; in a
        # multi-interval run the slow branch's tail batches may be clamped to
        # the worker's interval watermark (see worker.py), so exact per-
        # interval recombination is asserted on the single-interval run
        # below — here we check the slots themselves and the branch tags.
        final_state = outcome.stages["merge"].final_state
        assert set(final_state) == set(range(KEYS))
        tags = set()
        for payloads in final_state.values():
            for partials in payloads:
                for source, partial in partials.items():
                    tag, task = source
                    tags.add(tag)
                    assert isinstance(task, int)
                    assert 1 <= partial <= REPEATS
        # Both branches' partials reached the merged state.
        assert tags == {"a", "b"}

    def test_single_interval_recombines_split_partials_exactly(self):
        # One interval = no cross-interval watermark clamping: the last
        # partial stored per (branch, task) slot is that slot's final count,
        # so summing a key's slots must reconstruct its full tuple count.
        runtime = TopologyRuntime(
            _diamond_spec(), _config(collect_final_state=True)
        )
        outcome = runtime.run(_stream()[:1])
        final_state = outcome.stages["merge"].final_state
        assert set(final_state) == set(range(KEYS))
        split = 0
        for key, payloads in final_state.items():
            assert len(payloads) == 1
            assert sum(payloads[0].values()) == REPEATS, key
            if len({tag for tag, _ in payloads[0]}) == 2:
                split += 1
        # The source round-robins chunks, so some keys straddle a chunk
        # boundary and genuinely recombine partials from both branches.
        assert split > 0

    def test_sanitizer_fan_in_checks_fired_clean(self, outcome):
        report = outcome.sanitizer
        assert report is not None
        assert report["violations"] == []
        assert report["checks"]["fan_in_watermark"] > 0
        assert report["checks"]["fan_in_conservation"] >= 4

    def test_per_stage_interval_accounting(self, outcome):
        for stage in outcome.stages.values():
            processed = stage.metrics.series("processed_tuples")
            assert len(processed) == INTERVALS
            assert sum(processed) == stage.tuples_processed


class TestDiamondElasticResize:
    @pytest.fixture(scope="class")
    def outcome(self):
        # Grow one branch mid-run: the merge stage's barrier must track the
        # resized producer count from the next interval on.
        runtime = TopologyRuntime(
            _diamond_spec(),
            _config(
                collect_final_state=True,
                sanitize=True,
                scale_at=ScaleDirective(1, "branch-a", 1),
            ),
        )
        return runtime.run(_stream())

    def test_resize_happened_on_the_branch(self, outcome):
        events = outcome.resilience["scale_events"]
        assert len(events) == 1
        assert events[0]["stage"] == "branch-a"
        assert events[0]["to_tasks"] == events[0]["from_tasks"] + 1

    def test_merge_conserves_through_the_resize(self, outcome):
        # Every tuple still reaches the merge stage exactly once: the fan-in
        # barrier keeps closing intervals with the grown producer count.
        total = INTERVALS * KEYS * REPEATS
        merge = outcome.stages["merge"]
        assert merge.tuples_offered == total
        assert merge.tuples_processed == total
        assert set(merge.final_state) == set(range(KEYS))

    def test_sanitizer_clean_through_the_resize(self, outcome):
        report = outcome.sanitizer
        assert report is not None
        assert report["violations"] == []
        assert report["checks"]["fan_in_watermark"] > 0
