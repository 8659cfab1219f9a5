"""Tests for the baseline partitioners: hash, shuffle, PKG, Readj, DKG."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DKGPlanner,
    HashPartitioner,
    PartialKeyGrouping,
    ReadjPlanner,
    RebalancingPartitioner,
    ShufflePartitioner,
)
from repro.core.load import load_from_costs, max_balance_indicator
from repro.core.planner import PlannerConfig
from repro.core.statistics import IntervalStats
from repro.core.strategy import get_strategy, list_strategies


def _skewed(num_keys=200, seed=0):
    rng = random.Random(seed)
    freqs = {f"k{i}": float(rng.randint(1, 20)) for i in range(num_keys)}
    freqs["k0"], freqs["k1"], freqs["k2"] = 800.0, 600.0, 400.0
    return freqs


class TestHashPartitioner:
    def test_deterministic_and_in_range(self):
        part = HashPartitioner(6, seed=1)
        for key in range(200):
            task = part.route(key)
            assert 0 <= task < 6
            assert part.route(key) == task

    def test_route_bulk_default(self):
        part = HashPartitioner(4)
        assert part.route_bulk("k", 10) == {part.route("k"): 10}
        assert part.route_bulk("k", 0) == {}
        with pytest.raises(ValueError):
            part.route_bulk("k", -1)

    def test_consistent_variant_scale_out_moves_few_keys(self):
        part = HashPartitioner(5, seed=1, consistent=True)
        before = {key: part.route(key) for key in range(2000)}
        part.scale_out(6)
        after = {key: part.route(key) for key in range(2000)}
        moved = sum(1 for key in before if before[key] != after[key])
        assert moved < 2000 * 0.5

    def test_scale_out_cannot_shrink(self):
        part = HashPartitioner(5)
        with pytest.raises(ValueError):
            part.scale_out(4)

    def test_never_rebalances(self):
        part = HashPartitioner(5)
        stats = IntervalStats.from_frequencies(0, _skewed())
        assert part.on_interval_end(stats) is None
        assert part.supports_stateful()

    def test_invalid_num_tasks(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestShufflePartitioner:
    def test_round_robin(self):
        part = ShufflePartitioner(3)
        assert [part.route("x") for _ in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_route_bulk_spreads_evenly(self):
        part = ShufflePartitioner(4)
        shares = part.route_bulk("k", 100)
        assert sum(shares.values()) == pytest.approx(100)
        assert all(share == pytest.approx(25) for share in shares.values())

    def test_not_stateful(self):
        assert not ShufflePartitioner(2).supports_stateful()

    def test_interval_end_resets_and_scale_out(self):
        part = ShufflePartitioner(2)
        part.route_bulk("k", 10)
        assert part.on_interval_end(IntervalStats(0)) is None
        part.scale_out(3)
        shares = part.route_bulk("k", 30)
        assert sum(shares.values()) == pytest.approx(30)
        assert len(shares) == 3
        assert [part.route("x") for _ in range(3)] == [0, 1, 2]
        part.scale_in(2)  # the cursor stood at 3
        assert [part.route("x") for _ in range(3)] == [1, 0, 1]


class TestPartialKeyGrouping:
    def test_candidates_are_stable_per_key(self):
        part = PartialKeyGrouping(8, seed=2)
        for key in ("a", "b", "c"):
            assert part.candidate_tasks(key) == part.candidate_tasks(key)
            assert len(part.candidate_tasks(key)) == 2

    def test_route_only_uses_candidates(self):
        part = PartialKeyGrouping(8, seed=2)
        for key in range(50):
            candidates = set(part.candidate_tasks(key))
            for _ in range(5):
                assert part.route(key) in candidates

    def test_split_balances_hot_key(self):
        part = PartialKeyGrouping(4, seed=0)
        shares = part.route_bulk("hot", 1000)
        assert sum(shares.values()) == pytest.approx(1000)
        assert len(shares) == 2
        low, high = sorted(shares.values())
        assert high / max(low, 1) < 1.5
        assert part.partials_per_key("hot") == 2
        assert part.total_partials() == 2

    def test_balances_better_than_hashing_on_skew(self):
        freqs = _skewed()
        pkg = PartialKeyGrouping(5, seed=3)
        hashed = HashPartitioner(5, seed=3)
        pkg_loads = {task: 0.0 for task in range(5)}
        for key, count in freqs.items():
            for task, share in pkg.route_bulk(key, count).items():
                pkg_loads[task] += share
        hash_loads = load_from_costs(freqs, hashed.route, 5)
        assert max_balance_indicator(pkg_loads) < max_balance_indicator(hash_loads)

    def test_interval_end_resets_split_counts(self):
        part = PartialKeyGrouping(4, seed=0)
        part.route_bulk("hot", 100)
        part.on_interval_end(IntervalStats(0))
        assert part.total_partials() == 0

    def test_not_stateful_and_params(self):
        part = PartialKeyGrouping(4)
        assert not part.supports_stateful()
        assert part.merge_period_ms == 10.0

    def test_scale_out(self):
        part = PartialKeyGrouping(4, seed=0)
        part.scale_out(6)
        assert all(task < 6 for task in part.candidate_tasks("x"))


class TestResize:
    """``Partitioner.resize``: the placement diff both engines migrate."""

    @pytest.mark.parametrize("strategy", [spec.name for spec in list_strategies()])
    def test_moves_are_the_placement_diff(self, strategy):
        part, twin = (get_strategy(strategy).build(5, theta_max=0.05, seed=1) for _ in "ab")
        for each in (part, twin):
            each.on_interval_end(IntervalStats.from_frequencies(0, _skewed()))
        keys = list(_skewed())
        for new in (7, 3):
            moves = part.resize(new, keys)
            assert part.num_tasks == new
            if not part.supports_stateful():
                assert moves == []
                continue
            before = twin.assign_batch(keys)
            (twin.scale_out if new > twin.num_tasks else twin.scale_in)(new)
            after = twin.assign_batch(keys)
            assert moves == [
                (key, source, target)
                for key, source, target in zip(keys, before, after)
                if source != target
            ]
            assert moves

    def test_split_key_resize_routes_nothing(self):
        part = PartialKeyGrouping(4, seed=1)
        part.assign_batch(["a", "b", "a", "c"])
        loads = dict(part._loads)
        splits = {key: dict(tasks) for key, tasks in part.split_counts.items()}
        assert part.resize(6, ["a", "b", "c", "d"]) == []
        assert part.num_tasks == 6
        assert part._loads == {**loads, 4: 0.0, 5: 0.0}
        assert part.split_counts == splits


class TestReadj:
    def test_rebalances_skewed_workload(self):
        part = get_strategy("readj").build(5, theta_max=0.1, readj_sigma=2.0, seed=1)
        stats = IntervalStats.from_frequencies(0, _skewed())
        before = max_balance_indicator(
            load_from_costs(_skewed(), part.route, 5)
        )
        result = part.on_interval_end(stats)
        assert result is not None
        assert result.max_theta < before
        assert result.generation_time > 0
        # The installed assignment reflects the plan.
        for key in _skewed():
            assert part.route(key) == result.assignment(key)

    def test_no_plan_when_balanced(self):
        part = get_strategy("readj").build(5, theta_max=0.5, seed=1)
        stats = IntervalStats.from_frequencies(0, {f"k{i}": 10.0 for i in range(500)})
        assert part.on_interval_end(stats) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReadjPlanner(sigma=-1)

    def test_scale_out_keeps_table(self):
        part = get_strategy("readj").build(5, theta_max=0.05, seed=1)
        part.on_interval_end(IntervalStats.from_frequencies(0, _skewed()))
        table_before = part.assignment.routing_table.size
        part.scale_out(6)
        assert part.num_tasks == 6
        assert part.assignment.routing_table.size == table_before


class TestDKG:
    def test_rebalances_heavy_keys(self):
        part = RebalancingPartitioner(
            5, DKGPlanner(heavy_factor=5.0), PlannerConfig(theta_max=0.1), seed=1
        )
        stats = IntervalStats.from_frequencies(0, _skewed())
        before = max_balance_indicator(load_from_costs(_skewed(), part.route, 5))
        result = part.on_interval_end(stats)
        assert result is not None
        assert result.max_theta < before

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DKGPlanner(heavy_factor=0)

    @given(st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_routes_in_range(self, num_tasks):
        part = get_strategy("dkg").build(num_tasks)
        for key in range(50):
            assert 0 <= part.route(key) < num_tasks
