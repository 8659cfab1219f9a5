"""Tests for the strategy registry."""

import pytest

from repro.core.statistics import IntervalStats
from repro.core.strategy import (
    STANDARD_TUNABLES,
    StrategySpec,
    get_strategy,
    has_strategy,
    list_strategies,
    register_strategy,
    strategy_names,
)
from repro.core.strategy import _REGISTRY

#: Strategy labels of the paper's figure legends.
EVALUATION_LABELS = (
    "storm", "ideal", "pkg", "readj", "dkg", "mixed", "mintable", "minmig", "mixedbf"
)

TUNING = dict(
    theta_max=0.07, max_table_size=150, beta=1.6, window=2, seed=3, readj_sigma=2.5
)


def _route_trace(partitioner, keys, intervals):
    """Routes before and after every rebalancing round (same call sequence)."""
    trace = [partitioner.assign_batch(keys)]
    for index, snapshot in enumerate(intervals):
        partitioner.on_interval_end(IntervalStats.from_frequencies(index, snapshot))
        trace.append(partitioner.assign_batch(keys))
    return trace


class TestRegistryBuilds:
    """Every evaluation label is registered and builds deterministically."""

    @pytest.mark.parametrize("name", EVALUATION_LABELS)
    def test_twin_builds_route_identically(self, name, skewed_frequencies):
        keys = sorted(skewed_frequencies)
        intervals = [skewed_frequencies] * 2
        first = get_strategy(name).build(5, **TUNING)
        second = get_strategy(name).build(5, **TUNING)
        assert type(first) is type(second)
        assert _route_trace(first, keys, intervals) == _route_trace(
            second, keys, intervals
        )

    def test_every_evaluation_label_registered(self):
        for name in EVALUATION_LABELS:
            assert has_strategy(name)
        assert set(EVALUATION_LABELS) <= set(strategy_names())


class TestStrategySpec:
    def test_unknown_strategy(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            get_strategy("bogus")
        assert not has_strategy("bogus")

    def test_case_insensitive_lookup(self):
        assert get_strategy("MIXED") is get_strategy("mixed")

    def test_standard_tunables_are_filtered(self):
        # Static hashing ignores theta_max instead of crashing on it.
        partitioner = get_strategy("storm").build(4, theta_max=0.01, seed=1)
        assert partitioner.num_tasks == 4

    def test_non_standard_tunable_rejected(self):
        with pytest.raises(TypeError, match="unknown tunables"):
            get_strategy("mixed").build(4, not_a_knob=1)

    def test_spec_rejects_undeclared_tunable_names(self):
        with pytest.raises(ValueError, match="non-standard tunables"):
            StrategySpec(name="x", builder=lambda n: None, tunables=("bogus_knob",))

    def test_metadata_flags(self):
        assert get_strategy("mixed").core_algorithm == "mixed"
        assert get_strategy("mixed").rebalancing
        assert get_strategy("readj").core_algorithm is None
        assert get_strategy("readj").rebalancing
        assert not get_strategy("storm").rebalancing
        assert not get_strategy("storm").theta_sensitive
        assert get_strategy("mintable").theta_sensitive

    def test_third_party_registration_plugs_into_harness(self):
        from repro.baselines import HashPartitioner
        from repro.experiments.sweeps import simulate
        from repro.experiments.config import get_scale

        @register_strategy(
            "test-hash2", tunables=("seed",), description="test-only strategy"
        )
        def _build(num_tasks, *, seed=0):
            return HashPartitioner(num_tasks, seed=seed + 1)

        try:
            spec = get_strategy("test-hash2")
            assert spec.description == "test-only strategy"
            # Usable by the simulation harness without touching harness code.
            scale = get_scale("tiny").scaled(num_tasks=4)
            from repro.operators import WordCountOperator
            from repro.workloads import ZipfWorkload

            workload = ZipfWorkload(
                num_keys=300, tuples_per_interval=5_000, num_tasks=4, intervals=2
            ).take(2)
            collector = simulate(
                scale, "test-hash2", workload, WordCountOperator(), seed=0
            )
            assert collector.mean_throughput > 0
            with pytest.raises(ValueError, match="already registered"):
                register_strategy("test-hash2")(_build)
        finally:
            _REGISTRY.pop("test-hash2", None)

    def test_listing_includes_descriptions(self):
        specs = {spec.name: spec for spec in list_strategies()}
        assert "mixed" in specs and specs["mixed"].description
        assert set(spec.name for spec in list_strategies()) == set(strategy_names())

    def test_standard_tunables_cover_harness_kwargs(self):
        for knob in ("theta_max", "max_table_size", "beta", "window", "seed", "readj_sigma"):
            assert knob in STANDARD_TUNABLES


class TestPlannerSequenceDispatch:
    def test_static_strategy_rejected(self):
        from repro.experiments.harness import run_planner_sequence

        with pytest.raises(KeyError, match="never rebalances"):
            run_planner_sequence("storm", [], num_tasks=4)

    def test_compact_strategy_streams(self):
        from repro.experiments.harness import run_planner_sequence
        from repro.workloads import ZipfWorkload

        workload = ZipfWorkload(
            num_keys=400,
            tuples_per_interval=10_000,
            fluctuation=0.8,
            num_tasks=4,
            intervals=3,
        ).take(3)
        run = run_planner_sequence(
            "compact", workload, num_tasks=4, theta_max=0.05, max_table_size=100
        )
        assert run.rebalances >= 1
