"""Tests for the experiment harness, scale presets and reporting."""

import pytest

from repro.core.strategy import get_strategy, list_strategies, strategy_names
from repro.experiments import (
    ExperimentResult,
    format_table,
    get_scale,
    run_planner_sequence,
    run_simulation,
)
from repro.experiments.config import SCALES
from repro.operators import WordCountOperator
from repro.workloads import ZipfWorkload


def _workload(intervals=4, num_keys=800, fluctuation=0.8, num_tasks=5):
    return ZipfWorkload(
        num_keys=num_keys,
        tuples_per_interval=20_000,
        fluctuation=fluctuation,
        num_tasks=num_tasks,
        intervals=intervals,
        seed=0,
    ).take(intervals)


class TestScales:
    def test_presets_exist(self):
        for name in ("tiny", "small", "paper"):
            assert name in SCALES
            scale = get_scale(name)
            assert scale.num_keys > 0 and scale.num_tasks > 0

    def test_paper_defaults_match_table2(self):
        paper = get_scale("paper")
        assert paper.num_keys == 100_000
        assert paper.skew == 0.85
        assert paper.theta_max == 0.08
        assert paper.beta == 1.5
        assert paper.max_table_size == 3_000
        assert paper.num_tasks == 10

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("huge")

    def test_scaled_override(self):
        tiny = get_scale("tiny").scaled(num_keys=123)
        assert tiny.num_keys == 123
        assert get_scale(tiny) is tiny


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_experiment_result_helpers(self):
        result = ExperimentResult(figure="Fig. X", title="demo")
        result.add_row(series="s1", x=1, y=10)
        result.add_row(series="s1", x=2, y=20)
        result.add_row(series="s2", x=1, y=5)
        assert len(result) == 3
        assert result.column("y") == [10, 20, 5]
        assert result.filter(series="s2") == [{"series": "s2", "x": 1, "y": 5}]
        series = result.series("series", "x", "y")
        assert series["s1"] == [(1, 10), (2, 20)]
        text = result.to_text()
        assert "Fig. X" in text and "demo" in text


class TestStrategyConstruction:
    @pytest.mark.parametrize("name", strategy_names())
    def test_every_strategy_constructible(self, name):
        partitioner = get_strategy(name).build(4, theta_max=0.1, max_table_size=100)
        assert partitioner.num_tasks == 4
        assert 0 <= partitioner.route("some-key") < 4

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            get_strategy("bogus")


class TestRunPlannerSequence:
    def test_core_algorithm_run(self):
        run = run_planner_sequence(
            "mixed",
            _workload(),
            num_tasks=5,
            theta_max=0.05,
            max_table_size=200,
        )
        assert run.rebalances >= 1
        assert run.avg_generation_time > 0
        assert 0 <= run.avg_migration_fraction <= 1
        assert run.avg_table_size > 0

    def test_readj_run(self):
        run = run_planner_sequence(
            "readj", _workload(intervals=3), num_tasks=5, theta_max=0.05
        )
        assert run.algorithm == "readj"
        assert run.rebalances >= 1

    def test_compact_run_records_estimation_error(self):
        run = run_planner_sequence(
            "compact",
            _workload(intervals=3),
            num_tasks=5,
            theta_max=0.05,
            discretization_degree=8,
        )
        assert run.algorithm == "compact"
        assert len(run.load_estimation_errors) == run.rebalances >= 1
        assert all(error < 0.1 for error in run.load_estimation_errors)

    def test_force_every_interval(self):
        workload = _workload(intervals=3, fluctuation=0.0)
        lazy = run_planner_sequence(
            "minmig", workload, num_tasks=5, theta_max=10.0
        )
        forced = run_planner_sequence(
            "minmig", workload, num_tasks=5, theta_max=10.0, force_every_interval=True
        )
        assert lazy.rebalances == 0
        assert forced.rebalances == 3

    @pytest.mark.parametrize(
        "strategy", [spec.name for spec in list_strategies() if spec.rebalancing]
    )
    def test_forced_planning_works_for_every_rebalancing_strategy(self, strategy):
        """One plan per interval whatever the planner (regression: Readj / DKG
        raised AttributeError), labelled with the strategy that ran."""
        forced = run_planner_sequence(
            strategy,
            _workload(intervals=3, fluctuation=0.0),
            num_tasks=5,
            theta_max=10.0,
            force_every_interval=True,
        )
        assert forced.algorithm == strategy
        assert forced.rebalances == len(forced.table_sizes) == 3


class TestRunSimulation:
    def test_simulation_produces_metrics(self):
        collector = run_simulation(
            "mixed",
            _workload(intervals=4),
            WordCountOperator(),
            num_tasks=5,
            theta_max=0.1,
            max_table_size=200,
        )
        assert len(collector) == 4
        assert collector.mean_throughput > 0
        assert collector.label == "mixed"

    def test_ideal_never_rebalances(self):
        collector = run_simulation(
            "ideal", _workload(intervals=3), WordCountOperator(), num_tasks=5
        )
        assert collector.rebalance_count == 0
        assert collector.mean_skewness == pytest.approx(1.0)
