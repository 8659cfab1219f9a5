"""RuntimeSpec serialisation, run_bench persistence and the `repro bench` CLI."""

import importlib.util
from pathlib import Path

import pytest

import repro.runtime.bench as bench_module
from repro.cli import main
from repro.experiments.config import get_scale
from repro.experiments.store import ResultsStore
from repro.runtime import KillDirective, ScaleDirective, TopologyResult
from repro.runtime.bench import (
    BENCH_DEFAULT_OVERRIDES,
    BENCH_TOPOLOGY_WORKLOADS,
    Q5_CHAIN_STAGES,
    RuntimeSpec,
    run_bench,
)

#: A bench configuration small enough for tier-1 (two strategies, ~20k tuples).
TINY = dict(
    scale="tiny",
    overrides={"tuples_per_interval": 5_000, "sim_intervals": 2, "num_keys": 300},
    parallelism=2,
    service_time_us=10.0,
)


def _load_script(name: str):
    """Import scripts/<name>.py (not a package) by file path."""
    path = Path(__file__).resolve().parents[2] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRuntimeSpec:
    def test_defaults_apply_the_bench_stream_regime(self):
        spec = RuntimeSpec()
        assert spec.overrides["skew"] == BENCH_DEFAULT_OVERRIDES["skew"]
        assert spec.resolve_scale().skew == BENCH_DEFAULT_OVERRIDES["skew"]
        assert spec.resolve_scale().fluctuation == BENCH_DEFAULT_OVERRIDES["fluctuation"]

    def test_user_overrides_win_over_bench_defaults(self):
        spec = RuntimeSpec(overrides={"skew": 0.5})
        assert spec.resolve_scale().skew == 0.5
        assert spec.resolve_scale().fluctuation == BENCH_DEFAULT_OVERRIDES["fluctuation"]

    def test_round_trip(self):
        spec = RuntimeSpec(
            workload="windowed_aggregate",
            strategies=["storm", "readj"],
            parallelism=3,
            scale="small",
            overrides={"num_keys": 1234},
            seed=7,
            service_time_us=20.0,
        )
        assert RuntimeSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_with_explicit_scale(self):
        spec = RuntimeSpec(scale=get_scale("tiny"))
        assert RuntimeSpec.from_dict(spec.to_dict()) == spec

    def test_resilience_specs_round_trip_in_canonical_form(self):
        spec = RuntimeSpec(
            workload="tpch_q5_chain",
            kill_worker="revenue-agg:0@3",
            scale_at="2:order-join:1",
            checkpoint_dir="/tmp/ckpt",
            checkpoint_every=2,
        )
        assert spec.scale_at == "2:order-join:+1"  # normalised sign
        assert RuntimeSpec.from_dict(spec.to_dict()) == spec
        config = spec.runtime_config()
        assert config.kill_worker == KillDirective("revenue-agg", 0, 3)
        assert config.scale_at == ScaleDirective(2, "order-join", 1)
        assert config.checkpoint_every == 2

    def test_resilience_specs_fail_fast(self):
        # A one-stage workload takes the directives like any topology: its
        # only stage is named after the workload.
        spec = RuntimeSpec(workload="wordcount", kill_worker="wordcount:0@1")
        assert spec.runtime_config().kill_worker == KillDirective("wordcount", 0, 1)
        with pytest.raises(KeyError, match="unknown stage"):
            RuntimeSpec(workload="wordcount", kill_worker="a:0@1")
        with pytest.raises(KeyError, match="unknown stage"):
            RuntimeSpec(workload="wordcount", scale_at="2:a:+1")
        with pytest.raises(KeyError):
            RuntimeSpec(workload="tpch_q5_chain", kill_worker="nope:0@1")
        with pytest.raises(KeyError):
            RuntimeSpec(workload="tpch_q5_chain", scale_at="2:nope:+1")
        with pytest.raises(ValueError):
            RuntimeSpec(workload="tpch_q5_chain", kill_worker="bad-spec")
        with pytest.raises(ValueError):
            RuntimeSpec(workload="tpch_q5_chain", checkpoint_every=0)

    def test_rejects_unknown_workload(self):
        with pytest.raises(KeyError):
            RuntimeSpec(workload="nope")

    def test_rejects_unknown_strategy_up_front(self):
        # A typo must fail at spec construction, not after earlier strategies
        # already ran to completion.
        with pytest.raises(KeyError, match="bogus"):
            RuntimeSpec(strategies=["storm", "bogus"])

    def test_rejects_unknown_scale_up_front(self):
        with pytest.raises(KeyError):
            RuntimeSpec(scale="huge")
        with pytest.raises(TypeError):
            RuntimeSpec(overrides={"not_a_field": 1})

    @pytest.mark.parametrize("name", sorted(BENCH_TOPOLOGY_WORKLOADS))
    def test_every_workload_builds_a_stream_and_topology(self, name):
        workload = BENCH_TOPOLOGY_WORKLOADS[name]
        scale = get_scale("tiny").scaled(
            num_keys=50, tuples_per_interval=200, sim_intervals=2, num_tasks=2
        )
        spec = RuntimeSpec(workload=name, parallelism=2, scale="tiny")
        stream = workload.build_stream(scale, 0)
        assert len(stream) == 2
        assert all(len(interval) > 0 for interval in stream)

        def build(strategy, parallelism):
            from repro.baselines.hash_only import HashPartitioner

            return HashPartitioner(parallelism, seed=0)

        topology = workload.build_topology(scale, spec, "storm", build)
        assert topology.stage_names() == list(workload.stages)
        key, _ = stream[0][0]
        assert topology.stages[0].logic.batch_cost([key]) > 0

    def test_stage_parallelism_validation(self):
        spec = RuntimeSpec(
            workload="tpch_q5_chain",
            parallelism=2,
            stage_parallelism={"order-join": 4},
        )
        assert spec.stage_parallelism == {"order-join": 4}
        with pytest.raises(KeyError, match="bogus-stage"):
            RuntimeSpec(
                workload="tpch_q5_chain", stage_parallelism={"bogus-stage": 2}
            )
        with pytest.raises(ValueError, match="positive"):
            RuntimeSpec(
                workload="tpch_q5_chain", stage_parallelism={"order-join": 0}
            )
        with pytest.raises(KeyError, match="unknown stage"):
            RuntimeSpec(workload="wordcount", stage_parallelism={"order-join": 2})

    def test_offered_rate_validation_and_round_trip(self):
        with pytest.raises(ValueError):
            RuntimeSpec(offered_rate=-1.0)
        spec = RuntimeSpec(
            workload="tpch_q5_chain",
            offered_rate=5_000.0,
            calibrate_pacing=True,
            stage_parallelism={"revenue-agg": 1},
        )
        assert RuntimeSpec.from_dict(spec.to_dict()) == spec

    def test_rate_sweep_validation_and_round_trip(self):
        # One-point sweeps are rejected by the spec and the CLI alike.
        with pytest.raises(ValueError, match="at least two"):
            RuntimeSpec(rate_sweep=[])
        with pytest.raises(ValueError, match="at least two"):
            RuntimeSpec(rate_sweep=[1_000.0])
        with pytest.raises(ValueError, match="positive"):
            RuntimeSpec(rate_sweep=[-5.0, 10.0])
        with pytest.raises(ValueError, match="ascending"):
            RuntimeSpec(rate_sweep=[10_000.0, 5_000.0])
        with pytest.raises(ValueError, match="ascending"):
            RuntimeSpec(rate_sweep=[5_000.0, 5_000.0])
        with pytest.raises(ValueError, match="mutually exclusive"):
            RuntimeSpec(offered_rate=1_000.0, rate_sweep=[1_000.0, 2_000.0])
        spec = RuntimeSpec(rate_sweep=[1_000, 2_000.5])
        assert spec.rate_sweep == [1_000.0, 2_000.5]
        assert RuntimeSpec.from_dict(spec.to_dict()) == spec


class TestRunBench:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bench")
        spec = RuntimeSpec(workload="wordcount", strategies=["storm", "mixed"], **TINY)
        store = ResultsStore(root / "results")
        run, results = run_bench(spec, store=store)
        return spec, store, run, results

    def test_rows_carry_measured_numbers(self, outcome):
        _, _, run, results = outcome
        # A one-stage workload reports like any topology: chain row + stage row.
        assert [(row["strategy"], row["stage"]) for row in run.result.rows] == [
            ("storm", "chain"),
            ("storm", "wordcount"),
            ("mixed", "chain"),
            ("mixed", "wordcount"),
        ]
        for row in run.result.rows:
            assert row["tuples"] == 10_000
            assert row["tuples_per_second"] > 0
            assert row["latency_p99_ms"] >= row["latency_p50_ms"] > 0
        assert set(results) == {"storm", "mixed"}

    def test_metadata_records_process_engine_and_host(self, outcome):
        _, _, run, _ = outcome
        assert run.metadata.engine == "process"
        assert run.metadata.host_cpu_count >= 1
        assert run.metadata.figure == "bench"

    def test_persisted_run_reloads_with_artifacts(self, outcome):
        spec, store, run, _ = outcome
        loaded = store.load(run.metadata.run_id)
        assert loaded.metadata.engine == "process"
        assert RuntimeSpec.from_dict(loaded.spec.params["runtime_spec"]) == spec
        names = store.artifact_names(run.metadata.run_id)
        assert "mixed.wordcount.latency" in names
        assert "storm.wordcount.metrics" in names
        histogram = store.load_artifact(run.metadata.run_id, "mixed.wordcount.latency")
        assert histogram.total == 10_000


class TestChainBench:
    """run_bench on the multi-stage Q5 topology (structure, not speed)."""

    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("chain-bench")
        spec = RuntimeSpec(
            workload="tpch_q5_chain",
            strategies=["storm", "mixed"],
            **TINY,
        )
        store = ResultsStore(root / "results")
        run, results = run_bench(spec, store=store)
        return spec, store, run, results

    def test_rows_cover_chain_and_every_stage(self, outcome):
        _, _, run, results = outcome
        for name in ("storm", "mixed"):
            stages = [
                row["stage"] for row in run.result.rows if row["strategy"] == name
            ]
            assert stages == ["chain", *Q5_CHAIN_STAGES]
        for row in run.result.rows:
            assert row["tuples"] > 0
            assert row["tuples_per_second"] > 0
            assert row["latency_p99_ms"] >= row["latency_p50_ms"] > 0
        assert all(
            isinstance(result, TopologyResult) for result in results.values()
        )

    def test_chain_conserves_tuples_across_stages(self, outcome):
        _, _, _, results = outcome
        total = TINY["overrides"]["tuples_per_interval"] * TINY["overrides"]["sim_intervals"]
        for result in results.values():
            assert result.tuples_offered == total
            for stage in result.stages.values():
                assert stage.tuples_processed == total

    def test_revenue_lands_in_the_nation_domain(self, outcome):
        _, _, _, results = outcome
        # The final stage is keyed by nation (25 keys) after two re-keyings.
        final = results["storm"].final
        total_keys = sum(
            report.state_keys for report in final.final_reports.values()
        )
        assert 0 < total_keys <= 25

    def test_message_counters_are_reported_per_stage_and_must_balance(self, outcome):
        _, _, run, results = outcome
        for row in run.result.rows:
            if row["stage"] != "chain":
                assert row["worker_messages"] >= row["chunks"] > 0
                assert row["tuples_per_worker_message"] > 0
        # A tuple the router offered that reached no worker queue (and was
        # not shed) is a lost tuple, whatever the processed count says.
        for result in results.values():
            for stage in result.stages.values():
                assert (
                    stage.messages["tuples_to_workers"]
                    == stage.tuples_offered - stage.tuples_shed
                )

    def test_per_stage_artifacts_are_stored(self, outcome):
        _, store, run, _ = outcome
        names = store.artifact_names(run.metadata.run_id)
        for strategy in ("storm", "mixed"):
            for stage in Q5_CHAIN_STAGES:
                assert f"{strategy}.{stage}.metrics" in names
                assert f"{strategy}.{stage}.latency" in names
            assert f"{strategy}.e2e_latency" in names
        e2e = store.load_artifact(run.metadata.run_id, "storm.e2e_latency")
        assert e2e.total == 10_000


class TestRateSweep:
    """run_bench with a rate_sweep: one measured row per offered rate."""

    @pytest.fixture(scope="class")
    def outcome(self):
        spec = RuntimeSpec(
            workload="wordcount",
            strategies=["storm"],
            rate_sweep=[20_000.0, 80_000.0],
            **TINY,
        )
        return run_bench(spec)

    def test_one_row_per_rate_with_ascending_rates(self, outcome):
        run, results = outcome
        rows = run.result.rows
        assert [row["offered_rate"] for row in rows] == [20_000.0, 80_000.0]
        for row in rows:
            assert row["strategy"] == "storm"
            assert row["tuples"] == 10_000
            assert row["tuples_per_second"] > 0
            assert row["latency_p99_ms"] >= row["latency_p50_ms"] > 0
        # Outcomes are keyed by rate under each strategy.
        assert set(results["storm"]) == {20_000.0, 80_000.0}

    def test_open_loop_pacing_caps_measured_throughput(self, outcome):
        _, results = outcome
        slow = results["storm"][20_000.0]
        # 10k tuples offered at 20k/s must take at least ~0.5 s of schedule.
        assert slow.wall_seconds > 0.4
        assert slow.summary()["tuples_per_second"] < 25_000


class TestPlannerMicroSection:
    """The rows of scripts/bench_planner.py: every step timed, parts nested."""

    @pytest.fixture(scope="class")
    def section(self):
        return _load_script("bench_planner").run_benchmark(
            key_counts=[400, 900, 100_000], intervals=4
        )

    def test_every_key_count_planned_and_moved_keys(self, section):
        assert [row["num_keys"] for row in section["rows"]] == [400, 900, 100_000]
        for row in section["rows"]:
            assert row["plans"] >= 1
            assert row["moved_keys"] > 0
            for step in ("edge_ms", "route_ms", "stats_ms", "should_rebalance_ms", "plan_ms"):
                assert row[step] > 0, step

    @pytest.mark.parametrize("part", ["delta_ms", "rank_ms"])
    def test_part_of_the_plan_must_lie_within_it(self, section, part):
        for row in section["rows"]:
            assert 0 <= row[part] <= row["plan_ms"]

    def test_interval_end_contains_the_plan(self, section):
        for row in section["rows"]:
            assert row["interval_end_ms"] >= row["plan_ms"]

    def test_paper_scale_row_must_describe_faster_than_it_routes(self, section):
        # The speed-independent guard: a ratio inside one run (31 ms route
        # against 154 ms stats while every key cost one KeyStats object,
        # ~3 ms since the statistics are columns).
        [row] = [row for row in section["rows"] if row["num_keys"] == 100_000]
        assert row["stats_ms"] < row["route_ms"]


class TestBenchCli:
    def test_bench_command_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "bench",
                "wordcount",
                "--parallelism",
                "2",
                "--scale",
                "tiny",
                "--set",
                "tuples_per_interval=3000",
                "--set",
                "sim_intervals=2",
                "--set",
                "num_keys=200",
                "--service-time-us",
                "10",
                "--strategies",
                "storm",
                "--results-dir",
                str(tmp_path / "results"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tuples/s" in out
        assert "engine=process" in out
        store = ResultsStore(tmp_path / "results")
        assert len(store) == 1
        assert store.list_runs()[0].engine == "process"

    def test_bench_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["bench", "nope"])

    def test_bench_rejects_unknown_strategy_before_running(self):
        with pytest.raises(SystemExit, match="bogus"):
            main(["bench", "wordcount", "--strategies", "storm,bogus"])

    def test_bench_rejects_malformed_parallelism(self):
        with pytest.raises(SystemExit):
            main(["bench", "wordcount", "--parallelism", "0"])
        with pytest.raises(SystemExit):
            main(["bench", "wordcount", "--parallelism", "-3"])
        with pytest.raises(SystemExit):
            main(["bench", "wordcount", "--parallelism", "two"])

    def test_bench_rejects_malformed_stage_parallelism(self):
        # Missing '=', non-integer count, non-positive count and an unknown
        # stage (of a chain or of a one-stage workload) — all must exit
        # cleanly before any worker process is spawned.
        with pytest.raises(SystemExit, match="STAGE=COUNT"):
            main(["bench", "tpch_q5_chain", "--stage-parallelism", "order-join"])
        with pytest.raises(SystemExit, match="integer"):
            main(
                ["bench", "tpch_q5_chain", "--stage-parallelism", "order-join=x"]
            )
        with pytest.raises(SystemExit, match="positive"):
            main(
                ["bench", "tpch_q5_chain", "--stage-parallelism", "order-join=0"]
            )
        with pytest.raises(SystemExit, match="unknown stage"):
            main(["bench", "tpch_q5_chain", "--stage-parallelism", "bogus=2"])
        with pytest.raises(SystemExit, match="unknown stage"):
            main(["bench", "wordcount", "--stage-parallelism", "order-join=2"])

    def test_bench_rejects_malformed_service_time_and_rate(self):
        with pytest.raises(SystemExit):
            main(["bench", "wordcount", "--service-time-us", "fast"])
        with pytest.raises(SystemExit):
            main(["bench", "wordcount", "--service-time-us", "-5"])
        with pytest.raises(SystemExit):
            main(["bench", "wordcount", "--rate", "-100"])

    def test_bench_rejects_malformed_rate_sweep(self):
        for bad in ("1000", "1000:2000", "a:b:3", "2000:1000:3", "1000:2000:1"):
            with pytest.raises(SystemExit):
                main(["bench", "wordcount", "--rate-sweep", bad])
        # --rate and --rate-sweep are mutually exclusive (spec-level check).
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "bench",
                    "wordcount",
                    "--rate",
                    "1000",
                    "--rate-sweep",
                    "1000:2000:2",
                ]
            )

    def test_stored_bench_run_is_rerunnable(self, tmp_path, capsys):
        spec = RuntimeSpec(workload="wordcount", strategies=["storm"], **TINY)
        store = ResultsStore(tmp_path / "results")
        run, _ = run_bench(spec, store=store)
        run_json = tmp_path / "results" / run.metadata.run_id / "run.json"
        assert run_json.is_file()
        code = main(
            [
                "run",
                str(run_json),
                "--results-dir",
                str(tmp_path / "results"),
                "--quiet",
            ]
        )
        assert code == 0
        assert "engine=process" in capsys.readouterr().out
        assert len(store) == 2  # the original bench run plus the re-run

    def test_rerun_of_a_sanitized_bench_fails_on_a_violation(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = RuntimeSpec(
            workload="wordcount", strategies=["storm"], sanitize=True, **TINY
        )
        run, _ = run_bench(spec, store=ResultsStore(tmp_path / "results"))
        run_json = tmp_path / "results" / run.metadata.run_id / "run.json"
        argv = ["run", str(run_json), "--no-save", "--quiet"]
        assert main(argv) == 0
        assert "[sanitizer: clean; checks: " in capsys.readouterr().out

        measured = bench_module.run_bench

        def run_with_a_violation(rerun_spec, **kwargs):
            rerun, outcomes = measured(rerun_spec, **kwargs)
            outcomes["storm"].sanitizer["violations"].append(
                {"check": "conservation", "stage": "wordcount", "message": "lost"}
            )
            return rerun, outcomes

        monkeypatch.setattr(bench_module, "run_bench", run_with_a_violation)
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[sanitizer: 1 violation(s)" in out
        assert "! conservation @ wordcount: lost" in out
