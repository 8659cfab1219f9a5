"""What a `repro bench` run must keep true, asserted on its results.

Each case is one bench leg at tier-1 size on real worker processes:

* every workload sanitized, paced and unpaced (unpaced, workers outrun the
  routers and downstream routers merge waiting ingress batches);
* a SIGKILLed worker of the Q5 chain under ``storm`` (supervised recovery:
  respawn, checkpoint restore, retention-log replay).  ``storm`` never
  migrates a key, so no kill lands inside a migration;
* an elastic resize of the chain's order-join, both directions.

A leg passes when the sanitizer fired and stayed clean, every stage's books
balance, and an injected run measured its injection and processed, stage by
stage, exactly what the uninjected run did.
"""

import functools

import pytest

from repro.runtime.bench import RuntimeSpec, run_bench
from repro.runtime.resilience.scaling import parse_scale_spec
from repro.runtime.resilience.supervisor import parse_kill_spec

#: Five intervals of 5 000 tuples over 300 keys, two workers per stage.
SIZE = dict(
    scale="tiny",
    overrides={"tuples_per_interval": 5_000, "sim_intervals": 5, "num_keys": 300},
    parallelism=2,
)

#: ``service_time_us`` of a paced leg (the bench default) and of an unpaced one.
PACED = 50.0
UNPACED = 0.0


@pytest.fixture(scope="module")
def bench():
    """``bench(workload, service_time_us, strategies=None, **spec_fields)``:
    the ``{strategy: TopologyResult}`` of one sanitized bench, run once per
    module because the uninjected chain runs are also the reference of the
    injected ones."""

    @functools.lru_cache(maxsize=None)
    def run(workload, service_time_us, strategies=None, **spec_fields):
        spec = RuntimeSpec(
            workload=workload,
            strategies=strategies,
            service_time_us=service_time_us,
            sanitize=True,
            **SIZE,
            **spec_fields,
        )
        return run_bench(spec)[1]

    return run


def _assert_clean_and_balanced(outcome):
    assert outcome.sanitizer["violations"] == []
    assert sum(outcome.sanitizer["checks"].values()) > 0
    for name, stage in outcome.stages.items():
        assert all(count > 0 for count in stage.messages.values()), name
        # Every tuple the router accounted as offered reached a worker queue
        # or was shed: a recovery replays past the router, it does not resend.
        assert (
            stage.messages["tuples_to_workers"]
            == stage.tuples_offered - stage.tuples_shed
        ), name


def _assert_processed_like(outcome, uninjected):
    assert {name: stage.tuples_processed for name, stage in outcome.stages.items()} == {
        name: stage.tuples_processed for name, stage in uninjected.stages.items()
    }


@pytest.mark.parametrize(
    "workload, service_time_us, merges",
    [
        ("tpch_q5_chain", PACED, False),
        ("tpch_q5_chain", UNPACED, True),
        ("diamond", PACED, False),
        ("diamond", UNPACED, True),
        ("wordcount", PACED, False),
        # One stage fed by full source batches: nothing to merge.
        ("wordcount", UNPACED, False),
    ],
)
def test_sanitized_workload_is_clean_and_balanced(
    bench, workload, service_time_us, merges
):
    outcomes = bench(workload, service_time_us)
    for outcome in outcomes.values():
        _assert_clean_and_balanced(outcome)
        if merges:
            assert any(
                stage.messages["chunks"] < stage.messages["ingress"]
                for stage in outcome.stages.values()
            )


@pytest.mark.parametrize(
    "kill, service_time_us",
    [
        ("revenue-agg:0@3", PACED),
        # Unpaced, revenue-agg's retention log holds merged batches.
        ("revenue-agg:0@3", UNPACED),
        # List payloads the task grows in place, checkpointed every interval.
        ("customer-join:0@3", UNPACED),
        ("order-join:0@3", PACED),
        ("customer-join:0@3", PACED),
    ],
)
def test_killed_worker_recovers_to_the_uninjected_counts(
    bench, kill, service_time_us
):
    outcome = bench(
        "tpch_q5_chain", service_time_us, ("storm",), kill_worker=kill
    )["storm"]
    _assert_clean_and_balanced(outcome)
    _assert_processed_like(outcome, bench("tpch_q5_chain", service_time_us)["storm"])
    directive = parse_kill_spec(kill)
    [incident] = outcome.resilience["incidents"]
    assert (incident["stage"], incident["task"], incident["interval"]) == (
        directive.stage,
        directive.task,
        directive.interval,
    )
    assert incident["recovery_pause_seconds"] > 0
    assert outcome.resilience["checkpoints"]["bytes_written"] > 0


@pytest.mark.parametrize("scale_at", ["2:order-join:+1", "2:order-join:-1"])
def test_resized_stage_keeps_the_uninjected_counts(bench, scale_at):
    outcome = bench("tpch_q5_chain", PACED, ("storm",), scale_at=scale_at)["storm"]
    _assert_clean_and_balanced(outcome)
    _assert_processed_like(outcome, bench("tpch_q5_chain", PACED)["storm"])
    directive = parse_scale_spec(scale_at)
    [event] = outcome.resilience["scale_events"]
    assert (event["stage"], event["interval"], event["delta"]) == (
        directive.stage,
        directive.interval,
        directive.delta,
    )
    assert event["to_tasks"] == event["from_tasks"] + directive.delta
