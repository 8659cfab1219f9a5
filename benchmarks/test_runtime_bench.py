"""Wall-clock process-runtime benchmark (`repro bench`): mixed beats storm.

Unlike the figure benchmarks (fluid model), this one spawns real worker
processes and measures tuples/sec and latency percentiles per strategy.
Marked ``slow`` (like every file in this directory); run with::

    REPRO_BENCH_SCALE=tiny pytest benchmarks/test_runtime_bench.py -s
"""

from repro.runtime.bench import RuntimeSpec, run_bench


def test_runtime_bench_wordcount(bench_scale):
    spec = RuntimeSpec(
        workload="wordcount",
        strategies=["storm", "mixed"],
        parallelism=4,
        scale=bench_scale,
    )
    run, outcomes = run_bench(spec)
    print()
    print(run.result.to_text())

    by_strategy = {
        row["strategy"]: row for row in run.result.rows if row["stage"] == "chain"
    }
    for row in by_strategy.values():
        assert row["tuples_per_second"] > 0
        assert row["latency_p99_ms"] >= row["latency_p50_ms"]
    # The headline claim: under a Zipf-skewed stream the mixed controller
    # sustains higher measured throughput than static hashing.
    assert (
        by_strategy["mixed"]["tuples_per_second"]
        > by_strategy["storm"]["tuples_per_second"]
    )
    assert outcomes["mixed"].final.moved_keys_total > 0


def test_runtime_bench_tpch_q5_chain(bench_scale):
    """The Fig. 16 experiment on the process topology: chained starvation.

    The skewed customer-join starves the whole order-join → customer-join →
    revenue-agg chain under static hashing; the mixed controller rebalances
    the join stages online and sustains higher measured end-to-end
    throughput.
    """
    spec = RuntimeSpec(
        workload="tpch_q5_chain",
        strategies=["storm", "mixed"],
        parallelism=2,
        scale=bench_scale,
    )
    run, outcomes = run_bench(spec)
    print()
    print(run.result.to_text())

    chain = {
        row["strategy"]: row
        for row in run.result.rows
        if row["stage"] == "chain"
    }
    for row in chain.values():
        assert row["tuples_per_second"] > 0
        assert row["latency_p99_ms"] >= row["latency_p50_ms"]
    # The Fig. 16 claim, measured end to end on the process chain.
    assert (
        chain["mixed"]["tuples_per_second"]
        > chain["storm"]["tuples_per_second"]
    )
    # The rebalancing happened in the join stages, where the skew lives.
    mixed = outcomes["mixed"]
    join_moves = sum(
        stage.moved_keys_total
        for name, stage in mixed.stages.items()
        if name != "revenue-agg"
    )
    assert join_moves > 0
