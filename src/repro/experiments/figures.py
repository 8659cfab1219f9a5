"""One experiment per figure of the paper's evaluation and appendix (Figs. 7–21).

Every figure is registered with
:func:`~repro.experiments.specs.register_experiment` under its id
(``"fig07"`` … ``"fig21"``), so it can be run declaratively::

    from repro.experiments import ExperimentSpec, run
    outcome = run(ExperimentSpec("fig08", scale="tiny"))
    print(outcome.result.to_text())

or from the command line (``python -m repro run fig08 --scale tiny``).  The
builders lean on the shared sweep helpers in
:mod:`repro.experiments.sweeps`; each returns an
:class:`~repro.experiments.reporting.ExperimentResult` whose rows are the
data points of the corresponding figure.  Beside each builder,
:func:`~repro.experiments.specs.register_claim` writes the figure's expected
shape once, as checks on those rows (``CLAIMS.md`` lists them).  The
``scale`` preset (see :mod:`repro.experiments.config`) sizes the workloads —
"tiny" and "small" preserve the shape of the curves at laptop runtimes,
"paper" matches Tab. II.
"""

import math
from typing import Dict, List, Optional, Sequence

from repro.core.load import load_from_costs, max_skewness
from repro.core.strategy import get_strategy
from repro.experiments.config import ExperimentScale
from repro.experiments.harness import run_planner_sequence
from repro.experiments.reporting import ExperimentResult, mean
from repro.experiments.specs import register_claim, register_experiment
from repro.experiments.sweeps import (
    percentile_points,
    planner_sweep,
    simulate,
    zipf_workload,
)
from repro.operators import WindowedSelfJoin, WordCountOperator, build_q5_topology
from repro.workloads import (
    SocialFeedWorkload,
    StockExchangeWorkload,
    TPCHStreamWorkload,
    generate_tpch,
)

__all__: list = []  # the figures are reached through the experiment registry

_PERCENTILES = (20, 40, 60, 80, 100)


def _mean_where(result: ExperimentResult, column: str, **criteria) -> float:
    """Mean of ``column`` over the rows matching ``criteria`` (NaN, which no
    claim's comparison passes, when none match)."""
    return mean(row[column] for row in result.filter(**criteria))


# ---------------------------------------------------------------------------
# Fig. 7 — workload skewness of pure hashing
# ---------------------------------------------------------------------------


@register_experiment(
    "fig07",
    description="CDF of per-interval workload skewness under hash routing",
)
def _fig07(
    scale: ExperimentScale,
    *,
    task_counts: Sequence[int] = (5, 10, 20, 40),
    key_domains: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 7(a)/(b): CDF of per-interval workload skewness under hashing.

    (a) varies the number of task instances at the default key-domain size;
    (b) varies the key-domain size at the default task count.
    """
    if key_domains is None:
        key_domains = (
            max(scale.num_keys // 20, 100),
            max(scale.num_keys // 10, 200),
            scale.num_keys,
            scale.num_keys * 10,
        )
    result = ExperimentResult(
        figure="Fig. 7",
        title="Cumulative distribution of workload skewness under hash-based routing",
        parameters={"skew_z": scale.skew, "intervals": scale.intervals, "scale": scale.name},
    )

    def skew_samples(num_keys: int, num_tasks: int) -> List[float]:
        partitioner = get_strategy("storm").build(num_tasks, seed=seed)
        return [
            max_skewness(load_from_costs(snapshot, partitioner.route, num_tasks))
            for snapshot in zipf_workload(
                scale, num_keys=num_keys, num_tasks=num_tasks, fluctuation=0.5, seed=seed
            )
        ]

    for num_tasks in task_counts:
        samples = skew_samples(scale.num_keys, num_tasks)
        for percentile, skewness in percentile_points(samples, _PERCENTILES):
            result.add_row(
                panel="a",
                series=f"ND={num_tasks}",
                percentile=percentile,
                skewness=skewness,
            )
    for num_keys in key_domains:
        samples = skew_samples(num_keys, scale.num_tasks)
        for percentile, skewness in percentile_points(samples, _PERCENTILES):
            result.add_row(
                panel="b",
                series=f"K={num_keys}",
                percentile=percentile,
                skewness=skewness,
            )
    return result


def _fig07_extremes(result: ExperimentResult, panel: str) -> List[float]:
    """Mean skewness of the panel's series with the smallest and the largest
    swept value (``ND=5`` … ``ND=40``, ``K=100`` … ``K=20000``)."""
    series = {row["series"] for row in result.filter(panel=panel)}
    smallest, *_, largest = sorted(series, key=lambda name: int(name.split("=")[1]))
    return [_mean_where(result, "skewness", series=name) for name in (smallest, largest)]


@register_claim(
    "fig07", "skewness grows with N_D: (a)'s largest N_D has a higher mean than its smallest"
)
def _fig07_skew_grows_with_tasks(result: ExperimentResult) -> bool:
    fewest, most = _fig07_extremes(result, "a")
    return most > fewest


@register_claim(
    "fig07", "skewness shrinks as K grows: (b)'s smallest K has a higher mean than its largest"
)
def _fig07_skew_shrinks_with_keys(result: ExperimentResult) -> bool:
    smallest, largest = _fig07_extremes(result, "b")
    return smallest > largest


@register_claim("fig07", "every series is a CDF: skewness never falls as the percentile rises")
def _fig07_cdf_is_monotone(result: ExperimentResult) -> bool:
    for series in {row["series"] for row in result.rows}:
        rows = sorted(result.filter(series=series), key=lambda row: row["percentile"])
        values = [row["skewness"] for row in rows]
        if values != sorted(values):
            return False
    return True


# ---------------------------------------------------------------------------
# Figs. 8-10 — planner sweeps over N_D, theta_max and K (Mixed vs MinTable)
# ---------------------------------------------------------------------------


def _planner_metric_columns(run) -> Dict[str, float]:
    return {
        "avg_generation_time_ms": run.avg_generation_time * 1e3,
        "migration_cost_pct": run.avg_migration_fraction * 100,
        "avg_table_size": run.avg_table_size,
        "rebalances": run.rebalances,
    }


def _nd_theta_k_sweep(
    scale: ExperimentScale,
    result: ExperimentResult,
    *,
    strategies: Sequence[str],
    windows: Sequence[int],
    sweep_name: str,
    sweep_values: Sequence,
    seed: int = 0,
) -> ExperimentResult:
    """Shared Figs. 8–10 shape: ``num_tasks``, ``theta_max`` or ``num_keys``
    crossed with the window axis."""
    result.rows.extend(
        planner_sweep(
            scale,
            axes={sweep_name: sweep_values, "window": windows},
            algorithms=strategies,
            workload=lambda axis: zipf_workload(
                scale,
                num_keys=axis.get("num_keys"),
                num_tasks=axis.get("num_tasks"),
                seed=seed,
            ),
            # The key domain only shapes the workload; the other axes configure the strategy.
            varied=lambda axis: {
                name: value for name, value in axis.items() if name != "num_keys"
            },
            row=lambda run, axis: _planner_metric_columns(run),
            seed=seed,
        )
    )
    return result


@register_experiment(
    "fig08",
    description="plan-generation time and migration cost vs task instances N_D",
)
def _fig08(
    scale: ExperimentScale,
    *,
    task_counts: Sequence[int] = (5, 10, 20, 30, 40),
    windows: Sequence[int] = (1, 5),
    strategies: Sequence[str] = ("mixed", "mintable"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 8(a)/(b): plan-generation time and migration cost vs ``N_D``."""
    result = ExperimentResult(
        figure="Fig. 8",
        title="Scheduling efficiency and migration cost with varying number of task instances",
        parameters={"theta_max": scale.theta_max, "K": scale.num_keys, "scale": scale.name},
    )
    return _nd_theta_k_sweep(
        scale,
        result,
        strategies=strategies,
        windows=windows,
        sweep_name="num_tasks",
        sweep_values=task_counts,
        seed=seed,
    )


@register_claim(
    "fig08", "Mixed migrates no more than MinTable (mean migration cost over the sweep)"
)
def _fig08_mixed_below_mintable(result: ExperimentResult) -> bool:
    mixed, mintable = (
        _mean_where(result, "migration_cost_pct", algorithm=name) for name in ("mixed", "mintable")
    )
    return mixed <= mintable + 1e-9


@register_experiment(
    "fig09",
    description="plan-generation time and migration cost vs theta_max",
)
def _fig09(
    scale: ExperimentScale,
    *,
    thetas: Sequence[float] = (0.02, 0.05, 0.08, 0.11, 0.14, 0.2, 0.3, 0.5),
    windows: Sequence[int] = (1, 5),
    strategies: Sequence[str] = ("mixed", "mintable"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 9(a)/(b): plan-generation time and migration cost vs ``θ_max``."""
    result = ExperimentResult(
        figure="Fig. 9",
        title="Scheduling efficiency and migration cost with varying theta_max",
        parameters={"N_D": scale.num_tasks, "K": scale.num_keys, "scale": scale.name},
    )
    return _nd_theta_k_sweep(
        scale,
        result,
        strategies=strategies,
        windows=windows,
        sweep_name="theta_max",
        sweep_values=thetas,
        seed=seed,
    )


@register_claim(
    "fig09", "Mixed migrates no more at the loosest theta_max than at the tightest (mean cost)"
)
def _fig09_cost_falls_with_theta(result: ExperimentResult) -> bool:
    thetas = result.column("theta_max")
    loose, tight = (
        _mean_where(result, "migration_cost_pct", algorithm="mixed", theta_max=theta)
        for theta in (max(thetas), min(thetas))
    )
    return loose <= tight + 1e-9


@register_experiment(
    "fig10",
    description="plan-generation time and migration cost vs key-domain size K",
)
def _fig10(
    scale: ExperimentScale,
    *,
    key_domains: Optional[Sequence[int]] = None,
    windows: Sequence[int] = (1, 5),
    strategies: Sequence[str] = ("mixed", "mintable"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 10(a)/(b): plan-generation time and migration cost vs ``K``."""
    if key_domains is None:
        key_domains = (
            max(scale.num_keys // 20, 100),
            max(scale.num_keys // 10, 200),
            scale.num_keys,
            scale.num_keys * 10,
        )
    result = ExperimentResult(
        figure="Fig. 10",
        title="Scheduling efficiency and migration cost under different key-domain sizes",
        parameters={"N_D": scale.num_tasks, "theta_max": scale.theta_max, "scale": scale.name},
    )
    return _nd_theta_k_sweep(
        scale,
        result,
        strategies=strategies,
        windows=windows,
        sweep_name="num_keys",
        sweep_values=key_domains,
        seed=seed,
    )


@register_claim("fig10", "each of the four key domains has Mixed and MinTable rows")
def _fig10_both_algorithms_per_domain(result: ExperimentResult) -> bool:
    domains = set(result.column("num_keys"))
    pairs = {(row["num_keys"], row["algorithm"]) for row in result.rows}
    return len(domains) == 4 and pairs == {
        (domain, algorithm) for domain in domains for algorithm in ("mixed", "mintable")
    }


# ---------------------------------------------------------------------------
# Fig. 11 — compact representation / discretisation degree R
# ---------------------------------------------------------------------------


@register_experiment(
    "fig11",
    description="compact representation: planning time and estimation error vs R",
)
def _fig11(
    scale: ExperimentScale,
    *,
    degrees: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
    thetas: Sequence[float] = (0.0, 0.02, 0.08, 0.15),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 11(a)/(b): planning time and load-estimation error vs degree ``R``.

    Panel (a) includes the "original key space" point (no compaction) the paper
    contrasts against; panel (b) reports the load-estimation error for several
    ``θ_max`` values.
    """
    result = ExperimentResult(
        figure="Fig. 11",
        title="Compact representation: planning efficiency and load-estimation error vs R",
        parameters={"N_D": scale.num_tasks, "K": scale.num_keys, "scale": scale.name},
    )
    workload = zipf_workload(scale, seed=seed)

    def compact_run(degree: Optional[int], theta: float, force: bool = False):
        return run_planner_sequence(
            "compact",
            workload,
            num_tasks=scale.num_tasks,
            seed=seed,
            force_every_interval=force,
            **{**scale.tunables(), "theta_max": theta, "discretization_degree": degree},
        )

    # Panel (a): generation time vs R (plus the uncompacted baseline).
    for degree in (None, *degrees):
        run = compact_run(degree, scale.theta_max)
        result.add_row(
            panel="a",
            degree="original-key-space" if degree is None else degree,
            avg_generation_time_ms=run.avg_generation_time * 1e3,
            load_estimation_error_pct=run.avg_load_estimation_error * 100,
        )

    # Panel (b): estimation error vs R for several theta_max values.
    for theta in thetas:
        for degree in degrees:
            run = compact_run(degree, theta, force=True)
            result.add_row(
                panel="b",
                theta_max=theta,
                degree=degree,
                load_estimation_error_pct=run.avg_load_estimation_error * 100,
            )
    return result


@register_claim(
    "fig11", "(a) has the original-key-space point and one point per R, each timed above 0"
)
def _fig11_panel_a_series(result: ExperimentResult) -> bool:
    panel_a = result.filter(panel="a")
    baseline, *degrees = [row["degree"] for row in panel_a]
    return (
        baseline == "original-key-space"
        and sorted(degrees) == sorted(set(result.column("degree")) - {baseline, None})
        and all(row["avg_generation_time_ms"] > 0 for row in panel_a)
    )


@register_claim("fig11", "the error grows with R: (a)'s largest R errs at least as its smallest")
def _fig11_error_grows_with_degree(result: ExperimentResult) -> bool:
    _, *compacted = result.filter(panel="a")
    finest, *_, coarsest = sorted(compacted, key=lambda row: row["degree"])
    return coarsest["load_estimation_error_pct"] >= finest["load_estimation_error_pct"]


@register_claim("fig11", "at R = 8 the load-estimation error is below 5 % for every theta_max (b)")
def _fig11_error_small_at_r8(result: ExperimentResult) -> bool:
    errors = [row["load_estimation_error_pct"] for row in result.filter(panel="b", degree=8)]
    return bool(errors) and all(error < 5.0 for error in errors)


# ---------------------------------------------------------------------------
# Fig. 12 — planner comparison under varying fluctuation rate f
# ---------------------------------------------------------------------------


@register_experiment(
    "fig12",
    description="generation time and migration cost vs distribution fluctuation f",
)
def _fig12(
    scale: ExperimentScale,
    *,
    fluctuations: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    strategies: Sequence[str] = ("mixed", "mintable", "readj", "mixedbf"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 12(a)/(b): generation time and migration cost vs fluctuation ``f``."""
    result = ExperimentResult(
        figure="Fig. 12",
        title="Scheduling efficiency and migration cost with varying distribution change frequency",
        parameters={"theta_max": scale.theta_max, "K": scale.num_keys, "scale": scale.name},
    )
    result.rows.extend(
        planner_sweep(
            scale,
            axes={"fluctuation": fluctuations},
            algorithms=strategies,
            workload=lambda axis: zipf_workload(
                scale, fluctuation=axis["fluctuation"], seed=seed
            ),
            row=lambda run, axis: {
                "avg_generation_time_ms": run.avg_generation_time * 1e3,
                "migration_cost_pct": run.avg_migration_fraction * 100,
                "rebalances": run.rebalances,
            },
            seed=seed,
        )
    )
    return result


@register_claim("fig12", "Readj plans slower than Mixed (mean generation time over the sweep)")
def _fig12_readj_slower_than_mixed(result: ExperimentResult) -> bool:
    readj, mixed = (
        _mean_where(result, "avg_generation_time_ms", algorithm=name) for name in ("readj", "mixed")
    )
    return readj > mixed


# ---------------------------------------------------------------------------
# Fig. 13 — throughput and latency vs fluctuation rate (simulation)
# ---------------------------------------------------------------------------


@register_experiment(
    "fig13",
    description="simulated throughput and latency vs distribution fluctuation f",
)
def _fig13(
    scale: ExperimentScale,
    *,
    fluctuations: Sequence[float] = (0.1, 0.5, 0.9, 1.3, 1.7, 2.0),
    strategies: Sequence[str] = ("storm", "readj", "mixed", "ideal"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 13(a)/(b): simulated throughput and latency vs fluctuation ``f``."""
    result = ExperimentResult(
        figure="Fig. 13",
        title="Throughput and latency with varying distribution change frequency",
        parameters={"theta_max": scale.theta_max, "scale": scale.name},
    )
    for fluctuation in fluctuations:
        workload = zipf_workload(
            scale,
            fluctuation=fluctuation,
            intervals=scale.sim_intervals,
            seed=seed,
        )
        for strategy in strategies:
            collector = simulate(
                scale,
                strategy,
                workload,
                WordCountOperator(window=scale.window),
                seed=seed,
            )
            result.add_row(
                fluctuation=fluctuation,
                strategy=strategy,
                throughput=collector.mean_throughput,
                latency_ms=collector.mean_latency_ms,
                skewness=collector.mean_skewness,
            )
    return result


def _fig13_at_smallest_f(result: ExperimentResult) -> Dict[str, Dict]:
    smallest = min(result.column("fluctuation"))
    return {row["strategy"]: row for row in result.filter(fluctuation=smallest)}


@register_claim("fig13", "at the smallest f, throughput Ideal >= Mixed >= Storm (to 1e-6)")
def _fig13_throughput_order(result: ExperimentResult) -> bool:
    rows = _fig13_at_smallest_f(result)
    ideal, mixed, storm = (rows[name]["throughput"] for name in ("ideal", "mixed", "storm"))
    return ideal >= mixed - 1e-6 and mixed >= storm - 1e-6


@register_claim("fig13", "at the smallest f, Mixed's latency is no higher than Storm's")
def _fig13_latency_order(result: ExperimentResult) -> bool:
    rows = _fig13_at_smallest_f(result)
    return rows["mixed"]["latency_ms"] <= rows["storm"]["latency_ms"]


@register_claim("fig13", "at the smallest f, Ideal's skewness is 1 (relative 1e-6)")
def _fig13_ideal_is_balanced(result: ExperimentResult) -> bool:
    skewness = _fig13_at_smallest_f(result)["ideal"]["skewness"]
    return math.isclose(skewness, 1.0, rel_tol=1e-6, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Fig. 14 — throughput on the Social and Stock workloads vs theta_max
# ---------------------------------------------------------------------------


@register_experiment(
    "fig14",
    description="throughput on Social/Stock surrogate workloads vs theta_max",
)
def _fig14(
    scale: ExperimentScale,
    *,
    thetas: Sequence[float] = (0.02, 0.08, 0.15, 0.3),
    social_strategies: Sequence[str] = ("storm", "readj", "mixed", "pkg", "mintable"),
    stock_strategies: Sequence[str] = ("storm", "readj", "mixed", "mintable"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 14(a)/(b): throughput on Social (word count) and Stock (self-join)."""
    result = ExperimentResult(
        figure="Fig. 14",
        title="Throughput on real-world surrogate workloads vs theta_max",
        parameters={"N_D": scale.num_tasks, "scale": scale.name},
    )
    social = SocialFeedWorkload(
        num_words=scale.num_keys,
        tuples_per_interval=scale.tuples_per_interval,
        intervals=scale.sim_intervals,
        seed=seed,
    ).take(scale.sim_intervals)
    stock = StockExchangeWorkload(
        tuples_per_interval=scale.tuples_per_interval,
        intervals=scale.sim_intervals,
        seed=seed,
    ).take(scale.sim_intervals)

    for theta in thetas:
        for strategy in social_strategies:
            collector = simulate(
                scale,
                strategy,
                social,
                WordCountOperator(window=scale.window),
                theta_max=theta,
                seed=seed,
            )
            result.add_row(
                panel="a-social",
                theta_max=theta,
                strategy=strategy,
                throughput=collector.mean_throughput,
                latency_ms=collector.mean_latency_ms,
            )
        for strategy in stock_strategies:
            collector = simulate(
                scale,
                strategy,
                stock,
                WindowedSelfJoin(window=max(scale.window, 2)),
                theta_max=theta,
                window=max(scale.window, 2),
                seed=seed,
            )
            result.add_row(
                panel="b-stock",
                theta_max=theta,
                strategy=strategy,
                throughput=collector.mean_throughput,
                latency_ms=collector.mean_latency_ms,
            )
    return result


@register_claim("fig14", "on Social at theta_max = 0.08, Mixed's throughput is at least Storm's")
def _fig14_mixed_beats_storm_on_social(result: ExperimentResult) -> bool:
    rows = result.filter(panel="a-social", theta_max=0.08)
    throughput = {row["strategy"]: row["throughput"] for row in rows}
    return throughput["mixed"] >= throughput["storm"]


@register_claim("fig14", "the Stock panel runs Storm, Readj, Mixed and MinTable")
def _fig14_stock_strategies(result: ExperimentResult) -> bool:
    stock = {row["strategy"] for row in result.filter(panel="b-stock")}
    return stock == {"storm", "readj", "mixed", "mintable"}


# ---------------------------------------------------------------------------
# Fig. 15 — throughput over time during scale-out
# ---------------------------------------------------------------------------


@register_experiment(
    "fig15",
    description="throughput dynamics while one task instance is added",
)
def _fig15(
    scale: ExperimentScale,
    *,
    thetas: Sequence[float] = (0.1, 0.2),
    strategies: Sequence[str] = ("mixed", "readj", "pkg", "storm"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 15(a)/(b): throughput over time when one task instance is added."""
    intervals = max(scale.sim_intervals, 12)
    add_at = intervals // 3
    result = ExperimentResult(
        figure="Fig. 15",
        title="Throughput dynamics during system scale-out (one task added)",
        parameters={
            "N_D": scale.num_tasks,
            "added_at_interval": add_at,
            "scale": scale.name,
        },
    )
    social = SocialFeedWorkload(
        num_words=scale.num_keys,
        tuples_per_interval=scale.tuples_per_interval,
        intervals=intervals,
        seed=seed,
    ).take(intervals)
    stock = StockExchangeWorkload(
        tuples_per_interval=scale.tuples_per_interval,
        intervals=intervals,
        seed=seed,
    ).take(intervals)

    for panel, workload, logic, panel_strategies in (
        ("a-social", social, WordCountOperator(window=scale.window), strategies),
        (
            "b-stock",
            stock,
            WindowedSelfJoin(window=max(scale.window, 2)),
            tuple(s for s in strategies if s != "pkg"),
        ),
    ):
        for theta in thetas:
            for strategy in panel_strategies:
                if not get_strategy(strategy).theta_sensitive and theta != thetas[0]:
                    continue  # theta-insensitive strategies: one curve suffices
                collector = simulate(
                    scale,
                    strategy,
                    workload,
                    logic,
                    theta_max=theta,
                    window=logic.window,
                    seed=seed,
                    scale_out_at={add_at: scale.num_tasks + 1},
                )
                for record in collector:
                    result.add_row(
                        panel=panel,
                        theta_max=theta,
                        strategy=strategy,
                        interval=record.interval,
                        throughput=record.throughput,
                        rebalanced=record.rebalanced,
                    )
    return result


@register_claim(
    "fig15",
    "no lasting collapse: Mixed on Social (theta_max = 0.1) keeps >= 90 % of its mean "
    "throughput before the scale-out from two intervals after it",
)
def _fig15_mixed_recovers(result: ExperimentResult) -> bool:
    add_at = result.parameters["added_at_interval"]
    rows = result.filter(panel="a-social", strategy="mixed", theta_max=0.1)
    before = mean(row["throughput"] for row in rows if row["interval"] < add_at)
    after = mean(row["throughput"] for row in rows if row["interval"] > add_at + 1)
    return after >= before * 0.9


# ---------------------------------------------------------------------------
# Fig. 16 — continuous TPC-H Q5 throughput over time
# ---------------------------------------------------------------------------


@register_experiment(
    "fig16",
    description="continuous TPC-H Q5 pipeline throughput over time",
)
def _fig16(
    scale: ExperimentScale,
    *,
    thetas: Sequence[float] = (0.1, 0.2),
    strategies: Sequence[str] = ("mixed", "readj", "storm", "mintable"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 16(a)/(b): throughput of the continuous Q5 pipeline over time."""
    from repro.engine import PipelineSimulator, SimulationConfig

    intervals = max(scale.sim_intervals, 12)
    change_every = max(3, intervals // 4)
    dataset = generate_tpch(scale=0.002 if scale.name != "paper" else 0.05, seed=seed)
    workload = TPCHStreamWorkload(
        dataset,
        tuples_per_interval=scale.tuples_per_interval // 2,
        intervals=intervals,
        change_every=change_every,
        seed=seed,
    ).take(intervals)

    result = ExperimentResult(
        figure="Fig. 16",
        title="Dynamic adjustment on TPC-H data for continuous Q5",
        parameters={
            "z": 0.8,
            "window": 5,
            "change_every": change_every,
            "scale": scale.name,
        },
    )
    q5_window = 5
    for theta in thetas:
        for strategy in strategies:
            spec = get_strategy(strategy)

            def factory(stage_name: str, parallelism: int, _spec=spec, _theta=theta):
                return _spec.build(
                    parallelism,
                    seed=seed,
                    **{**scale.tunables(), "theta_max": _theta, "window": q5_window},
                )

            topology = build_q5_topology(
                dataset,
                factory,
                parallelism=scale.num_tasks,
                window=q5_window,
            )
            simulator = PipelineSimulator(
                topology, SimulationConfig(capacity_factor=1.1)
            )
            run = simulator.run(workload)
            for record in run.pipeline:
                result.add_row(
                    theta_max=theta,
                    strategy=strategy,
                    interval=record.interval,
                    throughput=record.throughput,
                    latency_ms=record.latency_ms,
                )
    return result


@register_claim("fig16", "at theta_max = 0.1, Mixed's mean throughput beats Storm's")
def _fig16_mixed_beats_storm(result: ExperimentResult) -> bool:
    mixed, storm = (
        _mean_where(result, "throughput", theta_max=0.1, strategy=name)
        for name in ("mixed", "storm")
    )
    return mixed > storm


# ---------------------------------------------------------------------------
# Figs. 17-21 — appendix parameter studies
# ---------------------------------------------------------------------------


@register_experiment(
    "fig17",
    description="migration cost of Mixed vs the routing-table cap N_A",
)
def _fig17(
    scale: ExperimentScale,
    *,
    cap_exponents: Sequence[int] = (1, 3, 5, 7, 9, 11, 13),
    thetas: Sequence[float] = (0.02, 0.08, 0.15, 0.3),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 17: Mixed's migration cost vs the routing table cap ``N_A = 2^i``."""
    result = ExperimentResult(
        figure="Fig. 17",
        title="Migration cost of Mixed under different routing-table caps",
        parameters={"K": scale.num_keys, "scale": scale.name},
    )
    workload = zipf_workload(scale, seed=seed)
    result.rows.extend(
        planner_sweep(
            scale,
            axes={"theta_max": thetas, "cap_exponent": cap_exponents},
            algorithms=("mixed",),
            include_algorithm=False,
            workload=lambda axis: workload,
            varied=lambda axis: {
                "theta_max": axis["theta_max"],
                "max_table_size": 2 ** axis["cap_exponent"],
            },
            row=lambda run, axis: {
                "table_cap": 2 ** axis["cap_exponent"],
                "migration_cost_pct": run.avg_migration_fraction * 100,
                "avg_table_size": run.avg_table_size,
            },
            seed=seed,
        )
    )
    return result


@register_claim(
    "fig17", "at theta_max = 0.08, a loose cap (2^11) migrates no more than a tight one (2^1)"
)
def _fig17_loose_cap_cheaper(result: ExperimentResult) -> bool:
    loose, tight = (
        _mean_where(result, "migration_cost_pct", theta_max=0.08, cap_exponent=exponent)
        for exponent in (11, 1)
    )
    return loose <= tight + 1e-9


@register_experiment(
    "fig18",
    description="routing-table growth of MinMig along successive adjustments",
)
def _fig18(
    scale: ExperimentScale,
    *,
    adjustments: Optional[int] = None,
    thetas: Sequence[float] = (0.02, 0.08, 0.15, 0.3),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 18: MinMig's routing-table size as adjustments accumulate."""
    adjustments = adjustments if adjustments is not None else max(scale.intervals, 12)
    result = ExperimentResult(
        figure="Fig. 18",
        title="Routing table growth of MinMig along successive adjustments",
        parameters={
            "K": scale.num_keys,
            "adjustments": adjustments,
            "convergence_bound": (scale.num_tasks - 1) / scale.num_tasks * scale.num_keys,
            "scale": scale.name,
        },
    )
    result.rows.extend(
        planner_sweep(
            scale,
            axes={"theta_max": thetas},
            algorithms=("minmig",),
            include_algorithm=False,
            workload=lambda axis: zipf_workload(scale, intervals=adjustments, seed=seed),
            # Unbounded table: the figure is about how far it grows.
            varied=lambda axis: {"theta_max": axis["theta_max"], "max_table_size": None},
            row=lambda run, axis: [
                {"adjustment": adjustment, "routing_table_size": size}
                for adjustment, size in enumerate(run.table_sizes, start=1)
            ],
            force_every_interval=True,
            seed=seed,
        )
    )
    return result


@register_claim(
    "fig18", "per theta_max, MinMig's table never shrinks and stays within (N_D-1)/N_D * K"
)
def _fig18_table_grows_within_bound(result: ExperimentResult) -> bool:
    bound = result.parameters["convergence_bound"]
    for theta in set(result.column("theta_max")):
        sizes = [row["routing_table_size"] for row in result.filter(theta_max=theta)]
        if sizes != sorted(sizes) or max(sizes) > bound:
            return False
    return True


@register_experiment(
    "fig19",
    description="migration cost vs state window size w",
)
def _fig19(
    scale: ExperimentScale,
    *,
    windows: Sequence[int] = (1, 3, 5, 7, 9, 11, 13, 15),
    strategies: Sequence[str] = ("mixed", "mintable"),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 19: migration cost vs state window size ``w`` (Mixed vs MinTable)."""
    result = ExperimentResult(
        figure="Fig. 19",
        title="Migration cost with varying window size",
        parameters={"theta_max": scale.theta_max, "K": scale.num_keys, "scale": scale.name},
    )
    result.rows.extend(
        planner_sweep(
            scale,
            axes={"window": windows},
            algorithms=strategies,
            workload=lambda axis: zipf_workload(
                scale, intervals=max(scale.intervals, axis["window"] + 3), seed=seed
            ),
            varied=lambda axis: {"window": axis["window"]},
            row=lambda run, axis: {
                "migration_cost_pct": run.avg_migration_fraction * 100
            },
            seed=seed,
        )
    )
    return result


@register_claim("fig19", "at every window w, Mixed migrates no more than MinTable")
def _fig19_mixed_below_mintable(result: ExperimentResult) -> bool:
    return all(
        _mean_where(result, "migration_cost_pct", window=window, algorithm="mixed")
        <= _mean_where(result, "migration_cost_pct", window=window, algorithm="mintable") + 1e-9
        for window in set(result.column("window"))
    )


def _beta_sweep(
    scale: ExperimentScale,
    betas: Sequence[float],
    thetas: Sequence[float],
    seed: int,
) -> List[Dict[str, float]]:
    """Shared Figs. 20/21 sweep: MinMig over β × θ_max, forced every interval."""
    workload = zipf_workload(scale, seed=seed)
    return planner_sweep(
        scale,
        axes={"theta_max": thetas, "beta": betas},
        algorithms=("minmig",),
        include_algorithm=False,
        workload=lambda axis: workload,
        # Unbounded table, as in Fig. 18: β's effect on its size is the subject.
        varied=lambda axis: {
            "theta_max": axis["theta_max"],
            "beta": axis["beta"],
            "max_table_size": None,
        },
        row=lambda run, axis: {
            "routing_table_size": run.avg_table_size,
            "migration_cost_pct": run.avg_migration_fraction * 100,
        },
        force_every_interval=True,
        seed=seed,
    )


@register_experiment(
    "fig20",
    description="MinMig routing-table size vs the gamma weight beta",
)
def _fig20(
    scale: ExperimentScale,
    *,
    betas: Sequence[float] = (1.0, 1.2, 1.4, 1.5, 1.6, 1.8, 2.0),
    thetas: Sequence[float] = (0.02, 0.08, 0.15, 0.3),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 20: routing-table size vs the γ weight β (MinMig)."""
    result = ExperimentResult(
        figure="Fig. 20",
        title="Routing table size for different beta",
        parameters={"K": scale.num_keys, "scale": scale.name},
    )
    for row in _beta_sweep(scale, betas, thetas, seed):
        result.add_row(
            theta_max=row["theta_max"],
            beta=row["beta"],
            routing_table_size=row["routing_table_size"],
        )
    return result


@register_claim("fig20", "at theta_max = 0.08, beta = 2.0 needs a table no larger than beta = 1.0")
def _fig20_larger_beta_smaller_table(result: ExperimentResult) -> bool:
    large, small = (
        _mean_where(result, "routing_table_size", theta_max=0.08, beta=beta) for beta in (2.0, 1.0)
    )
    return large <= small + 1e-9


@register_experiment(
    "fig21",
    description="MinMig migration cost vs the gamma weight beta",
)
def _fig21(
    scale: ExperimentScale,
    *,
    betas: Sequence[float] = (1.0, 1.2, 1.4, 1.5, 1.6, 1.8, 2.0),
    thetas: Sequence[float] = (0.02, 0.08, 0.15, 0.3),
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 21: migration cost vs the γ weight β (MinMig)."""
    result = ExperimentResult(
        figure="Fig. 21",
        title="Migration cost for different beta",
        parameters={"K": scale.num_keys, "scale": scale.name},
    )
    for row in _beta_sweep(scale, betas, thetas, seed):
        result.add_row(
            theta_max=row["theta_max"],
            beta=row["beta"],
            migration_cost_pct=row["migration_cost_pct"],
        )
    return result


@register_claim("fig21", "one row per (theta_max, beta) pair of the sweep")
def _fig21_one_row_per_pair(result: ExperimentResult) -> bool:
    pairs = {(row["theta_max"], row["beta"]) for row in result.rows}
    thetas, betas = set(result.column("theta_max")), set(result.column("beta"))
    return len(result) == len(pairs) == len(thetas) * len(betas)
