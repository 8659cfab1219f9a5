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
data points of the corresponding figure.  The ``scale`` preset (see
:mod:`repro.experiments.config`) sizes the workloads — "tiny" and "small"
preserve the shape of the curves at laptop runtimes, "paper" matches Tab. II.
"""

from typing import Dict, List, Optional, Sequence

from repro.core.load import load_from_costs, max_skewness
from repro.core.strategy import get_strategy
from repro.experiments.config import ExperimentScale
from repro.experiments.harness import run_planner_sequence
from repro.experiments.reporting import ExperimentResult
from repro.experiments.specs import register_experiment
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
    result.notes = (
        "Expected shape: skewness grows with the number of task instances and "
        "shrinks as the key domain grows."
    )
    return result


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
        notes=(
            "Expected shape: Mixed pays slightly more generation time than MinTable "
            "but much lower migration cost until the table cap forces it towards "
            "MinTable behaviour at large N_D."
        ),
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
        notes=(
            "Expected shape: both metrics shrink as theta_max is relaxed; MinTable "
            "pays roughly 3x Mixed's migration cost at tight theta_max."
        ),
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
        notes=(
            "Expected shape: generation time grows with K; Mixed's migration cost "
            "stays well below MinTable's across domain sizes."
        ),
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
        notes=(
            "Expected shape: generation time drops by roughly an order of magnitude "
            "from the original key space to moderate R; the estimation error grows "
            "with R but stays below 1%."
        ),
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
        notes=(
            "Expected shape: Readj and MixedBF generation times are orders of "
            "magnitude above Mixed/MinTable; Mixed's migration cost grows slowest "
            "with f."
        ),
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
        notes=(
            "Expected shape: Ideal bounds everything from above; Mixed stays close "
            "to Ideal while Readj and Storm degrade as f grows."
        ),
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
        notes=(
            "Expected shape: Mixed leads on both workloads (best at the tightest "
            "theta_max); PKG (Social only) is theta-insensitive but below Mixed; "
            "Readj only catches up under loose balance requirements; MinTable "
            "loses throughput to its migration volume."
        ),
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
        notes=(
            "Expected shape: Mixed re-balances onto the new instance within one "
            "planning round; Readj takes much longer; Storm never uses the new "
            "instance for existing keys."
        ),
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
        notes=(
            "Expected shape: Mixed recovers quickly after every triggered "
            "distribution change and sustains the best throughput; Storm has no "
            "balancing and stays lowest."
        ),
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
        notes=(
            "Expected shape: tight caps force Mixed to behave like MinTable "
            "(high migration cost); relaxing the cap past the needed size drops "
            "the cost sharply, earlier for looser theta_max."
        ),
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
        notes=(
            "Expected shape: the table grows fastest for the tightest theta_max and "
            "converges towards (N_D-1)/N_D * K entries because MinMig never cleans."
        ),
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
        notes=(
            "Expected shape: larger windows give Mixed more low-cost migration "
            "candidates, so its cost stays below MinTable's at every w."
        ),
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
        notes=(
            "Expected shape: larger beta prefers heavy keys, so fewer entries are "
            "needed; the size stabilises for beta in [1.5, 2.0]."
        ),
    )
    for row in _beta_sweep(scale, betas, thetas, seed):
        result.add_row(
            theta_max=row["theta_max"],
            beta=row["beta"],
            routing_table_size=row["routing_table_size"],
        )
    return result


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
        notes=(
            "Expected shape: migration cost grows with beta (heavier keys carry "
            "more state); tight theta_max pays more at every beta."
        ),
    )
    for row in _beta_sweep(scale, betas, thetas, seed):
        result.add_row(
            theta_max=row["theta_max"],
            beta=row["beta"],
            migration_cost_pct=row["migration_cost_pct"],
        )
    return result
