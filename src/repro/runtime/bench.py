"""Wall-clock benchmarking of partitioning strategies on the process runtime.

A :class:`RuntimeSpec` is the runtime twin of
:class:`~repro.experiments.specs.ExperimentSpec`: it picks a workload, a
strategy list, a parallelism and a scale preset, and :func:`run_bench`
executes each strategy on the *same* materialised tuple stream.  The outcome
is an :class:`~repro.experiments.specs.ExperimentRun` whose rows carry
**measured** tuples/sec and p50/p99 latency per strategy (``engine:
"process"`` in the metadata), persisted through the ordinary
:class:`~repro.experiments.store.ResultsStore`.

Every workload is an entry of :data:`BENCH_TOPOLOGY_WORKLOADS` — a stream
builder plus a topology factory — and runs through a
:class:`~repro.runtime.topology.TopologyRuntime` process pipeline with
bounded inter-stage queues, per-stage rebalancing controllers and one
open-loop source; every run carries one ``chain`` row plus one row per
stage:

* ``wordcount`` / ``windowed_aggregate`` / ``tpch_q5`` are **one-stage**
  topologies (one operator behind one router) over the repo's snapshot
  generators expanded into shuffled per-interval tuple lists.
* ``tpch_q5_chain`` / ``tpch_q5_trace`` run the full continuous Q5 chain —
  order-join → customer-join → revenue-agg — reproducing the paper's
  Fig. 16 chained-starvation experiment on measured wall clock
  (``tpch_q5_chain`` streams synthetic Zipf-skewed arrivals;
  ``tpch_q5_trace`` replays the generated lineitem table).
* ``diamond`` runs the split-key fan-out/fan-in DAG of the PKG execution
  mode — source → split-agg ×2 → merge — where the merge stage closes its
  intervals on marks from *both* branches and recombines each key's tagged
  partial aggregates; its default strategy set adds ``pkg`` so the report
  shows key splitting (PKG) against key-contiguous hashing (storm) and the
  paper's mixed routing side by side.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.baselines.base import Partitioner
from repro.core.strategy import get_strategy, has_strategy, strategy_names
from repro.engine.operator import OperatorLogic
from repro.engine.topology import StageSpec, TopologySpec
from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.reporting import ExperimentResult
from repro.experiments.specs import ExperimentRun, ExperimentSpec, RunMetadata, git_revision
from repro.operators.tpch_q5 import Q5Stage, build_q5_topology
from repro.operators.windowed_aggregate import (
    MergeOperator,
    PartialWindowedAggregate,
    WindowedAggregate,
)
from repro.operators.wordcount import WordCountOperator
from repro.runtime.config import RuntimeConfig
from repro.runtime.resilience.scaling import parse_scale_spec
from repro.runtime.resilience.supervisor import parse_kill_spec
from repro.runtime.result import TopologyResult
from repro.runtime.topology import TopologyRuntime
from repro.workloads.tpch import (
    TPCHDataset,
    draw_lineitem_revenue,
    TPCHLineitemTrace,
    TPCHStreamWorkload,
    generate_tpch,
)
from repro.workloads.zipf import ZipfWorkload

__all__ = [
    "BENCH_TOPOLOGY_WORKLOADS",
    "TopologyBenchWorkload",
    "RuntimeSpec",
    "merged_sanitizer_report",
    "run_bench",
]

Key = Hashable

#: Scale-field defaults of the bench stream, merged under any user overrides.
#: The planner-sweep presets default to ``f = 1.0`` (full per-interval
#: redistribution), where every strategy's plan is one interval stale and the
#: imbalance hops between tasks faster than queues drain — wall-clock
#: differences wash out.  The bench instead defaults to the *sustained-skew,
#: slow-drift* regime of the paper's real datasets ("the word frequency in
#: Social data usually changes slowly"), where rebalancing visibly pays;
#: ``--set skew=…`` / ``--set fluctuation=…`` restore any other regime.
BENCH_DEFAULT_OVERRIDES: Mapping[str, Any] = {"skew": 1.2, "fluctuation": 0.2}


@dataclass(frozen=True)
class RuntimeSpec:
    """Declarative description of one process-runtime benchmark.

    Attributes
    ----------
    workload:
        A :data:`BENCH_TOPOLOGY_WORKLOADS` name (``wordcount``,
        ``windowed_aggregate``, ``tpch_q5``, ``tpch_q5_chain``,
        ``tpch_q5_trace``, ``diamond``).
    strategies:
        Strategy labels from the registry, each run on the same stream;
        ``None`` resolves to the workload's ``default_strategies``.  The
        strategy under test routes the stages under study (the Q5 joins,
        the diamond's branches); helper stages keep plain hashing.
    parallelism:
        Worker processes per stage (= operator task instances).
    stage_parallelism:
        Per-stage overrides, ``{stage name: worker count}``.
    scale:
        Scale preset name or explicit :class:`ExperimentScale`; sets the key
        domain, tuples per interval, interval count and strategy tunables.
    overrides:
        :class:`ExperimentScale` field overrides (e.g. ``{"skew": 1.2}``);
        merged over :data:`BENCH_DEFAULT_OVERRIDES` (the bench's
        sustained-skew, slow-drift stream regime).
    seed:
        Master RNG seed (stream generation and hash seeds).
    service_time_us:
        Emulated per-cost-unit service time of each worker (pacing).
    calibrate_pacing:
        Ignore ``service_time_us`` and calibrate the pacing per stage from
        the first measured interval, so the bench stays saturated across
        machines of different speed.
    offered_rate:
        Open-loop source rate in tuples/second (``None`` = closed-loop
        drain, the saturated-throughput setup).
    rate_sweep:
        Ascending list of open-loop offered rates (tuples/second).  When
        set, every strategy runs once **per rate** on the same stream and
        the report carries one row per ``(strategy, rate)`` — the measured
        latency/throughput knee of the paper's Fig. 13, swept toward
        saturation instead of sampled at a single ``offered_rate``.
    batch_size / queue_capacity:
        Queueing knobs, see :class:`~repro.runtime.config.RuntimeConfig`.
    sanitize:
        Run every strategy under the runtime protocol sanitizer
        (:mod:`repro.runtime.sanitizer`); see
        :func:`merged_sanitizer_report`.
    kill_worker:
        Fault-injection spec ``STAGE:TASK@INTERVAL``: SIGKILL that worker
        the first time its stage handles the interval.  Requires
        checkpointing; a run-scoped temporary checkpoint root is created
        (and removed) when ``checkpoint_dir`` is unset.
    scale_at:
        Elasticity spec ``INTERVAL:STAGE:±N``: grow/shrink the stage's
        process group at that interval boundary via live key migration.
    checkpoint_dir:
        Checkpoint root; enables periodic per-task KeyedState checkpoints
        and supervised worker recovery.  Each strategy run writes under
        its own subdirectory so runs never restore each other's state.
    checkpoint_every:
        Checkpoint at every N-th interval boundary (default 1).
    """

    workload: str = "wordcount"
    strategies: Optional[Sequence[str]] = None
    parallelism: int = 4
    scale: Union[str, ExperimentScale] = "tiny"
    overrides: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    service_time_us: float = 50.0
    batch_size: int = 256
    queue_capacity: int = 8
    stage_parallelism: Mapping[str, int] = field(default_factory=dict)
    calibrate_pacing: bool = False
    offered_rate: Optional[float] = None
    rate_sweep: Optional[Sequence[float]] = None
    sanitize: bool = False
    kill_worker: Optional[str] = None
    scale_at: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 1

    def __post_init__(self) -> None:
        workload = BENCH_TOPOLOGY_WORKLOADS.get(self.workload)
        if workload is None:
            raise KeyError(
                f"unknown bench workload {self.workload!r}; known: "
                f"{sorted(BENCH_TOPOLOGY_WORKLOADS)}"
            )
        if self.parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if self.offered_rate is not None and self.offered_rate <= 0:
            raise ValueError("offered_rate must be positive (or None)")
        if self.rate_sweep is not None:
            rates = [float(rate) for rate in self.rate_sweep]
            if len(rates) < 2:
                # A one-point "sweep" has no knee; the CLI requires >= 2 too.
                raise ValueError("rate_sweep needs at least two rates")
            if any(rate <= 0 for rate in rates):
                raise ValueError("rate_sweep rates must be positive")
            if any(b <= a for a, b in zip(rates, rates[1:])):
                raise ValueError("rate_sweep rates must be strictly ascending")
            if self.offered_rate is not None:
                raise ValueError(
                    "offered_rate and rate_sweep are mutually exclusive"
                )
            object.__setattr__(self, "rate_sweep", rates)
        object.__setattr__(
            self,
            "strategies",
            list(
                workload.default_strategies
                if self.strategies is None
                else self.strategies
            ),
        )
        # Fail fast on typos: a bad strategy, stage or scale must not surface
        # as a crash after earlier strategies already ran for minutes.
        for name in self.strategies:
            if not has_strategy(name):
                raise KeyError(
                    f"unknown strategy {name!r}; known: {strategy_names()}"
                )

        def known_stage(stage: str, where: str) -> None:
            if stage not in workload.stages:
                raise KeyError(
                    f"unknown stage {stage!r} {where} {self.workload!r}; "
                    f"stages: {list(workload.stages)}"
                )

        object.__setattr__(
            self, "stage_parallelism", dict(self.stage_parallelism)
        )
        for stage, count in self.stage_parallelism.items():
            known_stage(stage, "for")
            if not isinstance(count, int) or count <= 0:
                raise ValueError(
                    f"stage parallelism for {stage!r} must be a positive "
                    f"integer, got {count!r}"
                )
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        # Parse the directives once: the fields keep the canonical strings
        # (the stored spec round-trips byte for byte), the parsed directives
        # are what :meth:`runtime_config` hands to the runtime.
        directives: Dict[str, Any] = {}
        if self.kill_worker is not None:
            directives["kill_worker"] = parse_kill_spec(self.kill_worker)
        if self.scale_at is not None:
            directives["scale_at"] = parse_scale_spec(self.scale_at)
        for name, directive in directives.items():
            known_stage(directive.stage, f"in {name} spec for")
            object.__setattr__(self, name, directive.spec())
        object.__setattr__(self, "_directives", directives)
        self.resolve_scale()  # raises on an unknown preset or override field
        object.__setattr__(
            self,
            "overrides",
            {**BENCH_DEFAULT_OVERRIDES, **dict(self.overrides)},
        )

    def resolve_scale(self) -> ExperimentScale:
        """The effective scale: preset plus overrides.

        ``num_tasks`` is pinned to the bench parallelism: the Zipf
        generator of the one-stage workloads swaps load between that many
        reference tasks.
        """
        return get_scale(self.scale).scaled(
            **{**self.overrides, "num_tasks": self.parallelism}
        )

    def scale_label(self) -> str:
        return self.scale if isinstance(self.scale, str) else self.scale.name

    def runtime_config(self, **overrides: Any) -> RuntimeConfig:
        """The fields this spec shares with :class:`RuntimeConfig`.

        ``checkpoint_dir`` is the spec's checkpoint *root*; :func:`run_bench`
        overrides it with one subdirectory per strategy run.
        """
        shared = {f.name for f in dataclasses.fields(RuntimeConfig)}
        params: Dict[str, Any] = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
            if f.name in shared
        }
        params.update(self._directives)  # parsed in __post_init__
        params.update(overrides)  # e.g. per-rate configs of a rate sweep
        return RuntimeConfig(**params)

    # -- (de)serialisation ---------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (one key per field, in field order)."""
        return json.loads(json.dumps(dataclasses.asdict(self)))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RuntimeSpec":
        """Inverse of :meth:`to_dict`; unknown keys are ignored."""
        known = {f.name for f in dataclasses.fields(cls)}
        params = {key: value for key, value in payload.items() if key in known}
        if isinstance(params.get("scale"), Mapping):
            params["scale"] = ExperimentScale(**params["scale"])
        return cls(**params)


# -- workload adapters -------------------------------------------------------------


def _expand_snapshots(
    snapshots: Sequence[Mapping[Key, float]],
    rng: np.random.Generator,
    value: Any = None,
    value_fn: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None,
) -> List[List[Tuple[Key, Any]]]:
    """Expand ``{key: count}`` snapshots into shuffled per-interval tuple lists.

    ``value_fn(rng, count)`` samples one value per tuple (e.g. lineitem
    revenue); without it every tuple carries the constant ``value``.
    """
    stream: List[List[Tuple[Key, Any]]] = []
    for snapshot in snapshots:
        keys = np.array(list(snapshot.keys()), dtype=object)
        counts = np.array([int(round(count)) for count in snapshot.values()])
        expanded = np.repeat(keys, counts)
        rng.shuffle(expanded)
        if value_fn is not None:
            values = value_fn(rng, expanded.size)
            stream.append(
                [
                    (key, float(sample))
                    for key, sample in zip(expanded.tolist(), values)
                ]
            )
        else:
            stream.append([(key, value) for key in expanded.tolist()])
    return stream


def _zipf_stream(
    scale: ExperimentScale, seed: int, *, num_tasks: int, value: Any = None
) -> List[List[Tuple[Key, Any]]]:
    """Zipf-skewed arrivals with drift, every tuple carrying ``value``."""
    workload = ZipfWorkload(
        num_keys=scale.num_keys,
        skew=scale.skew,
        tuples_per_interval=scale.tuples_per_interval,
        fluctuation=scale.fluctuation,
        num_tasks=num_tasks,
        intervals=scale.sim_intervals,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    return _expand_snapshots(workload.take(scale.sim_intervals), rng, value=value)


# -- bench workloads ---------------------------------------------------------------

#: Builds a registry strategy for one stage: ``(strategy name, parallelism)``.
StrategyBuilder = Callable[[str, int], Partitioner]

#: Strategies compared when neither the spec nor the workload names any.
DEFAULT_STRATEGIES: Tuple[str, ...] = ("storm", "mixed")

#: The three stages of the continuous Q5 chain, in pipeline order.
Q5_CHAIN_STAGES: Tuple[str, ...] = dataclasses.astuple(Q5Stage())

#: The revenue aggregation re-keys to the 25-nation domain; plain hashing is
#: the natural choice there (the paper studies the skewed join stages).
Q5_AGG_STRATEGY = "storm"


@dataclass(frozen=True)
class TopologyBenchWorkload:
    """A bench workload: a stream plus a topology factory.

    ``build_stream(scale, seed)`` materialises the per-interval tuple lists
    once (shared across all strategies of a bench run);
    ``build_topology(scale, spec, strategy, build)`` assembles the
    :class:`~repro.engine.topology.TopologySpec` with ``strategy`` routing
    the stages under study (``build`` constructs a registry strategy for a
    given stage parallelism).  ``default_strategies`` is the comparison set
    when the user names none — the diamond adds ``pkg``, since key splitting
    is the very thing its topology exercises.
    """

    stages: Tuple[str, ...]
    build_stream: Callable[[ExperimentScale, int], List[List[Tuple[Key, Any]]]]
    build_topology: Callable[
        [ExperimentScale, "RuntimeSpec", str, StrategyBuilder], TopologySpec
    ]
    default_strategies: Tuple[str, ...] = DEFAULT_STRATEGIES


def _one_stage_workload(
    name: str,
    build_stream: Callable[[ExperimentScale, int], List[List[Tuple[Key, Any]]]],
    build_logic: Callable[[ExperimentScale], OperatorLogic],
) -> TopologyBenchWorkload:
    """One operator behind one router: a topology whose only stage is ``name``."""

    def build_topology(
        scale: ExperimentScale,
        spec: "RuntimeSpec",
        strategy: str,
        build: StrategyBuilder,
    ) -> TopologySpec:
        parallelism = spec.stage_parallelism.get(name, spec.parallelism)
        stage = StageSpec(
            name=name,
            logic=build_logic(scale),
            partitioner=build(strategy, parallelism),
        )
        return TopologySpec(name, [stage])

    return TopologyBenchWorkload(
        stages=(name,), build_stream=build_stream, build_topology=build_topology
    )


def _wordcount_stream(
    scale: ExperimentScale, seed: int
) -> List[List[Tuple[Key, Any]]]:
    # RuntimeSpec.resolve_scale pins scale.num_tasks to the bench parallelism.
    return _zipf_stream(scale, seed, num_tasks=scale.num_tasks)


def _windowed_aggregate_stream(
    scale: ExperimentScale, seed: int
) -> List[List[Tuple[Key, Any]]]:
    return _zipf_stream(scale, seed, num_tasks=scale.num_tasks, value=1.0)


def _tpch_q5_stream(
    scale: ExperimentScale, seed: int
) -> List[List[Tuple[Key, Any]]]:
    """The Q5 stage-1 stream: lineitems keyed by (Zipf-skewed) order key.

    The operator under study is the windowed per-order-key state of the first
    join stage — the stage whose imbalance the Fig. 16 experiment measures;
    ``tpch_q5_chain`` runs the downstream joins too.
    """
    dataset = _q5_dataset(scale, seed)
    workload = TPCHStreamWorkload(
        dataset,
        tuples_per_interval=scale.tuples_per_interval,
        intervals=scale.sim_intervals,
        change_every=max(2, scale.sim_intervals // 3),
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    return _expand_snapshots(workload.take(scale.sim_intervals), rng, value=1.0)


@functools.lru_cache(maxsize=4)
def _q5_dataset_cached(tpch_scale: float, seed: int) -> TPCHDataset:
    return generate_tpch(scale=tpch_scale, seed=seed)


def _q5_dataset(scale: ExperimentScale, seed: int) -> TPCHDataset:
    # Cached: one bench run needs the identical dataset for the stream and
    # for every strategy's topology (paper scale regenerates ~6M lineitems).
    return _q5_dataset_cached(max(0.001, scale.num_keys / 1_500_000), seed)


def _q5_chain_stream(
    scale: ExperimentScale, seed: int
) -> List[List[Tuple[Key, Any]]]:
    """Synthetic Q5 arrivals: Zipf-skewed order keys carrying revenue values.

    The stream regime mirrors Fig. 16: sustained foreign-key skew with a
    periodic partial rotation of the hot order set (the "triggered
    distribution change"), gentle enough that rebalancing pays.
    """
    dataset = _q5_dataset(scale, seed)
    workload = TPCHStreamWorkload(
        dataset,
        tuples_per_interval=scale.tuples_per_interval,
        skew=scale.skew,
        change_every=max(4, scale.sim_intervals // 2),
        change_fraction=0.25,
        intervals=scale.sim_intervals,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    return _expand_snapshots(
        workload.take(scale.sim_intervals), rng, value_fn=draw_lineitem_revenue
    )


def _q5_trace_stream(
    scale: ExperimentScale, seed: int
) -> List[List[Tuple[Key, Any]]]:
    """Replayed-trace variant: the generated lineitem rows in arrival order."""
    dataset = _q5_dataset(scale, seed)
    trace = TPCHLineitemTrace(
        dataset,
        tuples_per_interval=scale.tuples_per_interval,
        intervals=scale.sim_intervals,
    )
    return trace.take()


def _q5_chain_topology(
    scale: ExperimentScale,
    spec: "RuntimeSpec",
    strategy: str,
    build: StrategyBuilder,
) -> TopologySpec:
    """The shared Q5 chain (:func:`build_q5_topology`) under bench settings.

    The two join stages get the strategy under test (they carry the
    foreign-key skew); the revenue aggregation keeps plain hashing over its
    25-nation key domain; ``--stage-parallelism`` overrides apply per stage.
    """

    def partitioner(stage: str, parallelism: int) -> Partitioner:
        return build(
            Q5_AGG_STRATEGY if stage == Q5Stage.REVENUE_AGG else strategy,
            spec.stage_parallelism.get(stage, parallelism),
        )

    # Per-tuple costs make the customer-join the service bottleneck: the
    # order→customer re-keying compounds the foreign-key Zipf skew (many hot
    # orders map to few hot customers), so that stage carries the strongest
    # sustained imbalance — the chain's wall clock is then driven by the
    # stage whose imbalance the experiment studies, its starvation
    # propagating both upstream (backpressure) and downstream (staleness).
    return build_q5_topology(
        _q5_dataset(scale, spec.seed),
        partitioner,
        parallelism=spec.parallelism,
        window=scale.window,
        stage_costs=(0.75, 1.5, 0.25),
    )


#: The diamond's stages: two split-aggregate branches fanning out from the
#: source, fanning back into one merge stage.
DIAMOND_STAGES: Tuple[str, ...] = ("split-agg-a", "split-agg-b", "merge")

#: Every partial of a key must meet at one merger task, so the merge stage
#: always routes by plain hashing regardless of the strategy under test.
DIAMOND_MERGE_STRATEGY = "storm"


def _diamond_stream(
    scale: ExperimentScale, seed: int
) -> List[List[Tuple[Key, Any]]]:
    """Zipf-skewed unit-value arrivals: a hot-key stream worth splitting."""
    return _zipf_stream(scale, seed, num_tasks=1, value=1.0)


def _diamond_topology(
    scale: ExperimentScale,
    spec: "RuntimeSpec",
    strategy: str,
    build: StrategyBuilder,
) -> TopologySpec:
    """Assemble source → split-agg ×2 → merge for the runtime.

    Both branch stages pin ``upstream=()`` to the source, which round-robins
    its chunks across them; each runs a :class:`PartialWindowedAggregate`
    under the strategy under test, tagging its partials with the branch name
    so the two branches' task ids cannot collide at the merger.  The merge
    stage fans in from both branches (interval k closes only once every
    producer of *both* marked it), re-keyed implicitly — partials keep their
    original key — and hashed key-contiguously so all of a key's partials
    meet at one task.
    """
    overrides = spec.stage_parallelism
    branch_a_p = overrides.get("split-agg-a", spec.parallelism)
    branch_b_p = overrides.get("split-agg-b", spec.parallelism)
    merge_p = overrides.get("merge", max(1, min(spec.parallelism, 4)))
    stages = [
        StageSpec(
            name="split-agg-a",
            logic=PartialWindowedAggregate(
                window=scale.window, source_tag="a"
            ),
            partitioner=build(strategy, branch_a_p),
            upstream=(),
        ),
        StageSpec(
            name="split-agg-b",
            logic=PartialWindowedAggregate(
                window=scale.window, source_tag="b"
            ),
            partitioner=build(strategy, branch_b_p),
            upstream=(),
        ),
        StageSpec(
            name="merge",
            logic=MergeOperator(window=scale.window, cost_per_partial=0.5),
            partitioner=build(DIAMOND_MERGE_STRATEGY, merge_p),
            upstream=("split-agg-a", "split-agg-b"),
        ),
    ]
    return TopologySpec("diamond", stages)


#: Every bench workload, run through :class:`TopologyRuntime`.
BENCH_TOPOLOGY_WORKLOADS: Dict[str, TopologyBenchWorkload] = {
    "wordcount": _one_stage_workload(
        "wordcount",
        _wordcount_stream,
        lambda scale: WordCountOperator(window=scale.window, emit_updates=False),
    ),
    "windowed_aggregate": _one_stage_workload(
        "windowed_aggregate",
        _windowed_aggregate_stream,
        lambda scale: WindowedAggregate(window=scale.window),
    ),
    "tpch_q5": _one_stage_workload(
        "tpch_q5",
        _tpch_q5_stream,
        lambda scale: WindowedAggregate(window=scale.window),
    ),
    "tpch_q5_chain": TopologyBenchWorkload(
        stages=Q5_CHAIN_STAGES,
        build_stream=_q5_chain_stream,
        build_topology=_q5_chain_topology,
    ),
    "tpch_q5_trace": TopologyBenchWorkload(
        stages=Q5_CHAIN_STAGES,
        build_stream=_q5_trace_stream,
        build_topology=_q5_chain_topology,
    ),
    "diamond": TopologyBenchWorkload(
        stages=DIAMOND_STAGES,
        build_stream=_diamond_stream,
        build_topology=_diamond_topology,
        default_strategies=("pkg", "storm", "mixed"),
    ),
}


# -- the bench runner --------------------------------------------------------------


def _rate_sweep_rows(
    name: str, swept: Mapping[float, TopologyResult]
) -> List[Dict[str, Any]]:
    """One ``chain`` row per offered rate (ascending): the saturation knee."""
    return [
        {
            "strategy": name,
            "offered_rate": rate,
            "stage": "chain",
            **swept[rate].summary(),
        }
        for rate in sorted(swept)
    ]


def _topology_rows(name: str, outcome: TopologyResult) -> List[Dict[str, Any]]:
    """One ``chain`` row (end-to-end) plus one row per stage."""
    chain: Dict[str, Any] = {"strategy": name, "stage": "chain"}
    chain.update(outcome.summary())
    chain["mean_skewness"] = max(
        (stage.metrics.mean_skewness for stage in outcome.stages.values()),
        default=0.0,
    )
    rows = [chain]
    for stage_name, stage in outcome.stages.items():
        row: Dict[str, Any] = {"strategy": name, "stage": stage_name}
        row.update(stage.summary())
        row["mean_skewness"] = stage.metrics.mean_skewness
        # DAG shape: ≥ 2 marks a fan-in consumer.
        row["upstreams"] = stage.upstreams
        if stage.split_stats is not None:
            row["split_keys"] = stage.split_stats["split_keys"]
            row["total_partials"] = stage.split_stats["total_partials"]
            row["max_partials_per_key"] = stage.split_stats[
                "max_partials_per_key"
            ]
        # Transport: ingress batches accepted, dispatch chunks they were
        # merged into, and the size of what the workers were sent.
        row["ingress_messages"] = stage.messages["ingress"]
        row["chunks"] = stage.messages["chunks"]
        row["worker_messages"] = stage.messages["to_workers"]
        row["tuples_per_worker_message"] = stage.tuples_per_worker_message
        rows.append(row)
    return rows


def run_bench(
    spec: RuntimeSpec,
    *,
    store: Optional[Any] = None,
    on_result: Optional[Callable[[str, TopologyResult], None]] = None,
) -> Tuple[ExperimentRun, Dict[str, Any]]:
    """Run every strategy of ``spec`` on the same stream; measure wall clock.

    Returns the persisted-shape :class:`ExperimentRun` (metadata tagged
    ``engine="process"``; one ``chain`` row plus one row per stage for every
    strategy) and the raw per-strategy outcomes — a
    :class:`~repro.runtime.result.TopologyResult`, or ``{rate: result}``
    under a rate sweep.  When ``store`` is given the run is saved with the
    per-stage :class:`~repro.engine.metrics.MetricsCollector` and latency
    histograms as artifacts.
    """
    scale = spec.resolve_scale()
    workload = BENCH_TOPOLOGY_WORKLOADS[spec.workload]

    # Resilience: every strategy run (and every rate of a sweep) checkpoints
    # under its own subdirectory, so no run can restore a sibling's state.
    # A kill without an explicit checkpoint root gets a temporary run-scoped
    # one, removed afterwards — the result carries the measured numbers.
    checkpoint_root = spec.checkpoint_dir
    temp_checkpoint_root: Optional[str] = None
    if checkpoint_root is None and spec.kill_worker is not None:
        temp_checkpoint_root = tempfile.mkdtemp(prefix="repro-checkpoints-")
        checkpoint_root = temp_checkpoint_root

    def strategy_config(name: str, tag: str = "", **overrides: Any) -> RuntimeConfig:
        if checkpoint_root is not None:
            subdir = f"{name}-{tag}" if tag else name
            overrides.setdefault(
                "checkpoint_dir", os.path.join(checkpoint_root, subdir)
            )
        return spec.runtime_config(**overrides)

    stream = workload.build_stream(scale, spec.seed)

    def build(strategy_name: str, parallelism: int) -> Partitioner:
        return get_strategy(strategy_name).build(
            parallelism, seed=spec.seed, **scale.tunables()
        )

    def run_strategy(name: str, config: RuntimeConfig) -> TopologyResult:
        """One fresh run: strategies are stateful, so rebuild every time."""
        topology = workload.build_topology(scale, spec, name, build)
        return TopologyRuntime(topology, config, label=name).run(stream)

    started = time.perf_counter()
    outcomes: Dict[str, Any] = {}
    try:
        for name in spec.strategies:
            if spec.rate_sweep:
                # Open-loop sweep toward saturation: one run per offered rate
                # on the same stream — the measured Fig. 13 knee.
                swept: Dict[float, TopologyResult] = {}
                for rate in spec.rate_sweep:
                    swept[rate] = run_strategy(
                        name,
                        strategy_config(name, f"{rate:g}", offered_rate=rate),
                    )
                    if on_result is not None:
                        on_result(f"{name}@{rate:g}/s", swept[rate])
                outcomes[name] = swept
            else:
                outcome = run_strategy(name, strategy_config(name))
                outcomes[name] = outcome
                if on_result is not None:
                    on_result(name, outcome)
    finally:
        if temp_checkpoint_root is not None:
            shutil.rmtree(temp_checkpoint_root, ignore_errors=True)
    wall_time = time.perf_counter() - started

    result = ExperimentResult(
        figure="bench",
        title=(
            f"process-runtime wall-clock benchmark — {spec.workload} "
            f"@ parallelism {spec.parallelism}"
        ),
        parameters={
            "workload": spec.workload,
            "parallelism": spec.parallelism,
            "scale": spec.scale_label(),
            "service_time_us": (
                "auto" if spec.calibrate_pacing else spec.service_time_us
            ),
            "intervals": scale.sim_intervals,
            "tuples_per_interval": scale.tuples_per_interval,
            "num_keys": scale.num_keys,
            "skew": scale.skew,
            "stages": ",".join(workload.stages),
            "offered_rate": spec.offered_rate or "closed-loop",
            **(
                {"rate_sweep": list(spec.rate_sweep)} if spec.rate_sweep else {}
            ),
            **({"kill_worker": spec.kill_worker} if spec.kill_worker else {}),
            **({"scale_at": spec.scale_at} if spec.scale_at else {}),
        },
        notes=(
            "measured on live worker processes (bounded queues, paced service); "
            "latency percentiles from merged per-worker histograms; chain rows "
            "report end-to-end (source-offer to final-stage) latency"
        ),
    )
    rows_of = _rate_sweep_rows if spec.rate_sweep else _topology_rows
    for name in spec.strategies:
        for row in rows_of(name, outcomes[name]):
            result.add_row(**row)

    from repro import __version__

    stamp = datetime.now(timezone.utc)
    metadata = RunMetadata(
        run_id=f"bench-{spec.workload}-{stamp.strftime('%Y%m%d-%H%M%S-%f')}-s{spec.seed}",
        experiment=f"bench_{spec.workload}",
        figure="bench",
        scale=spec.scale_label(),
        seed=spec.seed,
        wall_time_seconds=wall_time,
        created_at=stamp.isoformat(timespec="microseconds"),
        git_rev=git_revision(),
        repro_version=__version__,
        engine="process",
        host_cpu_count=os.cpu_count(),
    )
    # Reuse the ExperimentSpec envelope so the run persists/reloads through
    # the ordinary ResultsStore; the RuntimeSpec rides in params.
    envelope = ExperimentSpec(
        experiment=f"bench_{spec.workload}",
        scale=spec.scale_label() if isinstance(spec.scale, str) else spec.scale,
        seed=spec.seed,
        params={"runtime_spec": spec.to_dict()},
    )
    run = ExperimentRun(spec=envelope, result=result, metadata=metadata)

    if store is not None:
        artifacts: Dict[str, Any] = {}
        for name, outcome in outcomes.items():
            if isinstance(outcome, dict):  # rate sweep: {rate: outcome}
                artifacts[f"{name}.rate_sweep"] = [
                    {"offered_rate": rate, **outcome[rate].summary()}
                    for rate in sorted(outcome)
                ]
                continue
            for stage_name, stage in outcome.stages.items():
                artifacts[f"{name}.{stage_name}.metrics"] = stage.metrics
                artifacts[f"{name}.{stage_name}.latency"] = stage.latency
            artifacts[f"{name}.e2e_latency"] = outcome.e2e_latency
            artifacts[f"{name}.migrations"] = [
                report.to_dict() for report in outcome.migrations
            ]
        store.save(run, artifacts=artifacts)
    return run, outcomes


def merged_sanitizer_report(outcomes: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """Fold every run's sanitizer report into one dict (None = sanitizer off)."""
    runs = [
        run
        for outcome in outcomes.values()
        # A rate sweep's outcome is ``{rate: TopologyResult}``.
        for run in (outcome.values() if isinstance(outcome, dict) else [outcome])
    ]
    reports = [run.sanitizer for run in runs if run.sanitizer]
    if not reports:
        return None
    checks: Dict[str, int] = {}
    violations: List[Dict[str, Any]] = []
    for report in reports:
        for check, count in report.get("checks", {}).items():
            checks[check] = checks.get(check, 0) + count
        violations.extend(report.get("violations", []))
    return {
        "enabled": True,
        "ok": not violations,
        "checks": checks,
        "violations": violations,
    }

