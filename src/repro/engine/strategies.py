"""Built-in strategy declarations for the :mod:`repro.core.strategy` registry.

One :class:`~repro.core.strategy.StrategySpec` per evaluation label.  The
static strategies (storm, ideal, pkg) are their own partitioner classes; every
rebalancing strategy is the one loop,
:class:`~repro.baselines.base.RebalancingPartitioner`, handed a different
planner: a core algorithm (mixed, mintable, minmig, mixedbf, simple), Mixed
over the compact representation, Readj's pairwise search or DKG's heavy-key
placement.  Importing this module populates the registry; the accessors in
:mod:`repro.core.strategy` do so lazily.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines import (
    DKGPlanner,
    HashPartitioner,
    PartialKeyGrouping,
    Partitioner,
    ReadjPlanner,
    RebalancingPartitioner,
    ShufflePartitioner,
)
from repro.core.compact import CompactMixedPlanner
from repro.core.criteria import DEFAULT_BETA
from repro.core.discretization import HLHEDiscretizer
from repro.core.planner import Planner, PlannerConfig, get_algorithm
from repro.core.strategy import register_strategy

__all__: list = []


@register_strategy(
    "storm",
    tunables=("seed",),
    description="static universal hashing (Storm's default field grouping)",
    theta_sensitive=False,
)
def _build_storm(num_tasks: int, *, seed: int = 0) -> Partitioner:
    return HashPartitioner(num_tasks, seed=seed)


@register_strategy(
    "ideal",
    description="shuffle grouping; the key-oblivious upper bound of Fig. 13",
    theta_sensitive=False,
)
def _build_ideal(num_tasks: int) -> Partitioner:
    return ShufflePartitioner(num_tasks)


@register_strategy(
    "pkg",
    tunables=("seed",),
    description="Partial Key Grouping (two-choice key splitting)",
    theta_sensitive=False,
)
def _build_pkg(num_tasks: int, *, seed: int = 0) -> Partitioner:
    return PartialKeyGrouping(num_tasks, seed=seed)


def _loop(num_tasks: int, planner: Planner, seed: int, **knobs) -> Partitioner:
    """The rebalance loop around ``planner``; ``knobs`` are :class:`PlannerConfig` fields."""
    return RebalancingPartitioner(num_tasks, planner, PlannerConfig(**knobs), seed=seed)


@register_strategy(
    "readj",
    tunables=("theta_max", "readj_sigma", "window", "seed"),
    description="Readj baseline (pairwise load re-adjustment)",
    rebalancing=True,
)
def _build_readj(
    num_tasks: int,
    *,
    theta_max: float = 0.08,
    readj_sigma: float = 2.0,
    window: int = 1,
    seed: int = 0,
) -> Partitioner:
    return _loop(
        num_tasks, ReadjPlanner(sigma=readj_sigma), seed, theta_max=theta_max, window=window
    )


@register_strategy(
    "dkg",
    tunables=("theta_max", "window", "seed"),
    description="DKG baseline (distribution-aware key grouping)",
    rebalancing=True,
)
def _build_dkg(
    num_tasks: int, *, theta_max: float = 0.08, window: int = 1, seed: int = 0
) -> Partitioner:
    return _loop(num_tasks, DKGPlanner(), seed, theta_max=theta_max, window=window)


def _algorithm_builder(algorithm: str):
    def build(
        num_tasks: int,
        *,
        theta_max: float = 0.08,
        max_table_size: Optional[int] = None,
        beta: float = DEFAULT_BETA,
        window: int = 1,
        seed: int = 0,
    ) -> Partitioner:
        return _loop(
            num_tasks,
            get_algorithm(algorithm),
            seed,
            theta_max=theta_max,
            max_table_size=max_table_size,
            beta=beta,
            window=window,
        )

    return build


_ALGORITHM_DESCRIPTIONS = {
    "mixed": "the paper's Mixed algorithm (incremental cleaning, γ-ranked migration)",
    "mintable": "MinTable (smallest routing table)",
    "minmig": "MinMig (no cleaning, minimum migration)",
    "mixedbf": "brute-force Mixed (exhaustive cleaning trials)",
    "simple": "single-criterion simple rebalancer",
}

for _algorithm, _description in _ALGORITHM_DESCRIPTIONS.items():
    register_strategy(
        _algorithm,
        tunables=("theta_max", "max_table_size", "beta", "window", "seed"),
        description=_description,
        core_algorithm=_algorithm,
        rebalancing=True,
    )(_algorithm_builder(_algorithm))


@register_strategy(
    "compact",
    tunables=(
        "theta_max",
        "max_table_size",
        "beta",
        "window",
        "seed",
        "discretization_degree",
    ),
    description="Mixed planned over the compact 6-dimensional representation",
    rebalancing=True,
)
def _build_compact(
    num_tasks: int,
    *,
    theta_max: float = 0.08,
    max_table_size: Optional[int] = None,
    beta: float = DEFAULT_BETA,
    window: int = 1,
    seed: int = 0,
    discretization_degree: Optional[int] = 8,
) -> Partitioner:
    # ``None`` keeps the original key space (the Fig. 11(a) baseline).
    discretizer = (
        HLHEDiscretizer(discretization_degree) if discretization_degree is not None else None
    )
    return _loop(
        num_tasks,
        CompactMixedPlanner(discretizer),
        seed,
        theta_max=theta_max,
        max_table_size=max_table_size,
        beta=beta,
        window=window,
    )
