"""Built-in strategy declarations for the :mod:`repro.core.strategy` registry.

One :class:`~repro.core.strategy.StrategySpec` per evaluation label.  The
static strategies (storm, ideal, pkg) are their own partitioner classes; every
rebalancing strategy is the one loop,
:class:`~repro.baselines.base.RebalancingPartitioner`, handed a different
planner: a core algorithm (mixed, mintable, minmig, mixedbf, simple), Mixed
over the compact representation, Readj's pairwise search or DKG's heavy-key
placement.  A builder names only what is its own (the seed of ``h``, the
planner's constructor arguments); the shared knobs arrive as ``**config`` and
become :class:`~repro.core.planner.PlannerConfig`, the one place their names
and defaults are written.  Importing this module populates the registry; the
accessors in :mod:`repro.core.strategy` do so lazily.
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
from repro.baselines.readj import DEFAULT_SIGMA
from repro.core.compact import CompactMixedPlanner
from repro.core.discretization import HLHEDiscretizer
from repro.core.planner import PlannerConfig, get_algorithm
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


@register_strategy(
    "readj",
    tunables=("theta_max", "readj_sigma", "window", "seed"),
    description="Readj baseline (pairwise load re-adjustment)",
    rebalancing=True,
)
def _build_readj(
    num_tasks: int, *, seed: int = 0, readj_sigma: float = DEFAULT_SIGMA, **config
) -> Partitioner:
    return RebalancingPartitioner(
        num_tasks, ReadjPlanner(sigma=readj_sigma), PlannerConfig(**config), seed=seed
    )


@register_strategy(
    "dkg",
    tunables=("theta_max", "window", "seed"),
    description="DKG baseline (distribution-aware key grouping)",
    rebalancing=True,
)
def _build_dkg(num_tasks: int, *, seed: int = 0, **config) -> Partitioner:
    return RebalancingPartitioner(num_tasks, DKGPlanner(), PlannerConfig(**config), seed=seed)


def _algorithm_builder(algorithm: str):
    def build(num_tasks: int, *, seed: int = 0, **config) -> Partitioner:
        return RebalancingPartitioner(
            num_tasks, get_algorithm(algorithm), PlannerConfig(**config), seed=seed
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
    num_tasks: int, *, seed: int = 0, discretization_degree: Optional[int] = 8, **config
) -> Partitioner:
    # ``None`` keeps the original key space (the Fig. 11(a) baseline).
    discretizer = (
        HLHEDiscretizer(discretization_degree) if discretization_degree is not None else None
    )
    return RebalancingPartitioner(
        num_tasks, CompactMixedPlanner(discretizer), PlannerConfig(**config), seed=seed
    )
