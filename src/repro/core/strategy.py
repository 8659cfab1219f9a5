"""Strategy registry — the single source of truth for partitioning strategies.

Every strategy of the evaluation (the paper's rebalancing algorithms and all
baselines) is described by one :class:`StrategySpec`: its
evaluation label, the tunables it understands (``theta_max``, ``beta``,
``readj_sigma``, the table cap, the state window, …) and a builder producing a
configured :class:`~repro.baselines.base.Partitioner`.  The experiment
harness, the figure drivers, the process-runtime bench and the
``python -m repro`` CLI all resolve strategies through
:func:`get_strategy`, so a third-party strategy plugged in with
:func:`register_strategy` is immediately usable everywhere without touching
harness code::

    from repro.baselines import RebalancingPartitioner
    from repro.core.planner import PlannerConfig
    from repro.core.strategy import register_strategy

    @register_strategy("mystrat", tunables=("theta_max", "window", "seed"),
                       description="my planner in the rebalance loop", rebalancing=True)
    def _build_mystrat(num_tasks, *, seed=0, **config):
        return RebalancingPartitioner(num_tasks, MyPlanner(), PlannerConfig(**config), seed=seed)

A *rebalancing* strategy is the one loop,
:class:`~repro.baselines.base.RebalancingPartitioner`, around a
:class:`~repro.core.planner.Planner`, so plugging in a new planning heuristic
means writing its ``plan(assignment, stats, config)`` and registering a
builder that hands it to the loop (README, "One rebalance loop").  The builder
names only what is its own — the hash seed, its planner's constructor
arguments; the shared knobs (``theta_max``, ``max_table_size``, ``beta``,
``window``) arrive as ``**config`` and become
:class:`~repro.core.planner.PlannerConfig`, the one place their names and
defaults are written.

The built-in strategies are declared in :mod:`repro.engine.strategies` (they
need the partitioner classes of :mod:`repro.baselines`, which live above
``repro.core`` in the layering); the accessors below import that module
lazily, mirroring how :func:`repro.core.planner.get_algorithm` loads the
concrete algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a layering cycle
    from repro.baselines.base import Partitioner

__all__ = [
    "STANDARD_TUNABLES",
    "StrategySpec",
    "register_strategy",
    "register_spec",
    "get_strategy",
    "has_strategy",
    "list_strategies",
    "strategy_names",
]

#: Tunables the experiment layer knows how to thread through to any strategy.
#: A spec declares the subset it actually consumes; the rest is dropped when
#: building (so one call site can configure every strategy uniformly).
STANDARD_TUNABLES: Tuple[str, ...] = (
    "theta_max",
    "max_table_size",
    "beta",
    "window",
    "seed",
    "readj_sigma",
    "discretization_degree",
)


@dataclass(frozen=True)
class StrategySpec:
    """Declarative description of one partitioning strategy.

    Attributes
    ----------
    name:
        Evaluation label ("storm", "mixed", …) used in figure legends, specs
        and the CLI.
    builder:
        ``builder(num_tasks, **tunables) -> Partitioner``; receives exactly
        the tunables declared in :attr:`tunables`.
    tunables:
        The :data:`STANDARD_TUNABLES` subset the builder accepts.  Standard
        tunables outside this subset are silently dropped by :meth:`build`
        (e.g. ``theta_max`` handed to static hashing); non-standard keywords
        raise ``TypeError``.
    description:
        One-line summary shown by ``python -m repro list``.
    core_algorithm:
        Name of the core rebalancing algorithm (in the
        :func:`repro.core.planner.get_algorithm` registry) that drives the
        strategy's planner ("mixed", "mintable", …); ``None`` for the other
        planners (compact, readj, dkg) and for static strategies.
    rebalancing:
        True when the built partitioner replans at interval ends, i.e. it can
        be streamed through a planner sweep.
    theta_sensitive:
        False for strategies that ignore ``theta_max`` entirely (storm, pkg,
        ideal); sweep drivers use this to avoid duplicating identical curves.
    """

    name: str
    builder: Callable[..., "Partitioner"]
    tunables: Tuple[str, ...] = ()
    description: str = ""
    core_algorithm: Optional[str] = None
    rebalancing: bool = False
    theta_sensitive: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("StrategySpec.name must be non-empty")
        # Names are case-insensitive lookup keys; canonicalise so a strategy
        # registered as "MyStrat" resolves via get_strategy("mystrat") & co.
        object.__setattr__(self, "name", self.name.lower())
        unknown = [t for t in self.tunables if t not in STANDARD_TUNABLES]
        if unknown:
            raise ValueError(
                f"strategy {self.name!r} declares non-standard tunables {unknown}; "
                f"standard tunables: {STANDARD_TUNABLES}"
            )

    def accepted(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The subset of ``params`` this strategy consumes."""
        return {key: value for key, value in params.items() if key in self.tunables}

    def build(self, num_tasks: int, **params: Any) -> "Partitioner":
        """Instantiate the strategy for ``num_tasks`` downstream tasks.

        ``params`` may contain any :data:`STANDARD_TUNABLES`; the ones the
        strategy does not declare are ignored.  Unknown keywords raise
        ``TypeError`` so typos do not silently become defaults.
        """
        foreign = [key for key in params if key not in STANDARD_TUNABLES]
        if foreign:
            raise TypeError(
                f"strategy {self.name!r} got unknown tunables {foreign}; "
                f"standard tunables: {STANDARD_TUNABLES}"
            )
        return self.builder(num_tasks, **self.accepted(params))


_REGISTRY: Dict[str, StrategySpec] = {}


def register_spec(spec: StrategySpec, *, replace: bool = False) -> StrategySpec:
    """Add a :class:`StrategySpec` to the registry."""
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"strategy {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def register_strategy(
    name: str,
    *,
    tunables: Tuple[str, ...] = (),
    description: str = "",
    core_algorithm: Optional[str] = None,
    rebalancing: bool = False,
    theta_sensitive: bool = True,
    replace: bool = False,
) -> Callable[[Callable[..., "Partitioner"]], Callable[..., "Partitioner"]]:
    """Decorator registering ``builder(num_tasks, **tunables)`` under ``name``."""

    def decorator(builder: Callable[..., "Partitioner"]) -> Callable[..., "Partitioner"]:
        register_spec(
            StrategySpec(
                name=name,
                builder=builder,
                tunables=tuple(tunables),
                description=description,
                core_algorithm=core_algorithm,
                rebalancing=rebalancing,
                theta_sensitive=theta_sensitive,
            ),
            replace=replace,
        )
        return builder

    return decorator


def _load_builtins() -> None:
    # The built-in strategy declarations live above the core layer; import
    # them lazily so `repro.core` keeps no static dependency on the layers
    # above it (same pattern as planner.get_algorithm).
    from repro.engine import strategies  # noqa: F401


def get_strategy(name: str) -> StrategySpec:
    """Resolve a strategy by its evaluation label (case-insensitive)."""
    _load_builtins()
    try:
        return _REGISTRY[name.lower()]
    except KeyError as exc:
        raise KeyError(
            f"unknown strategy {name!r}; known: {sorted(_REGISTRY)}"
        ) from exc


def has_strategy(name: str) -> bool:
    """True when ``name`` resolves to a registered strategy."""
    _load_builtins()
    return name.lower() in _REGISTRY


def list_strategies() -> List[StrategySpec]:
    """Every registered spec, sorted by name."""
    _load_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def strategy_names() -> List[str]:
    """Sorted names of every registered strategy."""
    _load_builtins()
    return sorted(_REGISTRY)
