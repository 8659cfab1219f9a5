"""Declarative experiment specs and the runner behind every entry point.

The public experiment API has three pieces:

* an **experiment registry**: every figure driver registers itself with
  :func:`register_experiment` under its id (``"fig07"`` … ``"fig21"``), so
  the CLI, the examples and the benchmarks can enumerate and resolve
  experiments by name; :func:`register_claim` attaches the figure's
  expected shape to it, each claim one check on the figure's rows;
* :class:`ExperimentSpec` — a declarative description of one run: experiment
  name, scale preset plus field overrides, seed, an optional strategy list
  and sweep axes, and free-form driver parameters.  Specs serialise to/from
  JSON (``python -m repro run myspec.json``);
* :func:`run` / :func:`run_batch` — execute specs, stamp the result with
  :class:`RunMetadata` (scale, seed, git revision, wall time) and optionally
  persist it through a :class:`~repro.experiments.store.ResultsStore`.

Example::

    from repro.experiments import ExperimentSpec, run

    spec = ExperimentSpec(
        "fig09",
        scale="tiny",
        sweep={"thetas": [0.02, 0.08, 0.3]},
        strategies=["mixed", "mintable"],
        seed=1,
    )
    outcome = run(spec)
    print(outcome.result.to_text())
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.experiments.config import ExperimentScale, get_scale
from repro.experiments.reporting import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.store import ResultsStore

__all__ = [
    "Claim",
    "ExperimentDefinition",
    "ExperimentSpec",
    "ExperimentRun",
    "RunMetadata",
    "register_experiment",
    "register_claim",
    "get_experiment",
    "list_experiments",
    "experiment_names",
    "run",
    "run_batch",
    "git_revision",
]

#: ``builder(scale, *, seed=0, **params) -> ExperimentResult``
ExperimentBuilder = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class Claim:
    """One expected property of a figure, checked on the figure's rows."""

    text: str
    holds: Callable[[ExperimentResult], bool]


@dataclass(frozen=True)
class ExperimentDefinition:
    """A registered experiment: name, one-line description, builder and the
    claims its rows must satisfy (see ``CLAIMS.md``)."""

    name: str
    builder: ExperimentBuilder
    description: str = ""
    claims: List[Claim] = field(default_factory=list)


_EXPERIMENTS: Dict[str, ExperimentDefinition] = {}


def register_experiment(
    name: str, *, description: str = "", replace: bool = False
) -> Callable[[ExperimentBuilder], ExperimentBuilder]:
    """Decorator registering ``builder(scale, *, seed=0, **params)``."""

    def decorator(builder: ExperimentBuilder) -> ExperimentBuilder:
        if not replace and name in _EXPERIMENTS:
            raise ValueError(f"experiment {name!r} is already registered")
        _EXPERIMENTS[name] = ExperimentDefinition(
            name=name, builder=builder, description=description
        )
        return builder

    return decorator


def register_claim(
    name: str, text: str
) -> Callable[[Callable[[ExperimentResult], bool]], Callable[[ExperimentResult], bool]]:
    """Decorator attaching ``holds(result) -> bool`` to experiment ``name``
    as the claim ``text``."""

    def decorator(holds: Callable[[ExperimentResult], bool]):
        _EXPERIMENTS[name].claims.append(Claim(text, holds))
        return holds

    return decorator


def _load_builtins() -> None:
    from repro.experiments import figures  # noqa: F401


def get_experiment(name: str) -> ExperimentDefinition:
    """Resolve a registered experiment by name (e.g. ``"fig07"``)."""
    _load_builtins()
    try:
        return _EXPERIMENTS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(_EXPERIMENTS)}"
        ) from exc


def list_experiments() -> List[ExperimentDefinition]:
    """Every registered experiment, sorted by name."""
    _load_builtins()
    return [_EXPERIMENTS[name] for name in sorted(_EXPERIMENTS)]


def experiment_names() -> List[str]:
    """Sorted names of every registered experiment."""
    _load_builtins()
    return sorted(_EXPERIMENTS)


def git_revision() -> Optional[str]:
    """The repository's current commit hash, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    revision = proc.stdout.strip()
    return revision if proc.returncode == 0 and revision else None


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run.

    Attributes
    ----------
    experiment:
        Registered experiment name (``"fig07"`` … ``"fig21"`` or a plug-in).
    scale:
        Scale preset name or an explicit :class:`ExperimentScale`.
    overrides:
        :class:`ExperimentScale` field overrides applied on top of the preset
        (e.g. ``{"num_keys": 5000}``).
    seed:
        Master RNG seed threaded through workloads and hash functions.
    strategies:
        Optional strategy list, passed to the driver as its ``strategies``
        parameter (drivers without a strategy choice reject it).
    sweep:
        Optional sweep axes, ``{driver parameter: values}`` (e.g.
        ``{"thetas": [0.02, 0.3]}``); merged into the driver parameters.
    params:
        Remaining driver-specific parameters; wins over ``sweep`` and
        ``strategies`` on conflict.
    """

    experiment: str
    scale: Union[str, ExperimentScale] = "small"
    overrides: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    strategies: Optional[Sequence[str]] = None
    sweep: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Canonicalise container fields (tuples -> lists, mappings -> dicts)
        # so a spec equals its JSON save/load image.
        object.__setattr__(self, "overrides", dict(self.overrides))
        object.__setattr__(
            self, "sweep", {axis: list(values) for axis, values in self.sweep.items()}
        )
        object.__setattr__(
            self,
            "params",
            {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in self.params.items()
            },
        )
        if self.strategies is not None:
            object.__setattr__(self, "strategies", list(self.strategies))

    def resolve_scale(self) -> ExperimentScale:
        """The effective scale: preset plus overrides."""
        scale = get_scale(self.scale)
        return scale.scaled(**dict(self.overrides)) if self.overrides else scale

    def scale_label(self) -> str:
        """Preset name recorded in run metadata."""
        return self.scale if isinstance(self.scale, str) else self.scale.name

    def driver_params(self) -> Dict[str, Any]:
        """The merged keyword arguments handed to the experiment builder."""
        merged: Dict[str, Any] = dict(self.sweep)
        if self.strategies is not None:
            merged["strategies"] = list(self.strategies)
        merged.update(self.params)
        return merged

    def run(self, *, store: Optional["ResultsStore"] = None) -> "ExperimentRun":
        """Execute the spec; persist through ``store`` when given."""
        return run(self, store=store)

    # -- (de)serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (CLI spec files, ResultsStore).

        The payload is canonicalised through JSON so that
        ``ExperimentSpec.from_dict(spec.to_dict())`` equals what a save/load
        cycle produces (tuples become lists either way).
        """
        scale: Any = self.scale
        if isinstance(scale, ExperimentScale):
            scale = dataclasses.asdict(scale)
        payload = {
            "experiment": self.experiment,
            "scale": scale,
            "overrides": dict(self.overrides),
            "seed": self.seed,
            "strategies": list(self.strategies) if self.strategies is not None else None,
            "sweep": {axis: list(values) for axis, values in self.sweep.items()},
            "params": dict(self.params),
        }
        return json.loads(json.dumps(payload))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`."""
        scale = payload.get("scale", "small")
        if isinstance(scale, Mapping):
            scale = ExperimentScale(**scale)
        strategies = payload.get("strategies")
        return cls(
            experiment=payload["experiment"],
            scale=scale,
            overrides=dict(payload.get("overrides", {})),
            seed=int(payload.get("seed", 0)),
            strategies=list(strategies) if strategies is not None else None,
            sweep=dict(payload.get("sweep", {})),
            params=dict(payload.get("params", {})),
        )


@dataclass(frozen=True)
class RunMetadata:
    """Provenance stamped onto every experiment run.

    ``engine`` records which execution engine produced the result — the fluid
    interval simulator (``"fluid"``) or the process-parallel runtime
    (``"process"``) — and ``host_cpu_count`` the CPUs of the producing host,
    so stored runs are comparable across machines: a wall-clock number from a
    2-core laptop is not the same measurement as one from a 64-core server.
    """

    run_id: str
    experiment: str
    figure: str
    scale: str
    seed: int
    wall_time_seconds: float
    created_at: str
    git_rev: Optional[str] = None
    repro_version: str = ""
    engine: str = "fluid"
    host_cpu_count: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunMetadata":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


@dataclass
class ExperimentRun:
    """One executed spec: the result rows plus their provenance."""

    spec: ExperimentSpec
    result: ExperimentResult
    metadata: RunMetadata

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metadata": self.metadata.to_dict(),
            "spec": self.spec.to_dict(),
            "result": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentRun":
        return cls(
            spec=ExperimentSpec.from_dict(payload["spec"]),
            result=ExperimentResult.from_dict(payload["result"]),
            metadata=RunMetadata.from_dict(payload["metadata"]),
        )


def _new_run_id(experiment: str, seed: int) -> str:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S-%f")
    return f"{experiment}-{stamp}-s{seed}"


def run(
    spec: Union[ExperimentSpec, str],
    *,
    store: Optional["ResultsStore"] = None,
) -> ExperimentRun:
    """Execute one spec (or a bare experiment name at its default scale).

    Returns the :class:`ExperimentRun`; when ``store`` is given the run is
    also persisted (JSON per run) and the stored run id is in the metadata.
    """
    if isinstance(spec, str):
        spec = ExperimentSpec(spec)
    definition = get_experiment(spec.experiment)
    scale = spec.resolve_scale()
    start = time.perf_counter()
    result = definition.builder(scale, seed=spec.seed, **spec.driver_params())
    wall_time = time.perf_counter() - start

    from repro import __version__

    metadata = RunMetadata(
        run_id=_new_run_id(spec.experiment, spec.seed),
        experiment=spec.experiment,
        figure=result.figure,
        scale=spec.scale_label(),
        seed=spec.seed,
        wall_time_seconds=wall_time,
        created_at=datetime.now(timezone.utc).isoformat(timespec="microseconds"),
        git_rev=git_revision(),
        repro_version=__version__,
        engine="fluid",
        host_cpu_count=os.cpu_count(),
    )
    outcome = ExperimentRun(spec=spec, result=result, metadata=metadata)
    if store is not None:
        store.save(outcome)
    return outcome


def run_batch(
    specs: Iterable[Union[ExperimentSpec, str]],
    *,
    store: Optional["ResultsStore"] = None,
    on_result: Optional[Callable[[ExperimentRun], None]] = None,
) -> List[ExperimentRun]:
    """Execute several specs in order; ``on_result`` fires after each one."""
    outcomes: List[ExperimentRun] = []
    for spec in specs:
        outcome = run(spec, store=store)
        outcomes.append(outcome)
        if on_result is not None:
            on_result(outcome)
    return outcomes
