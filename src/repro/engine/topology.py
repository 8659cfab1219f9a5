"""Topology description: one spec type for the simulator and the runtime.

The paper's workloads are pipelines of logical operators (word count:
source → counter; stock self-join: source → join; TPC-H Q5: a chain of windowed
joins and an aggregation).  A :class:`TopologySpec` is a DAG of
:class:`StageSpec` s fed by one source, a chain being the common case.  The
same spec object is *simulated* by
:class:`~repro.engine.simulator.PipelineSimulator` (chains only) and
*executed* on worker processes by :class:`~repro.runtime.TopologyRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.baselines.base import Partitioner
from repro.engine.operator import OperatorLogic

__all__ = ["SOURCE_ORIGIN", "StageSpec", "TopologySpec", "map_keys"]

Key = Hashable

#: Edge label of the source (the runtime's source process stamps it onto its
#: messages); reserved — no stage of a topology may take this name.
SOURCE_ORIGIN = "source"


def map_keys(mapper: Callable[[Key], Key], keys: Sequence[Key]) -> List[Key]:
    """``mapper`` over a batch of keys.

    A mapper is a per-key callable; one that can answer a whole batch without
    a Python call per key says so with a ``map_batch(keys)`` method (e.g.
    :class:`~repro.workloads.tpch.ForeignKeyLookup`).
    """
    map_batch = getattr(mapper, "map_batch", None)
    return map_batch(keys) if map_batch is not None else list(map(mapper, keys))


@dataclass(frozen=True)
class StageSpec:
    """One stage of a topology: an operator, its routing, its re-keying.

    ``partitioner`` fixes the stage's parallelism (one worker process per
    task) and, through its ``on_interval_end`` hook, the stage's online
    rebalancing strategy.  ``key_mapper`` re-keys the stage's *output*
    tuples for the next stage (e.g. the Q5 order-join re-keys by customer);
    it runs inside the stage's workers, so it must be picklable.

    ``upstream`` names the stages feeding this one and makes the topology a
    DAG.  ``None`` (the default) keeps the classic chain reading — "the
    previous stage in the list" (the source for the first stage).  An empty
    tuple pins the stage directly to the source, so several stages can fan
    out from it; a tuple of names fans several producer stages into this one
    (the names must appear *earlier* in the stage list, which makes every
    spec acyclic by construction).
    """

    name: str
    logic: OperatorLogic
    partitioner: Partitioner
    key_mapper: Optional[Callable[[Key], Key]] = None
    upstream: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if self.upstream is not None:
            object.__setattr__(self, "upstream", tuple(self.upstream))

    @property
    def parallelism(self) -> int:
        return self.partitioner.num_tasks


@dataclass(frozen=True)
class TopologySpec:
    """A DAG of stages fed by one source (a chain being the common case)."""

    name: str
    stages: Tuple[StageSpec, ...]

    def __init__(self, name: str, stages: Sequence[StageSpec]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "stages", tuple(stages))
        if not self.name:
            raise ValueError("topology name must be non-empty")
        if not self.stages:
            raise ValueError("a topology needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate stage names in topology: {names}")
        if SOURCE_ORIGIN in names:
            raise ValueError(
                f"stage name {SOURCE_ORIGIN!r} is reserved for the source"
            )
        # Resolve each stage's upstream edges.  Referencing only *earlier*
        # stages keeps the graph acyclic without a separate cycle check.
        upstreams: Dict[str, Tuple[str, ...]] = {}
        earlier: set = set()
        for index, stage in enumerate(self.stages):
            if stage.upstream is None:
                resolved = (
                    (SOURCE_ORIGIN,)
                    if index == 0
                    else (self.stages[index - 1].name,)
                )
            elif not stage.upstream:
                resolved = (SOURCE_ORIGIN,)
            else:
                resolved = stage.upstream
                if len(set(resolved)) != len(resolved):
                    raise ValueError(
                        f"stage {stage.name!r} lists a duplicate upstream: "
                        f"{resolved}"
                    )
                for upstream_name in resolved:
                    if upstream_name == SOURCE_ORIGIN:
                        continue
                    if upstream_name not in earlier:
                        raise ValueError(
                            f"stage {stage.name!r} upstream {upstream_name!r} "
                            f"must name an earlier stage (have "
                            f"{sorted(earlier) or ['<source only>']})"
                        )
            upstreams[stage.name] = resolved
            earlier.add(stage.name)
        object.__setattr__(self, "_upstreams", upstreams)
        # Every stage except the last must feed someone, or its emissions
        # would pile into an egress nobody drains; the last stage is the
        # topology's single sink (its output is the end-to-end result).
        consumed = {name for edges in upstreams.values() for name in edges}
        for stage in self.stages[:-1]:
            if stage.name not in consumed:
                raise ValueError(
                    f"stage {stage.name!r} has no downstream consumer "
                    f"(only the final stage may be a sink)"
                )
        if self.stages[-1].name in consumed:
            raise ValueError(
                f"final stage {self.stages[-1].name!r} must be the sink, "
                f"but another stage consumes it"
            )

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def upstreams_of(self, name: str) -> Tuple[str, ...]:
        """The resolved upstream edge origins of ``name`` (source included)."""
        return self._upstreams[name]

    def consumers_of(self, name: str) -> List[str]:
        """The stages fed by ``name``, in stage-list order."""
        return [
            stage.name
            for stage in self.stages
            if name in self._upstreams[stage.name]
        ]

    @property
    def is_chain(self) -> bool:
        """True when every stage has exactly the classic linear wiring."""
        return all(
            self._upstreams[stage.name]
            == ((SOURCE_ORIGIN,) if index == 0 else (self.stages[index - 1].name,))
            for index, stage in enumerate(self.stages)
        )
