"""Adapter exposing the paper's rebalance controller as an engine partitioner.

The simulators drive every strategy through the
:class:`~repro.baselines.base.Partitioner` protocol; this module wraps a
:class:`~repro.core.controller.RebalanceController` (mixed hash + routing-table
assignment, rebalanced by Mixed/MinTable/… at interval ends) so it plugs in the
same way the baselines do.

Snapshot routing goes through the batch API: the base class memoises the
per-key results and, when ``on_interval_end`` installs a plan, rewrites only
the entries of keys whose routing-table entry changed.  The cache epoch tracks
the controller's planning rounds and routing-table edits, so an assignment
change that did not come through ``on_interval_end`` still drops the memo.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.baselines.base import RebalancingPartitioner
from repro.core.assignment import AssignmentFunction
from repro.core.controller import ControllerConfig, RebalanceController
from repro.core.planner import RebalanceResult
from repro.core.statistics import IntervalStats

__all__ = ["MixedRoutingPartitioner"]

Key = Hashable


class MixedRoutingPartitioner(RebalancingPartitioner):
    """The paper's approach wrapped as an engine partitioner.

    Parameters
    ----------
    num_tasks:
        Number of downstream tasks.
    config:
        Controller configuration (algorithm, ``θ_max``, ``A_max``, β, window,
        compact representation on/off).  Defaults to Mixed with the paper's
        default parameters.
    seed:
        Hash seed of the implicit router.
    """

    def __init__(
        self,
        num_tasks: int,
        config: Optional[ControllerConfig] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(num_tasks)
        config = config if config is not None else ControllerConfig()
        assignment = AssignmentFunction.hashed(num_tasks, seed=seed)
        self.controller = RebalanceController(assignment, config)
        self.seed = int(seed)
        self.name = config.algorithm if not config.use_compact else "compact-mixed"

    cache_routes = True

    # -- Partitioner protocol -----------------------------------------------------

    def route(self, key: Key) -> int:
        return self.controller.assignment(key)

    def _route_epoch(self) -> object:
        assignment = self.controller.assignment
        return (len(self.controller.history), assignment.routing_table.version)

    def plan_rebalance(self, stats: IntervalStats) -> Optional[RebalanceResult]:
        self.controller.observe(stats)
        return self.controller.maybe_rebalance()

    def supports_stateful(self) -> bool:
        return True

    def scale_out(self, new_num_tasks: int) -> None:
        """Add task instances; existing explicit routes are preserved.

        The next planning round naturally spreads keys onto the new tasks
        (their load is zero, so they are the least-loaded LLFD targets), which
        is exactly the scale-out behaviour measured in Fig. 15.
        """
        super().scale_out(new_num_tasks)
        controller = self.controller
        old_assignment = controller.assignment
        new_assignment = AssignmentFunction.hashed(
            new_num_tasks, seed=self.seed
        ).with_table(old_assignment.routing_table.copy())
        controller.assignment = new_assignment

    def scale_in(self, new_num_tasks: int) -> None:
        """Remove task instances; routes to surviving tasks are preserved.

        Explicit routes onto the removed tasks are dropped, so those keys
        fall back to the resized hash — the runtime migrates their state off
        the drained workers as part of the same boundary.
        """
        super().scale_in(new_num_tasks)
        controller = self.controller
        table = controller.assignment.routing_table.copy()
        for key, task in list(table.items()):
            if task >= new_num_tasks:
                table.discard(key)
        controller.assignment = AssignmentFunction.hashed(
            new_num_tasks, seed=self.seed
        ).with_table(table)

    # -- convenience -----------------------------------------------------------------

    @property
    def assignment(self) -> AssignmentFunction:
        """The controller's current assignment function ``F``."""
        return self.controller.assignment

    @property
    def routing_table_size(self) -> int:
        return self.controller.assignment.routing_table.size
