"""Mixed — Algorithm 4 of the paper — and its brute-force variant MixedBF.

Mixed combines the two heuristics: it starts from MinMig (no cleaning, γ-based
selection) and, whenever the resulting routing table exceeds ``A_max``, retries
after moving back ``n`` table entries chosen by the smallest-window-memory
criterion ``η`` (cheap to reroute because they carry little state).  ``n`` is
grown by the amount of overflow observed in the previous trial, so only a small
number of trials is needed — unlike :class:`MixedBruteForceAlgorithm`, which
evaluates every possible ``n`` and picks the cheapest feasible plan (the
``MixedBF`` baseline of Fig. 12, included to show the heuristic's speed-up).

The paper's Theorem 2/4 states that Mixed's balance is never worse than
Simple's; property tests in ``tests/core/test_theorems.py`` check this.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Set

from repro.core.assignment import AssignmentFunction
from repro.core.criteria import (
    LargestGammaFirst,
    SelectionCriteria,
    SmallestMemoryFirst,
)
from repro.core.planner import (
    PlannerConfig,
    RebalanceAlgorithm,
    RebalanceResult,
    register_algorithm,
)
from repro.core.statistics import StatisticsStore

__all__ = ["MixedAlgorithm", "MixedBruteForceAlgorithm"]

Key = Hashable


def _cleaning_order(
    assignment: AssignmentFunction,
    stats: StatisticsStore,
    config: PlannerConfig,
) -> List[Key]:
    """Routing-table keys ordered by the cleaning criterion ``η``.

    Smallest window memory first: moving these keys back to their hash
    destination costs the least state transfer.
    """
    table_keys = list(assignment.routing_table.keys())
    memories = {key: stats.windowed_memory(key, config.window) for key in table_keys}
    return SmallestMemoryFirst().sort(table_keys, {}, memories)


@register_algorithm
class MixedAlgorithm(RebalanceAlgorithm):
    """Algorithm 4: incremental-cleaning combination of MinMig and MinTable."""

    name = "mixed"
    retain_unobserved_entries = True

    #: Safety bound on the number of cleaning trials; the loop normally exits
    #: after one or two rounds because ``n`` grows by the observed overflow.
    max_rounds: int = 64

    def selection_criteria(self, config: PlannerConfig) -> SelectionCriteria:
        return LargestGammaFirst(beta=config.beta)

    def keys_to_clean(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> Set[Key]:  # pragma: no cover - the template hook is bypassed by _plan
        return set()

    def _plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        order = _cleaning_order(assignment, stats, config)
        table_size = len(order)
        n = 0
        rounds = 0
        result: Optional[RebalanceResult] = None
        while True:
            rounds += 1
            cleaned = set(order[:n])
            result = self.plan_with_cleaning(assignment, stats, config, cleaned)
            overflow = (
                0
                if config.max_table_size is None
                else max(0, result.table_size - config.max_table_size)
            )
            if overflow == 0 or n >= table_size or rounds >= self.max_rounds:
                break
            # Line 10 of Algorithm 4: retry after moving back as many extra
            # entries as the table overflowed by.  Growing ``n`` monotonically
            # guarantees termination even when one round's overflow is small.
            n = min(table_size, max(n + 1, n + overflow))
        result.cleaning_rounds = rounds
        return result


@register_algorithm
class MixedBruteForceAlgorithm(MixedAlgorithm):
    """MixedBF: evaluate every cleaning depth ``n`` and keep the best plan.

    "Best" means: among the plans whose routing table respects ``A_max``, the
    one with the smallest migration cost (ties broken towards smaller tables);
    if no plan is feasible, the one with the smallest overflow.  This is the
    expensive exhaustive search the paper contrasts Mixed against in Fig. 12.
    """

    name = "mixedbf"

    def _plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        order = _cleaning_order(assignment, stats, config)
        best: Optional[RebalanceResult] = None
        best_key: Optional[tuple] = None
        rounds = 0
        for n in range(len(order) + 1):
            rounds += 1
            cleaned = set(order[:n])
            candidate = self.plan_with_cleaning(assignment, stats, config, cleaned)
            overflow = (
                0
                if config.max_table_size is None
                else max(0, candidate.table_size - config.max_table_size)
            )
            # Feasible plans sort before infeasible ones; then by migration
            # cost, then by table size, then by cleaning depth.
            key = (
                overflow > 0,
                overflow,
                candidate.migration_cost,
                candidate.table_size,
                n,
            )
            if best_key is None or key < best_key:
                best = candidate
                best_key = key
        assert best is not None  # len(order) + 1 >= 1 iterations always run
        best.cleaning_rounds = rounds
        return best
