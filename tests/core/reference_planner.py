"""The dict-walking planner, kept as the oracle for the columnar one in ``src/``.

These are the bodies ``repro.core`` shipped before planning moved onto aligned
columns (``plan_with_cleaning`` + ``_build_result``, ``least_load_fit_decreasing``,
``build_migration_plan``, ``StatisticsStore.cost_map`` / ``memory_map``,
``SelectionCriteria.sort`` and Mixed's ``_cleaning_order``), unchanged apart
from their names: every step walks all observed keys in per-key dicts and
per-task Python sets.  Two contracts have moved since, and the bodies follow
them: a plan's moves come in table-diff order (the old table's dropped or
retargeted entries in its order, then the new table's additions in theirs),
and the migration fraction is ``M_i`` summed over the moves in that order
(``migration_cost`` / ``migration_cost_fraction``, which ``src/`` no longer
ships).  Nothing under ``src/`` calls them; ``test_planner_oracle.py`` asserts
that the columnar planner returns the same plans, field for field and bit for
bit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.assignment import AssignmentFunction
from repro.core.criteria import HighestCostFirst, SelectionCriteria, SmallestMemoryFirst
from repro.core.load import load_ceiling, load_from_costs, max_balance_indicator
from repro.core.migration import KeyMove, MigrationPlan
from repro.core.planner import (
    PlannerConfig,
    RebalanceAlgorithm,
    RebalanceResult,
    get_algorithm,
)
from repro.core.routing_table import RoutingTable
from repro.core.statistics import StatisticsStore

Key = Hashable
HashFunction = Callable[[Key], int]

_EPS = 1e-9


def reference_algorithm(name: str) -> RebalanceAlgorithm:
    """The registered algorithm ``name`` with Phases II–III swapped for the
    reference bodies (cleaning policy, trial loop and criteria stay its own)."""
    base = type(get_algorithm(name))
    reference = type(
        f"Reference{base.__name__}",
        (base,),
        {"plan_with_cleaning": reference_plan_with_cleaning},
    )
    return reference()


def reference_cost_map(stats: StatisticsStore) -> Dict[Key, float]:
    """``{k: c_{i-1}(k)}`` of the latest interval, a fresh dict per call."""
    return {key: stat.cost for key, stat in stats.latest.items()}


def reference_memory_map(stats: StatisticsStore, window: Optional[int] = None) -> Dict[Key, float]:
    """``{k: S_i(k, w)}`` over every key observed in the window."""
    result: Dict[Key, float] = {}
    w = stats.window if window is None else window
    for snapshot in list(stats._history)[-w:]:
        for key, stat in snapshot.items():
            result[key] = result.get(key, 0.0) + stat.memory
    return result


def reference_sort(
    criteria: SelectionCriteria,
    keys: Iterable[Key],
    costs: Mapping[Key, float],
    memories: Mapping[Key, float],
) -> List[Key]:
    """``keys`` by decreasing scalar priority, ties broken on ``repr``."""
    return sorted(
        keys,
        key=lambda k: (
            -criteria.priority(k, costs.get(k, 0.0), memories.get(k, 0.0)),
            repr(k),
        ),
    )


def reference_cleaning_order(
    assignment: AssignmentFunction,
    stats: StatisticsStore,
    config: PlannerConfig,
) -> List[Key]:
    """Mixed's cleaning order ``η`` from two full per-key maps."""
    table_keys = list(assignment.routing_table.keys())
    costs = reference_cost_map(stats)
    memories = reference_memory_map(stats, config.window)
    return reference_sort(SmallestMemoryFirst(), table_keys, costs, memories)


@dataclass
class ReferenceLLFDResult:
    """Outcome of one reference LLFD run."""

    placements: Dict[Key, int] = field(default_factory=dict)
    loads: Dict[int, float] = field(default_factory=dict)
    routing_entries: Dict[Key, int] = field(default_factory=dict)
    balanced: bool = True
    fallback_placements: int = 0
    exchanges: int = 0

    @property
    def max_theta(self) -> float:
        return max_balance_indicator(self.loads)


def reference_llfd(
    candidates: Iterable[Key],
    assignment: Mapping[Key, int],
    costs: Mapping[Key, float],
    memories: Mapping[Key, float],
    num_tasks: int,
    theta_max: float,
    hash_function: HashFunction,
    criteria: Optional[SelectionCriteria] = None,
    *,
    base_loads: Optional[Mapping[int, float]] = None,
) -> ReferenceLLFDResult:
    """LLFD (Algorithm 1) over per-key dicts and per-task Python sets."""
    if num_tasks <= 0:
        raise ValueError(f"num_tasks must be positive, got {num_tasks}")
    if theta_max < 0:
        raise ValueError(f"theta_max must be non-negative, got {theta_max}")
    criteria = criteria if criteria is not None else HighestCostFirst()

    candidate_set: Set[Key] = set(candidates)
    placements: Dict[Key, int] = {}
    per_task_keys: Dict[int, Set[Key]] = {task: set() for task in range(num_tasks)}
    loads: Dict[int, float] = {
        task: float(base_loads.get(task, 0.0)) if base_loads else 0.0
        for task in range(num_tasks)
    }

    for key, task in assignment.items():
        if key in candidate_set:
            continue
        if task < 0 or task >= num_tasks:
            raise ValueError(f"assignment routes key {key!r} to invalid task {task}")
        placements[key] = task
        per_task_keys[task].add(key)
        loads[task] += costs.get(key, 0.0)

    # The ceiling is fixed from the *total* load (which never changes during
    # the run): L_max = (1 + θ_max) · L̄_{i-1}.  Note the final division can
    # still underflow for subnormal totals — the underflow-proof comparisons
    # live in the product-form helpers of repro.core.load; at these magnitudes
    # a zero ceiling only makes the fit checks conservative.
    total_load = sum(loads.values()) + sum(costs.get(key, 0.0) for key in candidate_set)
    ceiling = (1.0 + theta_max) * total_load / num_tasks

    # Max-heap of candidates ordered by decreasing cost (ties broken on repr
    # for determinism).  Keys displaced by Adjust are pushed back in.
    counter = itertools.count()
    heap: List[Tuple[float, str, int, Key]] = []
    for key in candidate_set:
        heapq.heappush(heap, (-costs.get(key, 0.0), repr(key), next(counter), key))

    result = ReferenceLLFDResult()

    def try_adjust(key: Key, cost: float, task: int) -> bool:
        """The Adjust function of Algorithm 1 (lines 10-20)."""
        if loads[task] + cost <= ceiling + _EPS:
            return True
        # Attempt to build an exchangeable set E of keys on `task`, each with a
        # strictly smaller cost than `key`, whose removal makes room.
        resident = [k for k in per_task_keys[task] if costs.get(k, 0.0) < cost]
        if not resident:
            return False
        ordered = reference_sort(criteria, resident, costs, memories)
        selected: List[Key] = []
        freed = 0.0
        needed = loads[task] + cost - ceiling
        for other in ordered:
            if freed >= needed - _EPS:
                break
            selected.append(other)
            freed += costs.get(other, 0.0)
        if freed < needed - _EPS:
            return False
        # Disassociate the exchangeable set and push it back into C.
        for other in selected:
            per_task_keys[task].discard(other)
            loads[task] -= costs.get(other, 0.0)
            del placements[other]
            heapq.heappush(
                heap, (-costs.get(other, 0.0), repr(other), next(counter), other)
            )
            result.exchanges += 1
        return True

    while heap:
        _, _, _, key = heapq.heappop(heap)
        cost = costs.get(key, 0.0)
        # Offer the key to tasks in ascending order of current load.
        order = sorted(range(num_tasks), key=lambda task: (loads[task], task))
        placed = False
        for task in order:
            if try_adjust(key, cost, task):
                placements[key] = task
                per_task_keys[task].add(key)
                loads[task] += cost
                placed = True
                break
        if not placed:
            # Best-effort fallback for keys no task can absorb within the
            # ceiling (typically a single key whose cost exceeds L̄, outside
            # Theorem 1's precondition).  Place it on the least-loaded task and
            # displace strictly cheaper resident keys so the oversized key ends
            # up (almost) alone there — the same outcome Simple/LPT reaches.
            task = order[0]
            displaceable = reference_sort(
                criteria,
                [k for k in per_task_keys[task] if costs.get(k, 0.0) < cost],
                costs,
                memories,
            )
            for other in displaceable:
                if loads[task] + cost <= ceiling + _EPS:
                    break
                per_task_keys[task].discard(other)
                loads[task] -= costs.get(other, 0.0)
                del placements[other]
                heapq.heappush(
                    heap, (-costs.get(other, 0.0), repr(other), next(counter), other)
                )
                result.exchanges += 1
            placements[key] = task
            per_task_keys[task].add(key)
            loads[task] += cost
            result.fallback_placements += 1

    result.placements = placements
    result.loads = loads
    result.routing_entries = {
        key: task for key, task in placements.items() if hash_function(key) != task
    }
    result.balanced = (
        result.fallback_placements == 0
        and max(loads.values(), default=0.0) <= ceiling + _EPS
    )
    return result


def migration_cost(
    delta: Iterable[Key],
    stats: StatisticsStore,
    window: Optional[int] = None,
) -> float:
    """``M_i(w, F, F′) = Σ_{k ∈ Δ} S_i(k, w)``, added in ``delta``'s order."""
    return sum(stats.windowed_memory(key, window) for key in delta)


def migration_cost_fraction(
    delta: Iterable[Key],
    stats: StatisticsStore,
    window: Optional[int] = None,
) -> float:
    """Migration cost as a fraction of the operator's total retained state
    (0.0 when the operator holds no state at all)."""
    total = stats.total_windowed_memory(window)
    if total <= 0.0:
        return 0.0
    return migration_cost(delta, stats, window) / total


def table_diff_rank(old: RoutingTable, new: RoutingTable) -> Callable[[Key], int]:
    """A key's position in table-diff order: its entry position in ``old``,
    or ``len(old)`` plus its entry position in ``new`` for a key ``old`` has
    no entry for."""
    old_at = {key: at for at, key in enumerate(old.keys())}
    new_at = {key: len(old_at) + at for at, key in enumerate(new.keys())}
    return lambda key: old_at[key] if key in old_at else new_at[key]


def reference_build_migration_plan(
    old: AssignmentFunction,
    new: AssignmentFunction,
    keys: Iterable[Key],
    stats: Optional[StatisticsStore] = None,
    window: Optional[int] = None,
) -> MigrationPlan:
    """``Δ(F, F′)`` by evaluating both functions on every key, in table-diff order."""
    moves: List[KeyMove] = []
    for key in keys:
        source = old(key)
        target = new(key)
        if source == target:
            continue
        state = stats.windowed_memory(key, window) if stats is not None else 0.0
        moves.append(KeyMove(key=key, source=source, target=target, state_size=state))
    rank = table_diff_rank(old.routing_table, new.routing_table)
    moves.sort(key=lambda move: rank(move.key))
    return MigrationPlan(moves=moves)


def reference_plan_with_cleaning(
    self: RebalanceAlgorithm,
    assignment: AssignmentFunction,
    stats: StatisticsStore,
    config: PlannerConfig,
    cleaned: Set[Key],
) -> RebalanceResult:
    """Phases II and III over per-key dicts (the pre-columnar planner body)."""
    criteria = self.selection_criteria(config)
    costs = reference_cost_map(stats)
    memories = reference_memory_map(stats, config.window)
    observed = set(costs)
    num_tasks = assignment.num_tasks

    # Working destination after the (virtual) cleaning of Phase I; the
    # assignment is evaluated over all observed keys in one batch and the
    # cleaned entries are patched back to their hash destination.
    observed_keys = list(costs)
    working: Dict[Key, int] = dict(
        zip(observed_keys, assignment.assign_batch(observed_keys))
    )
    for key in cleaned:
        if key in working:
            working[key] = assignment.hash_destination(key)
    loads = load_from_costs(costs, working.__getitem__, num_tasks)
    ceiling = load_ceiling(loads, config.theta_max)

    # Phase II: disassociate keys from overloaded tasks until they fit.
    candidates: Set[Key] = set()
    keys_by_task: Dict[int, List[Key]] = {task: [] for task in range(num_tasks)}
    for key, task in working.items():
        keys_by_task[task].append(key)
    for task in range(num_tasks):
        if loads[task] <= ceiling + _EPS:
            continue
        ordered = reference_sort(criteria, keys_by_task[task], costs, memories)
        for key in ordered:
            if loads[task] <= ceiling + _EPS:
                break
            candidates.add(key)
            loads[task] -= costs.get(key, 0.0)

    remaining = {key: task for key, task in working.items() if key not in candidates}

    # Phase III: LLFD.
    llfd = reference_llfd(
        candidates,
        remaining,
        costs,
        memories,
        num_tasks,
        config.theta_max,
        assignment.hash_destination,
        criteria,
    )

    return _reference_build_result(
        self, assignment, stats, config, cleaned, llfd, observed
    )

def _reference_build_result(
    self: RebalanceAlgorithm,
    assignment: AssignmentFunction,
    stats: StatisticsStore,
    config: PlannerConfig,
    cleaned: Set[Key],
    llfd: "ReferenceLLFDResult",
    observed: Set[Key],
) -> RebalanceResult:
    new_table = RoutingTable(max_size=None)
    # Keep old explicit entries for keys outside the statistics window —
    # they carry no state, so leaving them pinned costs nothing, and
    # dropping them would silently reroute live keys.  MinTable overrides
    # ``retain_unobserved_entries`` to drop them (full cleaning).
    if self.retain_unobserved_entries:
        for key, task in assignment.routing_table.items():
            if key not in observed:
                new_table.set(key, task, enforce_limit=False)
    for key, task in llfd.routing_entries.items():
        new_table.set(key, task, enforce_limit=False)

    new_assignment = assignment.with_table(new_table)
    plan = reference_build_migration_plan(
        assignment, new_assignment, observed, stats, config.window
    )
    fraction = migration_cost_fraction([move.key for move in plan.moves], stats, config.window)
    return RebalanceResult(
        algorithm=self.name,
        assignment=new_assignment,
        routing_table=new_table,
        migration_plan=plan,
        loads=dict(llfd.loads),
        balanced=llfd.balanced,
        max_theta=llfd.max_theta,
        migration_fraction=fraction,
        moved_back=len(cleaned),
    )
