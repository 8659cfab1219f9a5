"""The dict-walking planners, kept as the oracles for the columnar ones in ``src/``.

These are the bodies ``repro.core`` shipped before planning moved onto aligned
columns (``plan_with_cleaning`` + ``_build_result``, ``least_load_fit_decreasing``,
``build_migration_plan``, ``StatisticsStore.cost_map`` / ``memory_map``,
``SelectionCriteria.sort`` and Mixed's ``_cleaning_order``; then Readj's and
DKG's ``plan``, the compact planner's ``CompactStatistics.from_stats``,
``plan`` and ``_expand``, the discretisers' value-by-value ``discretize``,
``_LadderDiscretizer.discretize_map`` and ``off_hash_entries``), unchanged apart from their names: every step walks
all observed keys in per-key dicts and per-task Python sets.  Two contracts have moved since, and the bodies follow
them: a plan's moves come in table-diff order (the old table's dropped or
retargeted entries in its order, then the new table's additions in theirs),
and the migration fraction is ``M_i`` summed over the moves in that order
(``migration_cost`` / ``migration_cost_fraction``, which ``src/`` no longer
ships).  Nothing under ``src/`` calls them; ``test_planner_oracle.py`` asserts
that the columnar planners return the same plans, field for field and bit for
bit.
"""

from __future__ import annotations

import heapq
import itertools
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.baselines.dkg import DKGPlanner
from repro.baselines.readj import ReadjPlanner
from repro.core.assignment import AssignmentFunction
from repro.core.compact import (
    CompactMixedPlanner,
    CompactRecord,
    CompactStatistics,
    GroupSignature,
    load_estimation_error,
)
from repro.core.criteria import HighestCostFirst, SelectionCriteria, SmallestMemoryFirst
from repro.core.discretization import (
    HLHEDiscretizer,
    NearestValueDiscretizer,
    representative_values,
)
from repro.core.load import load_ceiling, load_from_costs, max_balance_indicator
from repro.core.migration import KeyMove, MigrationPlan
from repro.core.planner import (
    PlannerConfig,
    RebalanceAlgorithm,
    RebalanceResult,
    build_result,
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


# -- Readj, DKG and the compact planner over per-key dicts -----------------------------


def reference_off_hash_entries(
    assignment: AssignmentFunction, placements: Mapping[Key, int]
) -> Dict[Key, int]:
    """The placements a routing table has to pin: those that differ from ``h(k)``."""
    hash_destination = assignment.hash_destination
    return {key: task for key, task in placements.items() if task != hash_destination(key)}


def reference_discretize_map(
    discretizer: HLHEDiscretizer, mapping: Mapping[Key, float]
) -> Dict[Key, float]:
    """Discretise a ``{key: value}`` map, preserving keys."""
    keys = list(mapping.keys())
    values = [mapping[key] for key in keys]
    rounded = reference_discretize(discretizer, values)
    return dict(zip(keys, rounded))


def _reference_bracket_ascending(value: float, ascending: Sequence[float]) -> Tuple[float, float]:
    """The (upper, lower) representatives bracketing ``value`` on an ascending
    ladder (binary search)."""
    if value >= ascending[-1]:
        return ascending[-1], ascending[-1]
    if value < ascending[0]:
        return ascending[0], ascending[0]
    idx = bisect_right(ascending, value) - 1
    lower = ascending[idx]
    upper = ascending[idx + 1] if idx + 1 < len(ascending) else lower
    return upper, lower


def reference_discretize(discretizer: HLHEDiscretizer, values: Sequence[float]) -> List[float]:
    """``discretizer.discretize(values)`` value by value: HLHE's greedy
    deviation-cancelling pass, or the nearest representative of each value."""
    if not values:
        return []
    for value in values:
        if value < 0:
            raise ValueError("values must be non-negative")
    max_value = max((v for v in values if v > 0), default=1.0)
    ascending = list(reversed(representative_values(max_value, discretizer.degree)))
    if isinstance(discretizer, NearestValueDiscretizer):
        result: List[float] = []
        for value in values:
            if value <= 0:
                result.append(0.0)
                continue
            upper, lower = _reference_bracket_ascending(value, ascending)
            if abs(upper - value) < abs(lower - value):
                result.append(upper)
            else:
                result.append(lower)
        return result
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    result = [0.0] * len(values)
    accumulated = 0.0
    for idx in order:
        value = values[idx]
        if value <= 0:
            result[idx] = 0.0
            continue
        upper, lower = _reference_bracket_ascending(value, ascending)
        # Choose the representative minimising |accumulated + (value - rep)|.
        dev_upper = accumulated + (value - upper)
        dev_lower = accumulated + (value - lower)
        if abs(dev_upper) < abs(dev_lower):
            chosen, accumulated = upper, dev_upper
        else:
            chosen, accumulated = lower, dev_lower
        result[idx] = chosen
    return result


class ReferenceReadjPlanner(ReadjPlanner):
    """Readj's pairwise loop over ``{key: cost}`` and ``{key: task}`` dicts."""

    def _candidates(self, costs: Mapping[Key, float]) -> List[Key]:
        """Hot keys: cost at least ``sigma`` times the average key cost.

        Compared in product form (``cost · K ≥ σ · total``) so a subnormal
        total cost cannot underflow the mean to 0 and declare every key hot.
        """
        if not costs:
            return []
        total = sum(costs.values())
        count = len(costs)
        return [key for key, cost in costs.items() if cost * count >= self.sigma * total]

    def plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        started = time.perf_counter()
        costs = reference_cost_map(stats)
        num_tasks = assignment.num_tasks
        keys = list(costs)
        working: Dict[Key, int] = dict(zip(keys, assignment.assign_batch(keys)))
        loads = load_from_costs(costs, working.__getitem__, num_tasks)
        ceiling = load_ceiling(loads, config.theta_max)

        # Step 1: move explicitly routed keys back to their hash destination
        # whenever the receiving task has room.
        for key in list(assignment.routing_table.keys()):
            if key not in working:
                continue
            home = assignment.hash_destination(key)
            current = working[key]
            if home == current:
                continue
            if loads[home] + costs[key] <= ceiling + _EPS:
                loads[current] -= costs[key]
                loads[home] += costs[key]
                working[key] = home

        # Step 2: best-operation search over hot keys.  Evaluating one move or
        # swap needs the load spread with two tasks excluded; keeping the three
        # highest and three lowest loads of the round makes that O(1) instead
        # of a full O(N_D) pass per candidate pair.
        candidates = self._candidates(costs)
        operations = 0
        while operations < self.max_operations:
            if max_balance_indicator(loads) <= config.theta_max:
                break
            best_gain = 0.0
            best_op: Optional[Tuple[str, Key, Optional[Key], int, int]] = None
            by_load = sorted(loads.items(), key=lambda item: item[1])
            lowest3 = by_load[:3]
            highest3 = by_load[-3:]
            spread = by_load[-1][1] - by_load[0][1]

            def spread_excluding(task_x: int, task_y: int, val_x: float, val_y: float) -> float:
                """Spread after tasks x/y take loads val_x/val_y."""
                high = val_x if val_x >= val_y else val_y
                for task, load in reversed(highest3):
                    if task != task_x and task != task_y:
                        if load > high:
                            high = load
                        break
                low = val_x if val_x <= val_y else val_y
                for task, load in lowest3:
                    if task != task_x and task != task_y:
                        if load < low:
                            low = load
                        break
                return high - low

            # Moves: hot key from its task to any other task.
            for key in candidates:
                source = working[key]
                cost = costs[key]
                for target in range(num_tasks):
                    if target == source:
                        continue
                    new_src = loads[source] - cost
                    new_dst = loads[target] + cost
                    gain = spread - spread_excluding(source, target, new_src, new_dst)
                    if gain > best_gain + _EPS:
                        best_gain = gain
                        best_op = ("move", key, None, source, target)

            # Swaps: exchange two hot keys sitting on different tasks.
            for i, key_a in enumerate(candidates):
                for key_b in candidates[i + 1 :]:
                    task_a, task_b = working[key_a], working[key_b]
                    if task_a == task_b:
                        continue
                    diff = costs[key_a] - costs[key_b]
                    new_a = loads[task_a] - diff
                    new_b = loads[task_b] + diff
                    gain = spread - spread_excluding(task_a, task_b, new_a, new_b)
                    if gain > best_gain + _EPS:
                        best_gain = gain
                        best_op = ("swap", key_a, key_b, task_a, task_b)

            if best_op is None:
                break
            kind, key_a, key_b, task_a, task_b = best_op
            if kind == "move":
                loads[task_a] -= costs[key_a]
                loads[task_b] += costs[key_a]
                working[key_a] = task_b
            else:
                assert key_b is not None
                working[key_a], working[key_b] = task_b, task_a
                diff = costs[key_a] - costs[key_b]
                loads[task_a] -= diff
                loads[task_b] += diff
            operations += 1

        return build_result(
            self.name,
            assignment,
            stats,
            config,
            reference_off_hash_entries(assignment, working),
            working.keys(),
            loads=dict(loads),
            balanced=max(loads.values(), default=0.0) <= ceiling + _EPS,
            max_theta=max_balance_indicator(loads),
            started=started,
        )


class ReferenceDKGPlanner(DKGPlanner):
    """DKG over a ``{key: cost}`` dict, hashing key by key."""

    def plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
    ) -> RebalanceResult:
        started = time.perf_counter()
        costs = reference_cost_map(stats)
        # Product-form heavy test (cost · K > factor · total): a subnormal
        # total cost would underflow the divided mean and mark every key heavy.
        total_cost = sum(costs.values())
        count = len(costs)
        threshold = self.heavy_factor * total_cost
        heavy_keys: List[Key] = []
        light: List[Key] = []
        for key, cost in costs.items():
            (heavy_keys if cost * count > threshold else light).append(key)
        heavy = sorted(heavy_keys, key=lambda k: (-costs[k], repr(k)))

        loads: Dict[int, float] = {task: 0.0 for task in range(assignment.num_tasks)}
        placements: Dict[Key, int] = {}
        for key, task in zip(light, assignment.hash_batch(light)):
            placements[key] = task
            loads[task] += costs[key]
        for key in heavy:
            task = min(loads, key=lambda d: (loads[d], d))
            placements[key] = task
            loads[task] += costs[key]

        max_theta = max_balance_indicator(loads)
        return build_result(
            self.name,
            assignment,
            stats,
            config,
            reference_off_hash_entries(assignment, placements),
            placements.keys(),
            loads=loads,
            balanced=max_theta <= config.theta_max,
            max_theta=max_theta,
            retain_unobserved=False,
            started=started,
        )


def reference_compact_statistics(
    stats: StatisticsStore,
    assignment: AssignmentFunction,
    discretizer: Optional[HLHEDiscretizer] = None,
    window: Optional[int] = None,
) -> CompactStatistics:
    """Build the records from per-key statistics.

    ``discretizer=None`` keeps the original (undiscretised) values — the
    "Original Key Space" data point of Fig. 11(a), where every distinct
    value forms its own group.
    """
    costs = reference_cost_map(stats)
    memories = reference_memory_map(stats, window)
    keys = list(costs.keys())
    if discretizer is not None:
        disc_costs = reference_discretize_map(discretizer, costs)
        disc_mems = reference_discretize_map(
            discretizer, {key: memories.get(key, 0.0) for key in keys}
        )
    else:
        disc_costs = dict(costs)
        disc_mems = {key: memories.get(key, 0.0) for key in keys}

    groups: Dict[GroupSignature, List[Key]] = {}
    for key in keys:
        signature = (
            assignment(key),
            assignment.hash_destination(key),
            disc_costs[key],
            disc_mems[key],
        )
        groups.setdefault(signature, []).append(key)

    records = [
        CompactRecord(
            next_dest=signature[0],
            current=signature[0],
            hash_dest=signature[1],
            cost=signature[2],
            memory=signature[3],
            count=len(group_keys),
        )
        for signature, group_keys in sorted(groups.items(), key=lambda kv: repr(kv[0]))
    ]
    # Deterministic expansion order inside each group.
    for group_keys in groups.values():
        group_keys.sort(key=repr)
    return CompactStatistics(records, groups, assignment.num_tasks)


class ReferenceCompactMixedPlanner(CompactMixedPlanner):
    """The compact planner with its records built, and its record moves
    expanded, key by key over per-key dicts (record-level phases shared)."""

    def plan(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: Optional[PlannerConfig] = None,
    ) -> RebalanceResult:
        """Run the adapted Mixed algorithm and expand the plan to concrete keys.

        The result's ``load_estimation_error`` is the Fig. 11(b) metric of
        this round: how far the discretised loads the records were planned
        with sit from the real loads of the expanded assignment.
        """
        config = config if config is not None else PlannerConfig()
        started = time.perf_counter()
        compact = reference_compact_statistics(
            stats, assignment, self.discretizer, config.window
        )
        explicit_keys = sum(
            record.count for record in compact.records if record.is_explicit
        )
        n = 0
        rounds = 0
        final_records: List[CompactRecord] = compact.records
        while True:
            rounds += 1
            final_records = self._single_trial(compact, config, clean_keys=n)
            table_size = sum(
                record.count
                for record in final_records
                if record.next_dest is not None
                and record.next_dest != record.hash_dest
            )
            overflow = (
                0
                if config.max_table_size is None
                else max(0, table_size - config.max_table_size)
            )
            if overflow == 0 or n >= explicit_keys or rounds >= self.max_rounds:
                break
            n = min(explicit_keys, max(n + 1, n + overflow))

        return self._expand(
            assignment, stats, config, compact, final_records, started, rounds, n
        )

    def _expand(
        self,
        assignment: AssignmentFunction,
        stats: StatisticsStore,
        config: PlannerConfig,
        compact: CompactStatistics,
        final_records: List[CompactRecord],
        started: float,
        cleaning_rounds: int,
        moved_back: int,
    ) -> RebalanceResult:
        """Map record-level decisions back onto concrete keys and build F′."""
        # Consume keys group by group: records that keep d'==d leave their keys
        # in place; records that moved take keys from the front of the group.
        cursor: Dict[GroupSignature, int] = {sig: 0 for sig in compact.key_groups}
        placements: Dict[Key, int] = {}

        # First allocate moved records (d' != d) so that staying records keep
        # whatever keys remain — mirrors the paper's "picking up those needing
        # migration" step.
        moved = [r for r in final_records if r.next_dest is not None and r.next_dest != r.current]

        for record in moved:
            group = compact.key_groups.get(record.signature, [])
            start = cursor.get(record.signature, 0)
            selected = group[start : start + record.count]
            cursor[record.signature] = start + len(selected)
            for key in selected:
                placements[key] = record.next_dest  # type: ignore[arg-type]

        # Every other observed key keeps its current destination.
        for signature, group in compact.key_groups.items():
            start = cursor.get(signature, 0)
            for key in group[start:]:
                placements.setdefault(key, signature[0])

        # Every observed key is placed, so the real loads of F′ follow from
        # the placements; the table pins the keys that left their hash.
        actual_loads = load_from_costs(
            reference_cost_map(stats), placements.__getitem__, assignment.num_tasks
        )
        estimated = compact.estimated_loads(final_records)
        return build_result(
            self.name,
            assignment,
            stats,
            config,
            reference_off_hash_entries(assignment, placements),
            placements.keys(),
            loads=actual_loads,
            balanced=max_balance_indicator(estimated) <= config.theta_max + 1e-6,
            max_theta=max_balance_indicator(actual_loads),
            started=started,
            cleaning_rounds=cleaning_rounds,
            moved_back=moved_back,
            load_estimation_error=load_estimation_error(estimated, actual_loads),
        )
