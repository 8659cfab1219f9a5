"""Least-Load Fit Decreasing (LLFD) — Algorithm 1 of the paper.

LLFD is the Phase-III subroutine shared by MinTable, MinMig and Mixed.  It
takes a *candidate set* ``C`` of keys that have been disassociated from their
tasks and re-places them:

1. candidates are processed in non-increasing order of computation cost;
2. each candidate is offered to the tasks in non-decreasing order of their
   current (estimated) load;
3. ``Adjust`` accepts the placement if the task stays below the ceiling
   ``L_max = (1 + θ_max) · L̄``; otherwise it tries to build an *exchangeable
   set* ``E`` of strictly cheaper keys currently on that task whose removal
   makes room — those keys are disassociated and pushed back into ``C``;
4. if no task can accept the candidate even with exchanges, the key is placed
   on the least-loaded task as a best-effort fallback (the result is then
   reported as not balanced).

The exchangeable-set conditions (i)–(iii) guarantee progress: every key pushed
back into ``C`` has a strictly smaller cost than the key that displaced it, so
the multiset of candidate costs decreases lexicographically and the loop
terminates.

The subroutine runs on aligned columns (keys, costs, memories, hash and current
destinations): the initial loads are one ``np.bincount``, a task's resident
keys are looked up only when an ``Adjust`` exchange inspects that task, and
the Python work is proportional to the keys LLFD actually touches.
:func:`least_load_fit_decreasing` is the mapping-based front door to the same
code.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Collection,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.criteria import HighestCostFirst, SelectionCriteria
from repro.core.load import max_balance_indicator
from repro.core.statistics import KeyColumns

__all__ = ["LLFDResult", "least_load_fit_decreasing", "llfd_columns"]

Key = Hashable
HashFunction = Callable[[Key], int]

#: Numerical slack for load-ceiling comparisons, so float accumulation noise
#: does not spuriously reject an assignment that is exactly at the ceiling.
_EPS = 1e-9


@dataclass
class LLFDResult:
    """Outcome of one LLFD run."""

    #: Estimated per-task load after the placement.
    loads: Dict[int, float] = field(default_factory=dict)
    #: Entries ``(k, d)`` with ``d != h(k)`` — the new routing table content.
    routing_entries: Dict[Key, int] = field(default_factory=dict)
    #: Whether every task ended below the ``(1 + θ_max) · L̄`` ceiling.
    balanced: bool = True
    #: Number of candidates that had to be force-placed on the least-loaded
    #: task because no instance could accept them.
    fallback_placements: int = 0
    #: Number of Adjust exchanges performed.
    exchanges: int = 0
    #: Every key the subroutine was aware of (candidates plus keys that stayed
    #: put plus keys displaced by exchanges) and, aligned, its final task.
    keys: Sequence[Key] = ()
    destinations: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    @property
    def placements(self) -> Dict[Key, int]:
        """Final destination of every key, as a dict (built on demand)."""
        return dict(zip(self.keys, self.destinations.tolist()))

    @property
    def max_theta(self) -> float:
        """Largest balance indicator of the estimated final loads."""
        return max_balance_indicator(self.loads)


def least_load_fit_decreasing(
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
) -> LLFDResult:
    """Run LLFD (Algorithm 1) over ``{key: value}`` mappings.

    Parameters
    ----------
    candidates:
        Keys disassociated in Phase II — the candidate set ``C``.
    assignment:
        Current destination of every key *not* in the candidate set.  Keys in
        this mapping are eligible to join an exchangeable set.
    costs:
        ``c_{i-1}(k)`` for every key appearing in ``candidates`` or
        ``assignment``.
    memories:
        ``S_{i-1}(k, w)`` for the same keys (used only by γ-based criteria).
    num_tasks:
        ``N_D`` — number of downstream tasks.
    theta_max:
        Imbalance tolerance.
    hash_function:
        ``h`` — used to decide which placements need a routing-table entry.
    criteria:
        Selection criterion ``ψ`` for the exchangeable set.  Defaults to
        highest-cost-first.
    base_loads:
        Extra per-task load that is not described by ``assignment``/``costs``
        (e.g. load of keys outside the statistics window).  Defaults to zero.

    Returns
    -------
    LLFDResult
        Final placements, loads, routing entries and balance diagnostics.
    """
    if not isinstance(candidates, Collection):
        candidates = list(candidates)
    candidate_set = set(candidates)
    keys = [key for key in assignment if key not in candidate_set]
    destinations = [assignment[key] for key in keys]
    keys.extend(candidate_set)
    destinations.extend(itertools.repeat(-1, len(candidate_set)))
    count = len(keys)
    columns = KeyColumns(
        keys,
        np.fromiter((costs.get(key, 0.0) for key in keys), dtype=float, count=count),
        np.fromiter((memories.get(key, 0.0) for key in keys), dtype=float, count=count),
    )
    return llfd_columns(
        columns,
        np.fromiter(map(hash_function, keys), dtype=np.intp, count=count),
        np.array(destinations, dtype=np.intp),
        candidates,
        num_tasks,
        theta_max,
        criteria,
        base_loads=base_loads,
    )


def llfd_columns(
    columns: KeyColumns,
    hashed: np.ndarray,
    destinations: np.ndarray,
    candidates: Iterable[Key],
    num_tasks: int,
    theta_max: float,
    criteria: Optional[SelectionCriteria] = None,
    *,
    base_loads: Optional[Mapping[int, float]] = None,
) -> LLFDResult:
    """Run LLFD (Algorithm 1) over aligned columns.

    ``columns.keys[i]`` has hash destination ``hashed[i]`` and current
    destination ``destinations[i]`` (ignored for candidates).
    ``destinations`` is edited in place and becomes the result's final
    placement column.
    """
    if num_tasks <= 0:
        raise ValueError(f"num_tasks must be positive, got {num_tasks}")
    if theta_max < 0:
        raise ValueError(f"theta_max must be non-negative, got {theta_max}")
    criteria = criteria if criteria is not None else HighestCostFirst()
    keys, cost, memory, index = columns.keys, columns.cost, columns.memory, columns.index

    candidate_set: Set[Key] = set(candidates)
    # Position → task of every key LLFD placed, in placement order (a key
    # displaced by an exchange leaves and re-enters at the end).
    touched: Dict[int, int] = {}
    unsettled = np.fromiter(
        (index[key] for key in candidate_set), dtype=np.intp, count=len(candidate_set)
    )
    # A candidate counts on task 0 with weight 0.0 until it is placed.
    destinations[unsettled] = 0
    invalid = (destinations < 0) | (destinations >= num_tasks)
    if invalid.any():
        at = int(np.flatnonzero(invalid)[0])
        raise ValueError(
            f"assignment routes key {keys[at]!r} to invalid task {int(destinations[at])}"
        )
    # One bincount, adding in column order on top of the base loads — the same
    # float additions a per-key loop over the settled keys would make, since
    # adding the candidates' +0.0 to a sum that starts at +0.0 changes no bit.
    base = [float(base_loads.get(task, 0.0)) if base_loads else 0.0 for task in range(num_tasks)]
    weights = np.concatenate((base, cost))
    weights[num_tasks + unsettled] = 0.0
    loads: Dict[int, float] = dict(
        enumerate(
            np.bincount(
                np.concatenate((np.arange(num_tasks), destinations)),
                weights=weights,
                minlength=num_tasks,
            ).tolist()
        )
    )
    destinations[unsettled] = -1

    # The ceiling is fixed from the *total* load (which never changes during
    # the run): L_max = (1 + θ_max) · L̄_{i-1}.  Note the final division can
    # still underflow for subnormal totals — the underflow-proof comparisons
    # live in the product-form helpers of repro.core.load; at these magnitudes
    # a zero ceiling only makes the fit checks conservative.
    total_load = sum(loads.values()) + sum(cost.item(index[key]) for key in candidate_set)
    ceiling = (1.0 + theta_max) * total_load / num_tasks

    # Max-heap of candidates ordered by decreasing cost (ties broken on repr
    # for determinism).  Keys displaced by Adjust are pushed back in.
    counter = itertools.count()
    heap: List[Tuple[float, str, int, int]] = []
    for key in candidate_set:
        at = index[key]
        heapq.heappush(heap, (-cost.item(at), repr(key), next(counter), at))

    result = LLFDResult(keys=keys, destinations=destinations)

    def cheaper_residents(task: int, limit: float) -> Iterator[int]:
        """Positions on ``task`` with a cost strictly below ``limit``, in ψ order."""
        resident = np.flatnonzero((destinations == task) & (cost < limit))
        return criteria.ranked(keys, cost, memory, resident)

    def displace(at: int, task: int) -> None:
        """Disassociate ``keys[at]`` from ``task`` and push it back into C."""
        destinations[at] = -1
        touched.pop(at, None)
        loads[task] -= cost.item(at)
        heapq.heappush(heap, (-cost.item(at), repr(keys[at]), next(counter), at))
        result.exchanges += 1

    def try_adjust(key_cost: float, task: int) -> bool:
        """The Adjust function of Algorithm 1 (lines 10-20)."""
        if loads[task] + key_cost <= ceiling + _EPS:
            return True
        # Attempt to build an exchangeable set E of keys on `task`, each with a
        # strictly smaller cost than the key, whose removal makes room.
        selected: List[int] = []
        freed = 0.0
        needed = loads[task] + key_cost - ceiling
        for other in cheaper_residents(task, key_cost):
            if freed >= needed - _EPS:
                break
            selected.append(other)
            freed += cost.item(other)
        if freed < needed - _EPS:
            return False
        for other in selected:
            displace(other, task)
        return True

    while heap:
        _, _, _, at = heapq.heappop(heap)
        key_cost = cost.item(at)
        # Offer the key to tasks in ascending order of current load.
        order = sorted(range(num_tasks), key=lambda task: (loads[task], task))
        for task in order:
            if try_adjust(key_cost, task):
                break
        else:
            # Best-effort fallback for keys no task can absorb within the
            # ceiling (typically a single key whose cost exceeds L̄, outside
            # Theorem 1's precondition).  Place it on the least-loaded task and
            # displace strictly cheaper resident keys so the oversized key ends
            # up (almost) alone there — the same outcome Simple/LPT reaches.
            task = order[0]
            for other in cheaper_residents(task, key_cost):
                if loads[task] + key_cost <= ceiling + _EPS:
                    break
                displace(other, task)
            result.fallback_placements += 1
        destinations[at] = task
        touched[at] = task
        loads[task] += key_cost

    result.loads = loads
    # New table content: untouched keys whose (old, kept) destination is not
    # their hash, in key order, then the touched keys in placement order — the
    # order a {key: task} dict of all placements would list them in.
    off_hash = np.flatnonzero(destinations != hashed).tolist()
    result.routing_entries = {
        keys[at]: int(destinations[at]) for at in off_hash if at not in touched
    }
    result.routing_entries.update(
        (keys[at], task) for at, task in touched.items() if hashed[at] != task
    )
    result.balanced = (
        result.fallback_placements == 0
        and max(loads.values(), default=0.0) <= ceiling + _EPS
    )
    return result
