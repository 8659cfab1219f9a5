"""Compact statistics representation and the adapted Mixed planner (Section IV).

Transmitting and planning over per-key statistics does not scale to millions of
keys, so the controller groups keys into six-dimensional records::

    (d', d, d_h, v_c, v_S, #)

where ``d'`` is the next destination (``nil`` while the record sits in the
candidate set), ``d`` the current destination, ``d_h`` the hash destination,
``v_c``/``v_S`` the *discretised* computation cost and window memory of each
key in the group, and ``#`` the number of grouped keys.

:class:`CompactStatistics` builds the records from an interval snapshot, an
assignment function and a discretiser.  :class:`CompactMixedPlanner` runs the
adapted Mixed algorithm directly over the records (splitting a record when only
part of its keys must move) and finally expands the record-level moves back to
concrete keys — reproducing Fig. 11's order-of-magnitude planning-time
reduction at the price of a bounded load-estimation error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.assignment import AssignmentFunction
from repro.core.criteria import gamma_index
from repro.core.discretization import HLHEDiscretizer
from repro.core.load import load_ceiling, load_from_columns, max_balance_indicator
from repro.core.planner import PlannerConfig, RebalanceResult, build_result
from repro.core.statistics import StatisticsStore

__all__ = [
    "CompactRecord",
    "CompactStatistics",
    "CompactMixedPlanner",
    "load_estimation_error",
]

Key = Hashable

_EPS = 1e-9

#: Group signature: (current destination d, hash destination d_h, v_c, v_S).
GroupSignature = Tuple[int, int, float, float]


@dataclass(frozen=True)
class CompactRecord:
    """One six-dimensional record of the compact representation."""

    next_dest: Optional[int]  # d' — None encodes the paper's ``nil``
    current: int  # d
    hash_dest: int  # d_h
    cost: float  # v_c (discretised, per key)
    memory: float  # v_S (discretised, per key)
    count: int  # number of keys grouped in this record

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("record count must be non-negative")
        if self.cost < 0 or self.memory < 0:
            raise ValueError("record cost/memory must be non-negative")

    @property
    def signature(self) -> GroupSignature:
        """The grouping signature ``(d, d_h, v_c, v_S)``."""
        return (self.current, self.hash_dest, self.cost, self.memory)

    @property
    def total_cost(self) -> float:
        """Aggregate load carried by all keys of the record (``v_c · #``)."""
        return self.cost * self.count

    @property
    def total_memory(self) -> float:
        """Aggregate state carried by all keys of the record (``v_S · #``)."""
        return self.memory * self.count

    @property
    def is_explicit(self) -> bool:
        """True when the record's keys need a routing-table entry (d ≠ d_h)."""
        return self.current != self.hash_dest

    def split(self, count: int) -> Tuple["CompactRecord", "CompactRecord"]:
        """Split into ``(taken, remainder)`` records of ``count`` / rest keys."""
        if count < 0 or count > self.count:
            raise ValueError(f"cannot take {count} keys from a record of {self.count}")
        return replace(self, count=count), replace(self, count=self.count - count)


class CompactStatistics:
    """The full compact view of one planning round's statistics.

    ``key_groups`` lists, per group signature, the positions of the group's
    keys in the interval's columns (``stats.columns(window)``), ordered by
    the keys' ``repr``; ``records`` are the groups ordered by the ``repr``
    of their signature.
    """

    def __init__(
        self,
        records: List[CompactRecord],
        key_groups: Dict[GroupSignature, List[int]],
        num_tasks: int,
    ) -> None:
        self.records = records
        self.key_groups = key_groups
        self.num_tasks = int(num_tasks)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_stats(
        cls,
        stats: StatisticsStore,
        assignment: AssignmentFunction,
        discretizer: Optional[HLHEDiscretizer] = None,
        window: Optional[int] = None,
    ) -> "CompactStatistics":
        """Build the records from the interval's cost and window-memory columns,
        with ``d`` and ``d_h`` read off ``F`` and ``h`` over them.

        ``discretizer=None`` keeps the original (undiscretised) values — the
        "Original Key Space" data point of Fig. 11(a), where every distinct
        value forms its own group.
        """
        columns = stats.columns(window)
        hashed, routed = assignment.route_columns(columns)
        cost, memory = columns.cost.tolist(), columns.memory.tolist()
        if discretizer is not None:
            cost, memory = discretizer.discretize(cost), discretizer.discretize(memory)

        groups: Dict[GroupSignature, List[int]] = {}
        for at, signature in enumerate(zip(routed.tolist(), hashed.tolist(), cost, memory)):
            groups.setdefault(signature, []).append(at)

        records = [
            CompactRecord(
                next_dest=signature[0],
                current=signature[0],
                hash_dest=signature[1],
                cost=signature[2],
                memory=signature[3],
                count=len(positions),
            )
            for signature, positions in sorted(groups.items(), key=lambda kv: repr(kv[0]))
        ]
        # Deterministic expansion order inside each group.
        reprs = list(map(repr, columns.keys))
        for positions in groups.values():
            positions.sort(key=reprs.__getitem__)
        return cls(records, groups, assignment.num_tasks)

    # -- queries ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def total_keys(self) -> int:
        return sum(record.count for record in self.records)

    def estimated_loads(self, records: Optional[Sequence[CompactRecord]] = None) -> Dict[int, float]:
        """Per-task load estimated from (discretised) record costs by ``d'``."""
        records = self.records if records is None else records
        loads: Dict[int, float] = {task: 0.0 for task in range(self.num_tasks)}
        for record in records:
            if record.next_dest is None:
                continue
            loads[record.next_dest] += record.total_cost
        return loads


class CompactMixedPlanner:
    """Adapted Mixed algorithm running over compact records.

    The structure mirrors Algorithm 4: an (incrementally deepened) cleaning
    phase by smallest ``v_S`` first, candidate selection from overloaded tasks
    by largest γ, and a least-load-fit assignment phase.  Records are split
    when only part of their keys must move, which keeps load estimates tight
    without falling back to per-key work.
    """

    #: Sentinel distinguishing "use the default ladder" from an explicit
    #: ``discretizer=None`` (no discretisation, the original-key-space
    #: baseline of Fig. 11(a)).
    _DEFAULT_DISCRETIZER = object()

    def __init__(
        self,
        discretizer: Any = _DEFAULT_DISCRETIZER,
        max_rounds: int = 64,
    ) -> None:
        if discretizer is self._DEFAULT_DISCRETIZER:
            discretizer = HLHEDiscretizer(8)
        self.discretizer: Optional[HLHEDiscretizer] = discretizer
        self.max_rounds = max_rounds

    name = "compact-mixed"

    # -- public API ---------------------------------------------------------------

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
        compact = CompactStatistics.from_stats(
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

    # -- record-level Mixed ----------------------------------------------------------

    def _single_trial(
        self,
        compact: CompactStatistics,
        config: PlannerConfig,
        clean_keys: int,
    ) -> List[CompactRecord]:
        """One cleaning/preparing/assigning pass over the records."""
        num_tasks = compact.num_tasks
        records: List[CompactRecord] = [replace(r) for r in compact.records]

        # Phase I: move back `clean_keys` keys chosen from explicitly routed
        # records, smallest memory (v_S) first.  Records may be split.
        if clean_keys > 0:
            explicit = sorted(
                (idx for idx, r in enumerate(records) if r.is_explicit),
                key=lambda idx: (records[idx].memory, repr(records[idx].signature)),
            )
            remaining = clean_keys
            for idx in explicit:
                if remaining <= 0:
                    break
                record = records[idx]
                take = min(record.count, remaining)
                moved, rest = record.split(take)
                moved = replace(moved, next_dest=moved.hash_dest)
                records[idx] = rest
                records.append(moved)
                remaining -= take
            records = [r for r in records if r.count > 0]

        # Phase II: compute estimated loads by d' and disassociate (set d'=nil)
        # record portions from overloaded tasks, largest gamma first.
        loads = {task: 0.0 for task in range(num_tasks)}
        for record in records:
            if record.next_dest is not None:
                loads[record.next_dest] += record.total_cost
        ceiling = load_ceiling(loads, config.theta_max)

        candidates: List[CompactRecord] = []
        task_records: Dict[int, List[CompactRecord]] = {t: [] for t in range(num_tasks)}
        for record in records:
            if record.next_dest is None:
                candidates.append(record)
            else:
                task_records[record.next_dest].append(record)

        for task in range(num_tasks):
            recs = task_records[task]
            ordered = sorted(
                range(len(recs)),
                key=lambda idx, recs=recs: (
                    -gamma_index(recs[idx].cost, recs[idx].memory, config.beta),
                    repr(recs[idx].signature),
                ),
            )
            excess = loads[task] - ceiling
            for idx in ordered:
                record = task_records[task][idx]
                if excess <= _EPS or record.cost <= 0:
                    continue
                # Number of keys to shed from this record (never more than it has).
                shed = min(record.count, int(-(-excess // record.cost)))
                moved, rest = record.split(shed)
                moved = replace(moved, next_dest=None)
                candidates.append(moved)
                task_records[task][idx] = rest
                excess -= moved.total_cost
                loads[task] -= moved.total_cost
            task_records[task] = [r for r in task_records[task] if r.count > 0]

        # Phase III: adapted LLFD over candidate records.  Candidates are
        # processed in descending per-key cost; a record is split so that each
        # chunk fills the least-loaded task up to the ceiling.  When no task
        # has room, an Adjust-style exchange displaces strictly cheaper record
        # portions from the target task back into the candidate heap.
        placed_final = self._assign_candidates(
            candidates, task_records, loads, ceiling, num_tasks, config
        )
        return placed_final

    def _assign_candidates(
        self,
        candidates: List[CompactRecord],
        task_records: Dict[int, List[CompactRecord]],
        loads: Dict[int, float],
        ceiling: float,
        num_tasks: int,
        config: PlannerConfig,
    ) -> List[CompactRecord]:
        """Record-level LLFD (Phase III of the adapted Mixed algorithm)."""
        import heapq
        import itertools

        counter = itertools.count()
        heap: List[Tuple[float, str, int, CompactRecord]] = []
        for record in candidates:
            if record.count > 0:
                heapq.heappush(
                    heap, (-record.cost, repr(record.signature), next(counter), record)
                )

        def push_candidate(record: CompactRecord) -> None:
            heapq.heappush(
                heap, (-record.cost, repr(record.signature), next(counter), record)
            )

        def place(task: int, record: CompactRecord, count: int) -> CompactRecord:
            """Assign ``count`` keys of ``record`` to ``task``; return remainder."""
            chunk, remainder = record.split(count)
            chunk = replace(chunk, next_dest=task)
            task_records[task].append(chunk)
            loads[task] += chunk.total_cost
            return remainder

        def try_exchange(task: int, cost: float) -> bool:
            """Displace cheaper portions from ``task`` so one key of ``cost`` fits."""
            needed = loads[task] + cost - ceiling
            displaceable = sorted(
                (idx for idx, r in enumerate(task_records[task]) if 0 < r.cost < cost),
                key=lambda idx: (
                    -gamma_index(
                        task_records[task][idx].cost,
                        task_records[task][idx].memory,
                        config.beta,
                    ),
                    repr(task_records[task][idx].signature),
                ),
            )
            chosen: List[Tuple[int, int]] = []
            freed = 0.0
            for idx in displaceable:
                if freed >= needed - _EPS:
                    break
                record = task_records[task][idx]
                still_needed = needed - freed
                keys = min(record.count, int(-(-still_needed // record.cost)))
                chosen.append((idx, keys))
                freed += keys * record.cost
            if freed < needed - _EPS:
                return False
            for idx, keys in chosen:
                record = task_records[task][idx]
                moved, rest = record.split(keys)
                task_records[task][idx] = rest
                loads[task] -= moved.total_cost
                push_candidate(replace(moved, next_dest=None))
            task_records[task] = [r for r in task_records[task] if r.count > 0]
            return True

        while heap:
            _, _, _, record = heapq.heappop(heap)
            remaining = record
            while remaining.count > 0:
                order = sorted(range(num_tasks), key=lambda d: (loads[d], d))
                placed = False
                for task in order:
                    headroom = ceiling - loads[task]
                    if remaining.cost <= 0:
                        remaining = place(task, remaining, remaining.count)
                        placed = True
                        break
                    fits = int((headroom + _EPS) // remaining.cost)
                    if fits >= 1:
                        remaining = place(task, remaining, min(fits, remaining.count))
                        placed = True
                        break
                    if try_exchange(task, remaining.cost):
                        headroom = ceiling - loads[task]
                        fits = max(1, int((headroom + _EPS) // remaining.cost))
                        remaining = place(task, remaining, min(fits, remaining.count))
                        placed = True
                        break
                if not placed:
                    # Best-effort fallback: spread the stragglers over the
                    # least-loaded tasks one fair share at a time.
                    share = max(1, remaining.count // num_tasks)
                    remaining = place(order[0], remaining, min(share, remaining.count))

        final: List[CompactRecord] = []
        for task in range(num_tasks):
            final.extend(r for r in task_records[task] if r.count > 0)
        return final

    # -- expansion -------------------------------------------------------------------

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
        columns = stats.columns(config.window)
        keys = columns.keys
        _, working = assignment.route_columns(columns)
        # Consume keys group by group: records that moved (d' != d) take keys
        # from the front of their group — mirrors the paper's "picking up
        # those needing migration" step — and every other key keeps its
        # current destination.  The table pins the keys off their hash in
        # that order: the moved ones, then each group's remaining ones.
        cursor: Dict[GroupSignature, int] = {}
        entries: Dict[Key, int] = {}
        for record in final_records:
            if record.next_dest is None or record.next_dest == record.current:
                continue
            start = cursor.get(record.signature, 0)
            selected = compact.key_groups[record.signature][start : start + record.count]
            cursor[record.signature] = start + len(selected)
            working[selected] = record.next_dest
            if record.next_dest != record.hash_dest:
                entries.update((keys[at], record.next_dest) for at in selected)
        for signature, group in compact.key_groups.items():
            if signature[0] != signature[1]:
                entries.update((keys[at], signature[0]) for at in group[cursor.get(signature, 0) :])

        actual_loads = load_from_columns(working, columns.cost, assignment.num_tasks)
        estimated = compact.estimated_loads(final_records)
        return build_result(
            self.name,
            assignment,
            stats,
            config,
            entries,
            columns.index,
            loads=actual_loads,
            balanced=max_balance_indicator(estimated) <= config.theta_max + 1e-6,
            max_theta=max_balance_indicator(actual_loads),
            started=started,
            cleaning_rounds=cleaning_rounds,
            moved_back=moved_back,
            load_estimation_error=load_estimation_error(estimated, actual_loads),
        )


def load_estimation_error(
    estimated: Mapping[int, float], actual: Mapping[int, float]
) -> float:
    """Average relative divergence between estimated and actual task loads.

    This is the Fig. 11(b) metric: the percentage (here returned as a fraction)
    by which the discretised-load estimate deviates from the true workload of a
    task, averaged over tasks.  Tasks with no actual load are skipped.
    """
    errors: List[float] = []
    for task, real in actual.items():
        if real <= 0:
            continue
        errors.append(abs(estimated.get(task, 0.0) - real) / real)
    if not errors:
        return 0.0
    return sum(errors) / len(errors)
