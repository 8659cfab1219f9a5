#!/usr/bin/env python3
"""Microbenchmark of one planning interval per key count: where the ms go.

What a stage coordinator does at each interval close, in process and timed
step by step, at the paper's Tab. II shape (Zipf z = 0.85, f = 1.0, N_D = 10,
A_max = 3000, θ_max = 0.08, expected counts so every interval carries all
``K`` keys) for several ``K``:

* **edge** — ``Snapshot.of`` over the interval as a ``{key: count}`` dict: the
  one dict → columns conversion a caller holding dicts pays per interval
  (the runtime's stage loop does); the generator's snapshots skip it;
* **route** — ``route_snapshot`` of the generator's ``Snapshot`` under the
  assignment in force (the snapshot plan is kept while the key tuple is
  shared: re-routed keys are spliced between its tasks and changed counts
  patched into copies of their tasks' count lists);
* **stats** — ``IntervalStats.from_frequencies`` of the same snapshot: its
  count column, validated and multiplied twice into the frequency / cost /
  memory columns, under its live key tuple (no per-key work —
  ``tests/runtime/test_bench.py`` requires ``stats < route`` at K = 100 000);
* **should_rebalance** — the imbalance check (builds the interval's columns,
  evaluates ``F`` over the observed keys once);
* **plan** — the planning round itself, reusing those columns;
* **delta** — the part of **plan** that finds ``Δ(F, F′)`` and costs it:
  ``build_migration_plan`` (read off the routing-table diff) plus the
  window's total state the migration fraction divides by, summed over every
  call one planning round makes (Mixed builds one result per cleaning trial);
* **rank** — the part of **plan** that scores and ranks keys: every step of a
  ``SelectionCriteria.ranked`` generator (γ over the ranked positions, the
  sort, the tie runs it reaches), summed per planning round like **delta**;
* **interval_end** — the whole ``on_interval_end`` (check + plan + memo patch),
  over the same closes as **plan**: those that planned.

Usage::

    python scripts/bench_planner.py
    python scripts/bench_planner.py --keys 10000 100000 --intervals 12

The table prints to stderr and the JSON payload to stdout.  The checks on its
rows are tier-1 tests (``tests/runtime/test_bench.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.core.planner as planner_module  # noqa: E402
from repro.core.criteria import SelectionCriteria  # noqa: E402
from repro.core.snapshot import Snapshot  # noqa: E402
from repro.core.statistics import IntervalStats  # noqa: E402
from repro.core.strategy import get_strategy  # noqa: E402
from repro.workloads.zipf import ZipfWorkload  # noqa: E402

NUM_TASKS = 10
TUNABLES = dict(theta_max=0.08, max_table_size=3000, beta=1.5, window=1)


def _timed(method: Callable[..., Any], sink: List[float]) -> Callable[..., Any]:
    """``method`` recording the seconds of each call into ``sink``."""

    def call(*args: Any) -> Any:
        started = time.perf_counter()
        try:
            return method(*args)
        finally:
            sink.append(time.perf_counter() - started)

    return call


def _timed_steps(method: Callable[..., Any], sink: List[float]) -> Callable[..., Any]:
    """Generator ``method`` recording the seconds of each step into ``sink``
    (the consumer's work between steps is not counted)."""

    def call(*args: Any) -> Any:
        steps = method(*args)
        while True:
            started = time.perf_counter()
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                sink.append(time.perf_counter() - started)
            yield item

    return call


def _median_ms(seconds: List[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def run_row(strategy: str, num_keys: int, intervals: int, seed: int) -> Dict[str, Any]:
    """Drive ``strategy`` over ``intervals`` snapshots of ``num_keys`` keys."""
    snapshots = ZipfWorkload(
        num_keys=num_keys,
        skew=0.85,
        tuples_per_interval=10 * num_keys,
        fluctuation=1.0,
        num_tasks=NUM_TASKS,
        intervals=intervals,
        seed=seed,
        sampled=False,
    ).take(intervals)
    partitioner = get_strategy(strategy).build(NUM_TASKS, seed=seed, **TUNABLES)
    edge_s: List[float] = []
    route_s: List[float] = []
    stats_s: List[float] = []
    check_s: List[float] = []
    plan_s: List[float] = []
    end_s: List[float] = []
    delta_s: List[float] = []
    rank_s: List[float] = []
    partitioner.should_rebalance = _timed(partitioner.should_rebalance, check_s)
    partitioner.rebalance = _timed(partitioner.rebalance, plan_s)
    edge = _timed(Snapshot.of, edge_s)
    route = _timed(partitioner.route_snapshot, route_s)
    build = _timed(IntervalStats.from_frequencies, stats_s)
    end = _timed(partitioner.on_interval_end, end_s)
    stats = partitioner.stats
    stats.total_windowed_memory = _timed(stats.total_windowed_memory, delta_s)
    results = []
    # Steady-state (interval >= 1) closes that planned: the plan's seconds,
    # the Δ and ranking seconds inside it and those of the ``on_interval_end``
    # call containing it, pairwise.
    planning_plan_s: List[float] = []
    planning_delta_s: List[float] = []
    planning_rank_s: List[float] = []
    planning_end_s: List[float] = []
    build_migration_plan = planner_module.build_migration_plan
    ranked = SelectionCriteria.ranked
    planner_module.build_migration_plan = _timed(build_migration_plan, delta_s)
    SelectionCriteria.ranked = _timed_steps(ranked, rank_s)
    try:
        for interval, snapshot in enumerate(snapshots):
            edge(dict(snapshot.items()))
            route(snapshot)
            plans_before, deltas_before, ranks_before = len(plan_s), len(delta_s), len(rank_s)
            result = end(build(interval, snapshot))
            if result is not None:
                results.append(result)
            if interval and len(plan_s) > plans_before:
                planning_plan_s.append(plan_s[-1])
                planning_delta_s.append(sum(delta_s[deltas_before:]))
                planning_rank_s.append(sum(rank_s[ranks_before:]))
                planning_end_s.append(end_s[-1])
    finally:
        planner_module.build_migration_plan = build_migration_plan
        SelectionCriteria.ranked = ranked
    return {
        "num_keys": num_keys,
        "intervals": intervals,
        "plans": len(results),
        "moved_keys": sum(len(result.migrated_keys) for result in results),
        "table_size": results[-1].table_size if results else 0,
        # The first interval routes and hashes every key cold; medians over
        # the rest are the steady state a long-running stage sees.
        "edge_ms": _median_ms(edge_s[1:]),
        "route_ms": _median_ms(route_s[1:]),
        "stats_ms": _median_ms(stats_s[1:]),
        "should_rebalance_ms": _median_ms(check_s[1:]),
        # Both over the same closes — those that planned — so the end time
        # is never below the plan time it contains (an interval that does not
        # plan closes in microseconds and would drag one median, not both).
        "plan_ms": _median_ms(planning_plan_s),
        "delta_ms": _median_ms(planning_delta_s),
        "rank_ms": _median_ms(planning_rank_s),
        "interval_end_ms": _median_ms(planning_end_s),
    }


def run_benchmark(
    *,
    strategy: str = "mixed",
    key_counts: List[int] = (10_000, 30_000, 100_000),
    intervals: int = 8,
    seed: int = 0,
) -> Dict[str, Any]:
    return {
        "strategy": strategy,
        "num_tasks": NUM_TASKS,
        "rows": [run_row(strategy, num_keys, intervals, seed) for num_keys in key_counts],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strategy", default="mixed")
    parser.add_argument("--keys", type=int, nargs="+", default=[10_000, 30_000, 100_000])
    parser.add_argument("--intervals", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.intervals < 2:
        parser.error("--intervals must be at least 2 (the first one is the cold start)")

    result = run_benchmark(
        strategy=args.strategy, key_counts=args.keys, intervals=args.intervals, seed=args.seed
    )
    print(
        f"{'K':>8} {'edge':>8} {'route':>8} {'stats':>8} {'check':>8} {'plan':>8} "
        f"{'delta':>8} {'rank':>8} {'end':>8}  "
        f"ms (median), {result['strategy']}",
        file=sys.stderr,
    )
    for row in result["rows"]:
        print(
            f"{row['num_keys']:>8} {row['edge_ms']:>8.1f} {row['route_ms']:>8.1f} "
            f"{row['stats_ms']:>8.1f} "
            f"{row['should_rebalance_ms']:>8.1f} {row['plan_ms']:>8.1f} "
            f"{row['delta_ms']:>8.1f} {row['rank_ms']:>8.1f} {row['interval_end_ms']:>8.1f}  "
            f"{row['plans']} plans, "
            f"{row['moved_keys']} keys moved, table {row['table_size']}",
            file=sys.stderr,
        )
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
