#!/usr/bin/env python3
"""Microbenchmark of the StreamRouter dispatch hot path: routed tuples/s.

The coordinator-bound configuration: one router dispatching a Zipf-skewed
key stream into no-op sink queues, so the dispatch path — routing,
accounting, task-major grouping — is the only measured cost.  Two
implementations run on the identical stream:

* **vectorized** — the shipped :class:`~repro.runtime.router.StreamRouter`
  (chunk-level Counter/np.bincount accounting, batched costs, one-pass
  grouping);
* **per-tuple reference** — a faithful port of the pre-vectorization
  dispatch loop (per-tuple dict updates, one cost call per tuple and
  ``setdefault`` grouping): ``tests/runtime/reference_router.py``, the oracle
  of ``test_router_parity.py``, timed here so the speedup stays a *tracked
  number* in the benchmark trajectory.

Usage::

    PYTHONPATH=src python scripts/bench_router.py
    PYTHONPATH=src python scripts/bench_router.py --tuples 500000 --tasks 8
    PYTHONPATH=src python scripts/bench_router.py --merge-into BENCH_runtime.json

``--merge-into`` folds the result into an existing ``BENCH_runtime.json``
report under the ``router_micro`` key (validated by
``scripts/validate_bench.py``); without it the JSON payload prints to
stdout.  CI runs this in the bench-trajectory job on every push.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "tests" / "runtime"))

import numpy as np  # noqa: E402
from reference_router import ReferenceRouter  # noqa: E402

from repro.baselines.hash_only import HashPartitioner  # noqa: E402
from repro.operators.windowed_join import WindowedJoin  # noqa: E402
from repro.runtime.router import StreamRouter  # noqa: E402

Key = Hashable


class _SinkQueue:
    """No-op worker queue: makes the dispatcher the only measured cost."""

    __slots__ = ("batches",)

    def __init__(self) -> None:
        self.batches = 0

    def put(self, item: Any, timeout: Optional[float] = None) -> None:
        self.batches += 1


def _zipf_keys(
    num_tuples: int, num_keys: int, skew: float, seed: int
) -> List[int]:
    ranks = np.arange(1, num_keys + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    probabilities = weights / weights.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(num_keys, size=num_tuples, p=probabilities).tolist()


def _measure(run, tuples: int, repeats: int) -> float:
    """Best-of-``repeats`` routed tuples/s (ignores scheduler hiccups)."""
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, tuples / elapsed)
    return best


def run_benchmark(
    *,
    num_tuples: int = 400_000,
    num_tasks: int = 4,
    num_keys: int = 20_000,
    batch_size: int = 4096,
    skew: float = 1.2,
    seed: int = 0,
    repeats: int = 5,
) -> Dict[str, Any]:
    """Measure both dispatch implementations on one Zipf key stream.

    The defaults are the *coordinator-bound* configuration: large micro
    batches (4096) into free sinks, i.e. the regime a chain enters when its
    dispatcher thread — not its workers — limits throughput, which is
    exactly where the vectorised chunk operations pay.
    """
    keys = _zipf_keys(num_tuples, num_keys, skew, seed)
    values = [1.0] * num_tuples
    # The cost model of the Q5 chain's join stages (DimensionJoin subclasses
    # WindowedJoin): an affine per-tuple cost, which the vectorized path
    # evaluates once per chunk and the reference once per tuple.
    logic = WindowedJoin(window=2, cost_per_tuple=0.75, cost_per_match=0.05)

    def join_cost(key: Key, value: Any) -> float:
        return 0.75 + 0.05 * 1.0

    # Steady-state dispatch: the router a coordinator thread runs all day,
    # route memos warm (they persist across intervals in situ).  Both
    # implementations are warmed with one full pass before measuring.
    router = StreamRouter(
        HashPartitioner(num_tasks, seed=seed),
        logic,
        [_SinkQueue() for _ in range(num_tasks)],
        batch_size=batch_size,
    )
    router.begin_interval(0)
    reference = ReferenceRouter(
        HashPartitioner(num_tasks, seed=seed), join_cost, num_tasks, batch_size
    )

    def run_vectorized() -> None:
        # Fresh interval account per pass: steady per-interval accounting
        # without unbounded growth across repeats.
        router.pop_interval(0)
        router.begin_interval(0)
        router.dispatch(keys, values)

    def run_reference() -> None:
        reference.clear()
        reference.dispatch(keys, values, 0)

    # Warm the route memo / hash-digest caches out of the measurement.
    run_vectorized()
    run_reference()

    vectorized = _measure(run_vectorized, num_tuples, repeats)
    reference = _measure(run_reference, num_tuples, repeats)
    return {
        "tuples": num_tuples,
        "num_tasks": num_tasks,
        "num_keys": num_keys,
        "batch_size": batch_size,
        "skew": skew,
        "vectorized_tuples_per_s": vectorized,
        "reference_tuples_per_s": reference,
        "speedup": vectorized / reference if reference > 0 else 0.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tuples", type=int, default=400_000)
    parser.add_argument("--tasks", type=int, default=4)
    parser.add_argument("--keys", type=int, default=20_000)
    parser.add_argument("--batch-size", type=int, default=4096)
    parser.add_argument("--skew", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--merge-into",
        default=None,
        metavar="BENCH_runtime.json",
        help="fold the result into an existing bench report (router_micro key)",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        num_tuples=args.tuples,
        num_tasks=args.tasks,
        num_keys=args.keys,
        batch_size=args.batch_size,
        skew=args.skew,
        seed=args.seed,
        repeats=args.repeats,
    )
    print(
        f"routed tuples/s: vectorized {result['vectorized_tuples_per_s']:,.0f} "
        f"vs per-tuple reference {result['reference_tuples_per_s']:,.0f} "
        f"({result['speedup']:.2f}x)",
        file=sys.stderr,
    )
    if args.merge_into:
        path = Path(args.merge_into)
        payload = json.loads(path.read_text())
        payload["router_micro"] = result
        path.write_text(json.dumps(payload, indent=1))
        print(f"merged router_micro into {path}", file=sys.stderr)
    else:
        print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
