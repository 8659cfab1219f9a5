#!/usr/bin/env python3
"""The repo benchmark driver.

    python3 perf/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

One workload per process.  ``--trace 0`` (default) measures the end-to-end
metrics with tracing off; ``--trace 1`` makes the separate traced run: the
workload once plain and once under the protocol sanitizer on a half-length
stream each (their difference is the tracing overhead), then the per-layer
probes on the workload's own tuples, the single-task reference run, and the
CPU budget — spans and counts go to ``perf/out/trace.json``.  Without
``--workload`` every workload runs, each in a child process of its own.

Every metric prints by name with its unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(
        "perf/run.py: src/repro not found next to perf/ — the benchmark measures "
        "the repository's own source and must run from a checkout of it"
    )
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perf.probes import Tracer, budget, reference_run, run_probes  # noqa: E402
from perf.workloads import (  # noqa: E402
    DEFAULT_SECONDS,
    OUT_DIR,
    WORKLOADS,
    Prepared,
    peak_rss_mb,
)


def repeated_set_up(workload: Any, seed: int, intervals: int) -> Tuple[Prepared, float, List[str]]:
    """Set up five times; the median is ``setup_s``, the last result is what
    the run uses.  A fixed count, so the heap the run starts from does not
    depend on how fast the host was.  Also the determinism check: every
    repetition must produce the same input digest."""
    times: List[float] = []
    digests = set()
    problems: List[str] = []
    prepared = None
    for _ in range(5):
        prepared = None  # free the previous inputs before building the next
        prepared = workload.set_up(seed, intervals)
        times.append(prepared.setup_s)
        digests.add(prepared.inputs.digest)
    if len(digests) != 1:
        problems.append(f"set-up is not deterministic: {len(digests)} input digests")
    return prepared, statistics.median(times), problems


def untraced(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    intervals = workload.intervals(seconds)
    prepared, setup_s, problems = repeated_set_up(workload, seed, intervals)
    outcome = workload.measure(prepared, seed)
    attempted, failed, found = workload.check(outcome)
    metrics = workload.end_to_end(outcome)
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["setup_s"] = setup_s
    return {
        "intervals": intervals,
        "digest": prepared.inputs.digest,
        "attempted": attempted,
        "failed": failed,
        "problems": problems + found,
        "metrics": metrics,
        "layers": workload.layers(outcome),
        "stages": workload.stage_details(outcome),
    }


def traced(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    tracer = Tracer(workload.name)
    intervals = workload.intervals(seconds)
    with tracer.span("set_up"):
        prepared = workload.set_up(seed, intervals)
    inputs = prepared.inputs
    legs = workload.trace(prepared, intervals, seed, tracer)
    problems = list(legs.problems)
    layers = dict(legs.layers)
    layers["workloads.generate_s"] = inputs.generate_s
    layers["workloads.expand_s"] = inputs.expand_s

    with tracer.span("engine.operator.single_task"):
        seconds_taken, completed, state = reference_run(
            legs.reference_topology, legs.reference_stream
        )
    offered = sum(len(interval) for interval in legs.reference_stream)
    layers["engine.operator.single_task_tps"] = offered / seconds_taken
    if completed != offered:
        problems.append(f"reference run completed {completed} of {offered} tuples")
    if legs.final_state is not None and legs.final_state != state:
        problems.append("final per-key state differs from the single-task reference run")

    probe = run_probes(
        tracer,
        keys=inputs.probe_keys,
        values=inputs.probe_values,
        snapshots=legs.snapshots,
        baseline_snapshots=legs.baseline_snapshots,
        num_tasks=legs.num_tasks,
        seed=seed,
        tunables=legs.tunables,
        mixed=legs.mixed,
    )
    layers.update(probe)
    rows = budget(legs.outcome, probe)
    layers.update({name: value for name, value in rows.items() if name.endswith("_frac")})
    tracer.count("tuples.offered", legs.attempted)
    return {
        "intervals": intervals,
        "digest": inputs.digest,
        "attempted": legs.attempted,
        "failed": legs.attempted if problems else legs.failed,
        "problems": problems,
        "metrics": layers,
        "stages": legs.stages,
        "budget": rows,
        "tracer": tracer,
    }


def write_trace(workload: str, seed: int, report: Dict[str, Any]) -> str:
    """Merge this workload's spans, counts and detail rows into trace.json."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "trace.json")
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        document = {}
    tracer: Tracer = report["tracer"]
    document[workload] = {
        "seed": seed,
        "digest": report["digest"],
        "intervals": report["intervals"],
        "spans": tracer.spans,
        "self_seconds": tracer.self_times(),
        "counts": dict(tracer.counts),
        "metrics": report["metrics"],
        "stages": report["stages"],
        "budget": report["budget"],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    return path


def print_report(workload: Any, seed: int, report: Dict[str, Any], registry: Sequence[Any]) -> None:
    print(f"== {workload.name}  seed={seed}  intervals={report['intervals']}  "
          f"keys sha256={report['digest'][:16]}")
    print(f"   {workload.why}")
    width = max(len(metric.name) for metric in registry)
    for metric in registry:
        print(f"{metric.name:<{width}}  {report['metrics'][metric.name]:>16.6f} {metric.unit}")
    for name, value in sorted(report.get("layers", {}).items()):
        print(f"   {name:<{width}}  {value:>16.6f}")
    for stage, row in report["stages"].items():
        cells = "  ".join(f"{name}={value:.4g}" for name, value in row.items())
        print(f"   stage {stage}: {cells}")
    for name, value in sorted(report.get("budget", {}).items()):
        if not name.endswith("_frac"):
            print(f"   {name:<{width}}  {value:>16.6f}")
    for problem in report["problems"]:
        print(f"FAILED CHECK: {problem}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    registry = PER_LAYER if trace else END_TO_END
    report = traced(workload, seed, seconds) if trace else untraced(workload, seed, seconds)
    if trace:
        print(f"trace written to {write_trace(name, seed, report)}")
    print_report(workload, seed, report, registry)
    correct = not report["problems"] and report["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": {
                    metric.name: {"value": report["metrics"][metric.name], "unit": metric.unit}
                    for metric in registry
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload is not None:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    # Every workload, each in its own process: peak RSS and CPU accounting
    # are per process, and no workload can tax the next.
    status = 0
    for name in WORKLOADS:
        status |= subprocess.call(
            [
                sys.executable, os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
