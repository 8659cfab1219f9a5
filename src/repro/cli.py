"""``python -m repro`` — reproduce, persist and inspect experiment runs.

Commands::

    python -m repro run fig07 --scale tiny            # run one figure, save it
    python -m repro run myspec.json --seed 3          # run a JSON spec file
    python -m repro run all --scale tiny              # every registered figure
    python -m repro bench wordcount --parallelism 4   # wall-clock process bench
    python -m repro bench tpch_q5_chain --parallelism 2  # 3-stage Q5 topology
    python -m repro bench tpch_q5_chain --rate-sweep 5000:40000:5  # Fig. 13 knee
    python -m repro bench tpch_q5_chain --sanitize    # + runtime protocol sanitizer
    python -m repro lint                              # protocol static checker (src/)
    python -m repro lint --strict src tests           # CI gate, no baseline
    python -m repro list                              # experiments + strategies
    python -m repro list --runs                       # stored runs
    python -m repro report                            # render the latest run
    python -m repro report fig07-20260727-...-s0      # render one stored run

``run`` writes one directory per run under ``--results-dir`` (default
``./results``) containing ``run.json`` (spec + metadata + rows, re-runnable
with ``repro run <dir>/run.json``) and ``report.txt`` (the rendered table).
``bench`` executes a workload on the process-parallel runtime (real worker
processes, measured tuples/sec and latency percentiles), stores it like a
``run`` and exits 1 when the sanitizer recorded a violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["main", "build_parser"]


def _parse_value(text: str) -> Any:
    """Best-effort literal parsing: JSON first, bare comma-lists, else string."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    if "," in text:
        return [_parse_value(part) for part in text.split(",") if part]
    return text


def _parse_assignments(pairs: Sequence[str], flag: str) -> Dict[str, Any]:
    values: Dict[str, Any] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise SystemExit(f"{flag} expects KEY=VALUE, got {pair!r}")
        values[key] = _parse_value(value)
    return values


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (e.g. ``--parallelism``)."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _service_time(text: str) -> Any:
    """argparse type: microseconds, or ``auto`` for adaptive calibration."""
    if text.strip().lower() == "auto":
        return "auto"
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected microseconds or 'auto', got {text!r}"
        ) from exc
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"service time must be non-negative, got {value}"
        )
    return value


def _parse_rate_sweep(text: str) -> List[float]:
    """``--rate-sweep LO:HI:STEPS`` into an ascending list of offered rates.

    ``STEPS`` linearly spaced rates from ``LO`` to ``HI`` inclusive, e.g.
    ``10000:50000:5`` -> 10k, 20k, 30k, 40k, 50k tuples/second.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI:STEPS (e.g. 10000:50000:5), got {text!r}"
        )
    try:
        low, high = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected numeric LO:HI and integer STEPS, got {text!r}"
        ) from exc
    if low <= 0 or high <= low:
        raise argparse.ArgumentTypeError(
            f"need 0 < LO < HI, got LO={parts[0]} HI={parts[1]}"
        )
    if steps < 2:
        raise argparse.ArgumentTypeError(
            f"a sweep needs at least 2 steps, got {steps}"
        )
    pace = (high - low) / (steps - 1)
    return [low + index * pace for index in range(steps)]


def _parse_stage_parallelism(pairs: Sequence[str]) -> Dict[str, int]:
    """``--stage-parallelism NAME=COUNT`` pairs into a validated mapping."""
    stages: Dict[str, int] = {}
    for pair in pairs:
        stage, separator, count = pair.partition("=")
        if not separator or not stage:
            raise SystemExit(
                f"--stage-parallelism expects STAGE=COUNT, got {pair!r}"
            )
        try:
            workers = int(count)
        except ValueError as exc:
            raise SystemExit(
                f"--stage-parallelism {stage}: expected an integer worker "
                f"count, got {count!r}"
            ) from exc
        if workers <= 0:
            raise SystemExit(
                f"--stage-parallelism {stage}: worker count must be positive, "
                f"got {workers}"
            )
        stages[stage] = workers
    return stages


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run and inspect the paper-reproduction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser(
        "run", help="run one experiment (or 'all'), or a JSON spec file"
    )
    runp.add_argument(
        "experiment",
        help="experiment name (e.g. fig07), 'all', or a path to a spec .json",
    )
    runp.add_argument("--scale", default=None, help="scale preset (tiny|small|paper)")
    runp.add_argument("--seed", type=int, default=None, help="master RNG seed")
    runp.add_argument(
        "--strategies",
        default=None,
        help="comma-separated strategy list handed to the driver",
    )
    runp.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override one ExperimentScale field (repeatable), e.g. --set num_keys=5000",
    )
    runp.add_argument(
        "--param",
        dest="params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="driver parameter (repeatable), e.g. --param thetas=[0.02,0.3]",
    )
    runp.add_argument(
        "--results-dir", default="results", help="ResultsStore root (default ./results)"
    )
    runp.add_argument(
        "--no-save", action="store_true", help="print the report without persisting"
    )
    runp.add_argument(
        "--quiet", action="store_true", help="only print run ids, not full tables"
    )

    benchp = sub.add_parser(
        "bench",
        help="wall-clock benchmark on the process-parallel runtime",
    )
    benchp.add_argument(
        "workload",
        help=(
            "bench workload (wordcount | windowed_aggregate | tpch_q5 | "
            "tpch_q5_chain | tpch_q5_trace | diamond; the first three are "
            "one-stage topologies, tpch_q5_chain/_trace run the multi-stage "
            "Q5 process topology, diamond the split-key fan-out/fan-in DAG)"
        ),
    )
    benchp.add_argument(
        "--parallelism",
        type=_positive_int,
        default=4,
        help="worker processes per stage (default 4)",
    )
    benchp.add_argument(
        "--stage-parallelism",
        dest="stage_parallelism",
        action="append",
        default=[],
        metavar="STAGE=COUNT",
        help=(
            "per-stage worker count override (repeatable), "
            "e.g. --stage-parallelism order-join=4"
        ),
    )
    benchp.add_argument(
        "--scale", default="tiny", help="scale preset (tiny|small|paper, default tiny)"
    )
    benchp.add_argument("--seed", type=int, default=0, help="master RNG seed")
    benchp.add_argument(
        "--strategies",
        default=None,
        help=(
            "comma-separated strategy list (default: storm,mixed; "
            "diamond defaults to pkg,storm,mixed)"
        ),
    )
    benchp.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override one ExperimentScale field (repeatable), e.g. --set skew=1.2",
    )
    benchp.add_argument(
        "--service-time-us",
        type=_service_time,
        default=50.0,
        help=(
            "emulated per-cost-unit service time of each worker (default 50), "
            "or 'auto' to calibrate it from the first measured interval"
        ),
    )
    benchp.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="TUPLES_PER_S",
        help=(
            "open-loop source rate in tuples/second "
            "(default: closed-loop drain at saturation)"
        ),
    )
    benchp.add_argument(
        "--rate-sweep",
        type=_parse_rate_sweep,
        default=None,
        metavar="LO:HI:STEPS",
        help=(
            "sweep the open-loop offered rate toward saturation (STEPS "
            "linearly spaced rates, one measured row each — the Fig. 13 "
            "latency/throughput knee); mutually exclusive with --rate"
        ),
    )
    benchp.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "enable the runtime protocol sanitizer (invariant checks on "
            "every send, interval close and pause/resume; any violation is "
            "printed and fails the run)"
        ),
    )
    benchp.add_argument(
        "--kill-worker",
        default=None,
        metavar="STAGE:TASK@INTERVAL",
        help=(
            "fault injection: SIGKILL one worker mid-run (e.g. "
            "revenue-agg:0@3); requires checkpointing, so a run-scoped "
            "checkpoint dir is created when --checkpoint-dir is not given"
        ),
    )
    benchp.add_argument(
        "--scale-at",
        default=None,
        metavar="INTERVAL:STAGE:±N",
        help=(
            "elasticity: grow or shrink one stage's process group at an "
            "interval boundary via live key migration (e.g. "
            "--scale-at 2:order-join:+1)"
        ),
    )
    benchp.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "enable periodic per-task KeyedState checkpoints, written "
            "atomically under DIR (one subdir per strategy run)"
        ),
    )
    benchp.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=1,
        metavar="N",
        help="checkpoint at every N-th interval boundary (default 1)",
    )
    benchp.add_argument(
        "--results-dir", default="results", help="ResultsStore root (default ./results)"
    )
    benchp.add_argument(
        "--no-save", action="store_true", help="skip the ResultsStore persistence"
    )
    benchp.add_argument(
        "--quiet", action="store_true", help="only print the summary line per strategy"
    )

    listp = sub.add_parser("list", help="list experiments, strategies and stored runs")
    listp.add_argument("--runs", action="store_true", help="only list stored runs")
    listp.add_argument(
        "--results-dir", default="results", help="ResultsStore root (default ./results)"
    )

    reportp = sub.add_parser("report", help="render a stored run (latest by default)")
    reportp.add_argument(
        "run_id", nargs="?", default=None, help="stored run id (default: latest)"
    )
    reportp.add_argument(
        "--results-dir", default="results", help="ResultsStore root (default ./results)"
    )

    lintp = sub.add_parser(
        "lint",
        help="static checker (rules RPL001-RPL006 and the design rules RPL008, repro.analysis)",
    )
    lintp.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lintp.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    lintp.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule IDs with their one-line descriptions and exit",
    )
    lintp.add_argument(
        "--strict",
        action="store_true",
        help="ignore the baseline: every unsuppressed finding fails (CI gate)",
    )
    lintp.add_argument(
        "--baseline",
        default=".repro-lint-baseline.json",
        metavar="PATH",
        help=(
            "known-findings baseline file (default ./.repro-lint-baseline."
            "json; silently skipped when absent)"
        ),
    )
    lintp.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit",
    )
    lintp.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    return parser


def _specs_for(args: argparse.Namespace) -> List[Any]:
    """Build the spec list the ``run`` command executes."""
    from repro.experiments.specs import ExperimentSpec, experiment_names

    overrides = _parse_assignments(args.overrides, "--set")
    params = _parse_assignments(args.params, "--param")
    strategies: Optional[List[str]] = None
    if args.strategies is not None:
        strategies = [name for name in args.strategies.split(",") if name]

    target = args.experiment
    path = Path(target)
    if target.endswith(".json") or path.is_file():
        if not path.is_file():
            raise SystemExit(f"spec file not found: {target}")
        try:
            payload = json.loads(path.read_text())
            if "spec" in payload and "experiment" not in payload:
                payload = payload["spec"]  # a stored run.json wraps its spec
            base = ExperimentSpec.from_dict(payload)
        except (ValueError, KeyError) as exc:
            raise SystemExit(f"invalid spec file {target}: {exc}") from exc
        names = [None]
    elif target == "all":
        base = ExperimentSpec("all")
        names = experiment_names()
    else:
        if target not in experiment_names():
            raise SystemExit(
                f"unknown experiment {target!r}; known: {', '.join(experiment_names())} "
                "(or 'all', or a spec .json path)"
            )
        base = ExperimentSpec(target)
        names = [target]

    specs = []
    for name in names:
        specs.append(
            ExperimentSpec(
                experiment=name if name is not None else base.experiment,
                scale=args.scale if args.scale is not None else base.scale,
                overrides={**dict(base.overrides), **overrides},
                seed=args.seed if args.seed is not None else base.seed,
                strategies=strategies if strategies is not None else base.strategies,
                sweep=base.sweep,
                params={**dict(base.params), **params},
            )
        )
    return specs


def _runtime_spec_payload(target: str) -> Optional[Dict[str, Any]]:
    """The embedded RuntimeSpec when ``target`` is a stored bench run/spec."""
    path = Path(target)
    if not (target.endswith(".json") and path.is_file()):
        return None
    try:
        payload = json.loads(path.read_text())
    except ValueError:
        return None
    spec = payload.get("spec", payload)
    params = spec.get("params", {}) if isinstance(spec, dict) else {}
    runtime_spec = params.get("runtime_spec")
    return runtime_spec if isinstance(runtime_spec, dict) else None


def _rerun_bench(args: argparse.Namespace, payload: Dict[str, Any]) -> int:
    """Re-execute a stored process-runtime bench (`repro run <run>/run.json`)."""
    import dataclasses

    from repro.runtime.bench import RuntimeSpec

    spec = RuntimeSpec.from_dict(payload)
    replacements: Dict[str, Any] = {}
    if args.seed is not None:
        replacements["seed"] = args.seed
    if args.scale is not None:
        replacements["scale"] = args.scale
    if args.strategies is not None:
        replacements["strategies"] = [
            name for name in args.strategies.split(",") if name
        ]
    if replacements:
        spec = dataclasses.replace(spec, **replacements)
    return _run_bench(args, spec)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.specs import run_batch
    from repro.experiments.store import ResultsStore

    runtime_payload = _runtime_spec_payload(args.experiment)
    if runtime_payload is not None:
        return _rerun_bench(args, runtime_payload)

    store = None if args.no_save else ResultsStore(args.results_dir)
    specs = _specs_for(args)

    def report(outcome) -> None:
        meta = outcome.metadata
        if not args.quiet:
            print(outcome.result.to_text())
        location = (
            f" -> {Path(args.results_dir) / meta.run_id}" if store is not None else ""
        )
        print(
            f"[{meta.experiment} scale={meta.scale} seed={meta.seed} "
            f"{meta.wall_time_seconds:.1f}s run={meta.run_id}{location}]"
        )

    run_batch(specs, store=store, on_result=report)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.runtime.bench import RuntimeSpec

    strategies = None  # the workload's own comparison set
    if args.strategies is not None:
        strategies = [name for name in args.strategies.split(",") if name]
    calibrate = args.service_time_us == "auto"
    try:
        spec = RuntimeSpec(
            workload=args.workload,
            strategies=strategies,
            parallelism=args.parallelism,
            scale=args.scale,
            overrides=_parse_assignments(args.overrides, "--set"),
            seed=args.seed,
            service_time_us=50.0 if calibrate else args.service_time_us,
            calibrate_pacing=calibrate,
            offered_rate=args.rate,
            rate_sweep=args.rate_sweep,
            stage_parallelism=_parse_stage_parallelism(args.stage_parallelism),
            sanitize=args.sanitize,
            kill_worker=args.kill_worker,
            scale_at=args.scale_at,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    return _run_bench(args, spec)


def _run_bench(args: argparse.Namespace, spec: Any) -> int:
    """Run ``spec``, print its tables, store it unless ``--no-save``.

    Returns 1 when the sanitizer recorded a violation, else 0.
    """
    from repro.experiments.store import ResultsStore
    from repro.runtime.bench import merged_sanitizer_report, run_bench

    store = None if args.no_save else ResultsStore(args.results_dir)

    def progress(name: str, outcome) -> None:
        summary = outcome.summary()
        print(
            f"[{name}: {summary['tuples']:.0f} tuples in "
            f"{summary['wall_seconds']:.2f}s -> "
            f"{summary['tuples_per_second']:,.0f} tuples/s, "
            f"p50={summary['latency_p50_ms']:.1f}ms "
            f"p99={summary['latency_p99_ms']:.1f}ms, "
            f"rebalances={summary['rebalances']:.0f} "
            f"pause={summary['pause_seconds']:.3f}s]"
        )

    run, outcomes = run_bench(spec, store=store, on_result=progress)
    if not args.quiet:
        print(run.result.to_text())
    meta = run.metadata
    location = f" -> {Path(args.results_dir) / meta.run_id}" if store is not None else ""
    print(
        f"[bench {spec.workload} engine={meta.engine} cpus={meta.host_cpu_count} "
        f"{meta.wall_time_seconds:.1f}s{location}]"
    )
    sanitizer = merged_sanitizer_report(outcomes)
    if sanitizer is None:
        return 0
    checks = ", ".join(
        f"{check}={count}" for check, count in sorted(sanitizer["checks"].items())
    )
    status = "clean" if sanitizer["ok"] else f"{len(sanitizer['violations'])} violation(s)"
    print(f"[sanitizer: {status}; checks: {checks}]")
    for violation in sanitizer["violations"]:
        print(f"  ! {violation['check']} @ {violation['stage']}: {violation['message']}")
    return 0 if sanitizer["ok"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import design_rules
    from repro.analysis.engine import LintEngine
    from repro.analysis.findings import Baseline
    from repro.analysis.rules import ALL_RULES, get_rules

    if args.list_rules:
        for rule in ALL_RULES:
            first_line = (rule.__doc__ or "").strip().splitlines()[0]
            print(f"{rule.rule_id}  {first_line}")
        print(f"{design_rules.RULE_ID}  {design_rules.__doc__.strip().splitlines()[0]}")
        return 0

    rule_ids = (
        [rule_id for rule_id in args.rules.split(",") if rule_id]
        if args.rules is not None
        else None
    )
    # RPL008, the design-rule table over the working directory, joins after
    # the baseline filter: neither the baseline nor a suppression silences it.
    check_design = rule_ids is None or design_rules.RULE_ID in rule_ids
    try:
        rules = get_rules(rule_ids and [r for r in rule_ids if r != design_rules.RULE_ID])
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    paths = [Path(path) for path in args.paths]
    for path in paths:
        if not path.exists():
            raise SystemExit(f"lint path not found: {path}")
    findings = LintEngine(rules, root=Path.cwd()).run(paths)

    baseline_path = Path(args.baseline)
    if args.write_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(f"wrote {len(findings)} finding(s) to {baseline_path}")
        return 0

    if not args.strict and baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        fresh = baseline.filter_new(findings)
    else:
        fresh = list(findings)
    grandfathered = len(findings) - len(fresh)
    rule_ids = [rule.rule_id for rule in rules]
    if check_design:
        rule_ids.append(design_rules.RULE_ID)
        fresh += design_rules.check_design_rules(Path.cwd())
        if not design_rules.covers(Path.cwd()):
            print(f"[RPL008 not checked: no file of its table under {Path.cwd()}]", file=sys.stderr)

    if args.format == "json":
        print(
            json.dumps(
                {"findings": [finding.to_dict() for finding in fresh]},
                indent=1,
            )
        )
    else:
        for finding in fresh:
            print(finding.render())
        note = f" ({grandfathered} baselined)" if grandfathered else ""
        mode = "lint --strict" if args.strict else "lint"
        print(
            f"[{mode}: {len(fresh)} finding(s){note}; rules: "
            f"{', '.join(rule_ids)}; paths: "
            f"{', '.join(str(path) for path in paths)}]"
        )
    return 1 if fresh else 0


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.store import ResultsStore

    if not args.runs:
        from repro.core.strategy import list_strategies
        from repro.experiments.specs import list_experiments

        print("experiments:")
        for definition in list_experiments():
            print(f"  {definition.name:<8} {definition.description}")
        print()
        print("strategies:")
        for spec in list_strategies():
            tunables = ", ".join(spec.tunables) if spec.tunables else "-"
            print(f"  {spec.name:<10} {spec.description}  [tunables: {tunables}]")
        print()

    store = ResultsStore(args.results_dir)
    runs = store.list_runs()
    if not runs:
        print(f"no stored runs under {store.root}/")
        return 0
    print(f"runs ({store.root}/):")
    for meta in runs:
        print(
            f"  {meta.run_id:<40} {meta.figure:<8} scale={meta.scale:<6} "
            f"seed={meta.seed} engine={meta.engine:<7} "
            f"{meta.wall_time_seconds:6.1f}s {meta.created_at}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.store import ResultsStore

    store = ResultsStore(args.results_dir)
    run_id = args.run_id
    if run_id is None:
        run_id = store.latest_run_id()
        if run_id is None:
            raise SystemExit(f"no stored runs under {store.root}/")
    try:
        outcome = store.load(run_id)
    except KeyError as exc:
        raise SystemExit(str(exc)) from exc
    meta = outcome.metadata
    print(
        f"run {meta.run_id} (experiment={meta.experiment}, scale={meta.scale}, "
        f"seed={meta.seed}, git={meta.git_rev or 'n/a'}, "
        f"wall={meta.wall_time_seconds:.1f}s, at={meta.created_at})"
    )
    print(outcome.result.to_text())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
