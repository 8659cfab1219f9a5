#!/usr/bin/env python3
"""Validate the schema of a BENCH_runtime.json benchmark report.

CI runs this against the report produced by the bench-trajectory job before
uploading it as the per-commit artifact, so a refactor that silently drops
measured throughput/latency keys (or writes empty rows) fails the build
instead of poisoning the benchmark trajectory.

Usage::

    python scripts/validate_bench.py BENCH_runtime.json

Standalone on purpose: no repro import, so it also validates reports from
older commits when comparing trajectory artifacts.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: Every bench row (per-stage and chain rows alike) must carry these measured
#: quantities.
REQUIRED_ROW_KEYS = (
    "strategy",
    "tuples",
    "wall_seconds",
    "tuples_per_second",
    "latency_p50_ms",
    "latency_p99_ms",
)

REQUIRED_METADATA_KEYS = ("run_id", "engine", "created_at", "git_rev")

#: Measured quantities of the optional ``router_micro`` section (written by
#: ``scripts/bench_router.py --merge-into``).
REQUIRED_ROUTER_MICRO_KEYS = (
    "tuples",
    "num_tasks",
    "batch_size",
    "vectorized_tuples_per_s",
    "reference_tuples_per_s",
    "speedup",
)

#: Per-key-count timings of the optional ``planner_micro`` section (written by
#: ``scripts/bench_planner.py --merge-into``).
REQUIRED_PLANNER_MICRO_ROW_KEYS = (
    "num_keys",
    "intervals",
    "plans",
    "moved_keys",
    "table_size",
    "route_ms",
    "stats_ms",
    "should_rebalance_ms",
    "plan_ms",
    "delta_ms",
    "rank_ms",
    "interval_end_ms",
)
#: Key count of the paper's Tab. II; rows this large carry the speed-independent
#: ``stats_ms < route_ms`` guard of ``_validate_planner_micro``.
PAPER_SCALE_KEYS = 100_000


def _fail(message: str):
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _check_number(row_label: str, key: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{row_label}: {key} is {value!r}, expected a number")
    if not math.isfinite(value):
        _fail(f"{row_label}: {key} is {value!r}, expected a finite number")
    if value < 0:
        _fail(f"{row_label}: {key} is negative ({value!r})")


def validate_report(payload: dict) -> int:
    """Validate one parsed report; returns the number of rows checked."""
    if not isinstance(payload, dict):
        _fail("report root must be a JSON object")

    metadata = payload.get("metadata")
    if not isinstance(metadata, dict):
        _fail("missing 'metadata' object")
    for key in REQUIRED_METADATA_KEYS:
        if key not in metadata:
            _fail(f"metadata is missing {key!r}")
    if metadata.get("engine") != "process":
        _fail(f"metadata.engine is {metadata.get('engine')!r}, expected 'process'")

    spec = payload.get("spec")
    if not isinstance(spec, dict) or "workload" not in spec:
        _fail("missing 'spec' object with a 'workload'")

    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        _fail("missing or empty 'rows' list")
    for index, row in enumerate(rows):
        label = f"rows[{index}]"
        if not isinstance(row, dict):
            _fail(f"{label} is not an object")
        for key in REQUIRED_ROW_KEYS:
            if key not in row:
                _fail(f"{label} ({row.get('strategy')!r}) is missing {key!r}")
        for key in REQUIRED_ROW_KEYS[1:]:
            _check_number(label, key, row[key])
        if row["tuples"] <= 0 or row["tuples_per_second"] <= 0:
            _fail(f"{label}: no measured work (tuples={row['tuples']!r})")
        if row["latency_p99_ms"] < row["latency_p50_ms"]:
            _fail(f"{label}: p99 < p50 ({row['latency_p99_ms']} < {row['latency_p50_ms']})")

    per_strategy = payload.get("per_strategy")
    if not isinstance(per_strategy, dict) or not per_strategy:
        _fail("missing or empty 'per_strategy' object")
    strategies = {row["strategy"] for row in rows}
    if set(per_strategy) != strategies:
        _fail(
            f"per_strategy keys {sorted(per_strategy)} do not match row "
            f"strategies {sorted(strategies)}"
        )

    _validate_rate_sweep(spec, rows)
    _validate_resilience(spec, per_strategy)
    _validate_messages(per_strategy)
    _validate_fan_in(rows, payload.get("sanitizer"))
    if "router_micro" in payload:
        _validate_router_micro(payload["router_micro"])
    if "planner_micro" in payload:
        _validate_planner_micro(payload["planner_micro"])
    if "sanitizer" in payload:
        _validate_sanitizer(payload["sanitizer"])
    return len(rows)


#: Split-key routing statistics a key-splitting stage row reports together.
SPLIT_STAT_KEYS = ("split_keys", "total_partials", "max_partials_per_key")


def _validate_fan_in(rows: list, sanitizer) -> None:
    """DAG stage rows: sane ``upstreams`` counts, and fan-in checks fired.

    A stage row with ``upstreams >= 2`` is a fan-in consumer; if the run was
    sanitized, the multi-origin checks (``fan_in_watermark`` /
    ``fan_in_conservation``) must actually have been evaluated — a diamond
    bench whose sanitizer never saw a fan-in edge means the instrumentation
    came unwired.  Split statistics, when present, must arrive as a complete,
    consistent set.
    """
    fan_in_rows = []
    for index, row in enumerate(rows):
        label = f"rows[{index}]"
        if "upstreams" in row:
            _check_number(label, "upstreams", row["upstreams"])
            if row["upstreams"] >= 2:
                fan_in_rows.append(label)
        present = [key for key in SPLIT_STAT_KEYS if key in row]
        if present and len(present) != len(SPLIT_STAT_KEYS):
            _fail(
                f"{label}: partial split statistics {present}, expected all "
                f"of {list(SPLIT_STAT_KEYS)}"
            )
        for key in present:
            _check_number(label, key, row[key])
        if present and row["split_keys"] > 0 and row["max_partials_per_key"] < 2:
            _fail(
                f"{label}: {row['split_keys']} split keys but "
                f"max_partials_per_key is {row['max_partials_per_key']}"
            )
    if fan_in_rows and isinstance(sanitizer, dict):
        checks = sanitizer.get("checks") or {}
        for check in ("fan_in_watermark", "fan_in_conservation"):
            if checks.get(check, 0) <= 0:
                _fail(
                    f"{fan_in_rows[0]} is a fan-in stage (upstreams >= 2) but "
                    f"sanitizer check {check!r} never fired: {checks}"
                )


def _validate_rate_sweep(spec: dict, rows: list) -> None:
    """Rate-sweep reports carry one row per (strategy, rate), rates ascending."""
    sweep = spec.get("rate_sweep")
    swept_rows = [row for row in rows if "offered_rate" in row]
    if not sweep:
        if swept_rows:
            _fail("rows carry 'offered_rate' but spec has no rate_sweep")
        return
    if not isinstance(sweep, list) or len(sweep) < 2:
        _fail(f"spec.rate_sweep must list at least 2 rates, got {sweep!r}")
    if any(b <= a for a, b in zip(sweep, sweep[1:])):
        _fail(f"spec.rate_sweep is not strictly ascending: {sweep}")
    per_strategy_rates: dict = {}
    for row in rows:
        if "offered_rate" not in row:
            _fail(f"rate-sweep row ({row.get('strategy')!r}) missing 'offered_rate'")
        _check_number("rate-sweep row", "offered_rate", row["offered_rate"])
        per_strategy_rates.setdefault(row["strategy"], []).append(
            row["offered_rate"]
        )
    for strategy, rates in per_strategy_rates.items():
        if rates != sorted(rates) or len(set(rates)) != len(rates):
            _fail(
                f"strategy {strategy!r}: offered-rate series is not strictly "
                f"ascending: {rates}"
            )
        if len(rates) != len(sweep):
            _fail(
                f"strategy {strategy!r}: {len(rates)} swept rows but "
                f"spec.rate_sweep has {len(sweep)} rates"
            )


#: Measured quantities of one supervised-recovery incident.
REQUIRED_INCIDENT_KEYS = (
    "stage",
    "task",
    "interval",
    "recovery_pause_seconds",
    "restore_seconds",
)

#: Measured quantities of one elastic resize.
REQUIRED_SCALE_EVENT_KEYS = (
    "stage",
    "interval",
    "delta",
    "from_tasks",
    "to_tasks",
    "moved_keys",
    "rebalance_pause_seconds",
)


def _validate_resilience(spec: dict, per_strategy: dict) -> None:
    """The resilience section: measured incidents/resizes match the spec.

    A spec that injects a kill (``spec.kill_worker``) must produce at least
    one recovery incident per strategy, and a spec that schedules a resize
    (``spec.scale_at``) at least one scale event — a report that silently
    dropped the injection would otherwise read as a flawless run.
    """
    kill_expected = bool(spec.get("kill_worker"))
    scale_expected = bool(spec.get("scale_at"))
    for strategy, report in per_strategy.items():
        if not isinstance(report, dict):
            _fail(f"per_strategy[{strategy!r}] is not an object")
        resilience = report.get("resilience")
        if resilience is None:
            if kill_expected or scale_expected:
                _fail(
                    f"spec injects kill_worker/scale_at but strategy "
                    f"{strategy!r} has no resilience section"
                )
            continue
        label = f"per_strategy[{strategy!r}].resilience"
        if not isinstance(resilience, dict):
            _fail(f"{label} is not an object")
        incidents = resilience.get("incidents")
        scale_events = resilience.get("scale_events")
        if not isinstance(incidents, list) or not isinstance(scale_events, list):
            _fail(f"{label} needs 'incidents' and 'scale_events' lists")
        if kill_expected and not incidents:
            _fail(f"{label}: spec.kill_worker set but no recovery incident")
        if scale_expected and not scale_events:
            _fail(f"{label}: spec.scale_at set but no scale event")
        for index, incident in enumerate(incidents):
            entry = f"{label}.incidents[{index}]"
            if not isinstance(incident, dict):
                _fail(f"{entry} is not an object")
            for key in REQUIRED_INCIDENT_KEYS:
                if key not in incident:
                    _fail(f"{entry} is missing {key!r}")
            _check_number(entry, "recovery_pause_seconds", incident["recovery_pause_seconds"])
            _check_number(entry, "restore_seconds", incident["restore_seconds"])
            if incident["recovery_pause_seconds"] <= 0:
                _fail(f"{entry}: recovery pause was not measured (<= 0)")
        for index, event in enumerate(scale_events):
            entry = f"{label}.scale_events[{index}]"
            if not isinstance(event, dict):
                _fail(f"{entry} is not an object")
            for key in REQUIRED_SCALE_EVENT_KEYS:
                if key not in event:
                    _fail(f"{entry} is missing {key!r}")
            _check_number(entry, "rebalance_pause_seconds", event["rebalance_pause_seconds"])
            _check_number(entry, "moved_keys", event["moved_keys"])
            if event["to_tasks"] != event["from_tasks"] + event["delta"]:
                _fail(
                    f"{entry}: to_tasks ({event['to_tasks']}) != from_tasks "
                    f"({event['from_tasks']}) + delta ({event['delta']})"
                )
        checkpoints = resilience.get("checkpoints")
        if not isinstance(checkpoints, dict):
            _fail(f"{label} needs a 'checkpoints' object")
        for key in ("count", "bytes_written", "write_seconds"):
            if key not in checkpoints:
                _fail(f"{label}.checkpoints is missing {key!r}")
            _check_number(f"{label}.checkpoints", key, checkpoints[key])
        if kill_expected and checkpoints["bytes_written"] <= 0:
            _fail(
                f"{label}: spec.kill_worker set but no checkpoint bytes "
                f"were written"
            )


#: Transport counters every stage report carries (``stages.<name>.messages``).
REQUIRED_MESSAGE_KEYS = (
    "ingress",
    "chunks",
    "to_workers",
    "tuples_to_workers",
    "tuples_per_worker_message",
)


def _iter_stage_reports(strategy: str, report: dict):
    """``(label, stage report)`` of one strategy, rate-sweep runs included."""
    if "rate_sweep" in report:
        for entry in report["rate_sweep"]:
            yield from _iter_stage_reports(
                f"{strategy}@{entry.get('offered_rate')}", entry
            )
        return
    for name, stage in (report.get("stages") or {}).items():
        yield f"per_strategy[{strategy!r}].stages[{name!r}]", stage


def _validate_messages(per_strategy: dict) -> None:
    """The per-stage transport counters, and the books they must balance.

    Every tuple the router accounted as offered either reached a worker
    queue or was shed, so at end of run ``tuples_to_workers == tuples_offered
    - shed_tuples`` exactly (paused tuples are released before end of
    stream; a recovery replays the retention log past the router).  A stage
    that moved no message did not run.
    """
    for strategy, report in per_strategy.items():
        for label, stage in _iter_stage_reports(strategy, report):
            messages = stage.get("messages") if isinstance(stage, dict) else None
            if not isinstance(messages, dict):
                _fail(f"{label} has no 'messages' section")
            for key in REQUIRED_MESSAGE_KEYS:
                if key not in messages:
                    _fail(f"{label}.messages is missing {key!r}")
                _check_number(f"{label}.messages", key, messages[key])
            if min(messages["ingress"], messages["chunks"], messages["to_workers"]) <= 0:
                _fail(f"{label}.messages: the stage moved no message: {messages}")
            _check_number(label, "tuples_offered", stage.get("tuples_offered"))
            shed = stage.get("summary", {}).get("shed_tuples", 0)
            if messages["tuples_to_workers"] != stage["tuples_offered"] - shed:
                _fail(
                    f"{label}: tuples_to_workers ({messages['tuples_to_workers']}) "
                    f"!= tuples_offered ({stage['tuples_offered']}) - shed ({shed})"
                )
            mean = messages["tuples_to_workers"] / messages["to_workers"]
            if abs(mean - messages["tuples_per_worker_message"]) > 1e-6 * mean:
                _fail(
                    f"{label}: tuples_per_worker_message "
                    f"({messages['tuples_per_worker_message']}) does not match "
                    f"tuples_to_workers / to_workers ({mean})"
                )


def _validate_router_micro(micro) -> None:
    """The router microbenchmark section: positive figures, consistent ratio."""
    if not isinstance(micro, dict):
        _fail("router_micro must be an object")
    for key in REQUIRED_ROUTER_MICRO_KEYS:
        if key not in micro:
            _fail(f"router_micro is missing {key!r}")
        _check_number("router_micro", key, micro[key])
        if micro[key] <= 0:
            _fail(f"router_micro.{key} must be positive, got {micro[key]!r}")
    ratio = micro["vectorized_tuples_per_s"] / micro["reference_tuples_per_s"]
    if abs(ratio - micro["speedup"]) > 1e-6 * max(ratio, micro["speedup"]):
        _fail(
            f"router_micro.speedup ({micro['speedup']}) does not match "
            f"vectorized/reference ({ratio})"
        )


def _validate_planner_micro(micro) -> None:
    """The planner microbenchmark section: one complete row per key count,
    each with at least one plan whose steps add up.

    At the paper's key count (K >= 100 000) describing the interval must also
    cost less than routing it (``stats_ms < route_ms``) — a ratio inside one
    run, so it holds on any host: the statistics are three array fills, and
    building one object per key again (~5x the routing pass) would fail it.
    """
    if not isinstance(micro, dict):
        _fail("planner_micro must be an object")
    if not isinstance(micro.get("strategy"), str):
        _fail("planner_micro.strategy must name the strategy")
    rows = micro.get("rows")
    if not isinstance(rows, list) or not rows:
        _fail("planner_micro.rows must be a non-empty list")
    for index, row in enumerate(rows):
        label = f"planner_micro.rows[{index}]"
        if not isinstance(row, dict):
            _fail(f"{label} must be an object")
        for key in REQUIRED_PLANNER_MICRO_ROW_KEYS:
            if key not in row:
                _fail(f"{label} is missing {key!r}")
            _check_number(label, key, row[key])
        if row["plans"] < 1:
            _fail(f"{label}: the planner never rebalanced, nothing was timed")
        for key in ("num_keys", "route_ms", "stats_ms", "should_rebalance_ms", "plan_ms"):
            if row[key] <= 0:
                _fail(f"{label}.{key} must be positive, got {row[key]!r}")
        if row["interval_end_ms"] < row["plan_ms"]:
            _fail(
                f"{label}: interval_end_ms ({row['interval_end_ms']}) is below the "
                f"plan_ms ({row['plan_ms']}) it contains"
            )
        for part in ("delta_ms", "rank_ms"):
            if not 0 <= row[part] <= row["plan_ms"]:
                _fail(
                    f"{label}: {part} ({row[part]}) is not within the "
                    f"plan_ms ({row['plan_ms']}) it is part of"
                )
        if row["num_keys"] >= PAPER_SCALE_KEYS and row["stats_ms"] >= row["route_ms"]:
            _fail(
                f"{label}: stats_ms ({row['stats_ms']}) is not below route_ms "
                f"({row['route_ms']}) at K = {row['num_keys']}: the interval "
                f"statistics are no longer built column-wise"
            )
    counts = [row["num_keys"] for row in rows]
    if len(set(counts)) != len(counts):
        _fail(f"planner_micro.rows repeat a key count: {counts}")


def _validate_sanitizer(report) -> None:
    """The protocol-sanitizer section: zero violations AND non-trivial checks.

    A "clean" report whose check counters are all zero means the sanitizer
    hooks never fired — a wiring regression, not a clean run — so it fails
    just like a violation would.
    """
    if not isinstance(report, dict):
        _fail("sanitizer must be an object")
    if not report.get("enabled"):
        _fail("sanitizer section present but not marked enabled")
    violations = report.get("violations")
    if not isinstance(violations, list):
        _fail("sanitizer.violations must be a list")
    if violations:
        rendered = "; ".join(
            f"{v.get('check')}@{v.get('stage')}: {v.get('message')}"
            for v in violations[:5]
        )
        _fail(f"sanitizer recorded {len(violations)} violation(s): {rendered}")
    checks = report.get("checks")
    if not isinstance(checks, dict) or not checks:
        _fail("sanitizer.checks is missing or empty (hooks never fired)")
    if sum(checks.values()) <= 0:
        _fail(f"sanitizer.checks are all zero: {checks}")
    if report.get("ok") is not True:
        _fail("sanitizer.ok must be true when violations are empty")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    path = Path(argv[0])
    if not path.is_file():
        _fail(f"no such report: {path}")
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:
        _fail(f"{path} is not valid JSON: {exc}")
    rows = validate_report(payload)
    workload = payload["spec"].get("workload")
    extras = []
    if payload["spec"].get("rate_sweep"):
        extras.append(f"rate sweep x{len(payload['spec']['rate_sweep'])}")
    if "router_micro" in payload:
        extras.append(
            f"router micro {payload['router_micro']['speedup']:.2f}x"
        )
    if "planner_micro" in payload:
        largest = max(payload["planner_micro"]["rows"], key=lambda row: row["num_keys"])
        extras.append(
            f"planner micro {largest['interval_end_ms']:.0f} ms @ K={largest['num_keys']}"
        )
    if payload["spec"].get("kill_worker"):
        incidents = sum(
            len(report.get("resilience", {}).get("incidents", []))
            for report in payload["per_strategy"].values()
        )
        extras.append(f"kill {payload['spec']['kill_worker']}: {incidents} recovered")
    if payload["spec"].get("scale_at"):
        events = sum(
            len(report.get("resilience", {}).get("scale_events", []))
            for report in payload["per_strategy"].values()
        )
        extras.append(f"scale {payload['spec']['scale_at']}: {events} resized")
    if "sanitizer" in payload:
        checked = sum(payload["sanitizer"]["checks"].values())
        extras.append(f"sanitizer clean ({checked} checks)")
    suffix = f" [{', '.join(extras)}]" if extras else ""
    print(f"OK: {path} — {rows} measured rows ({workload}), schema valid{suffix}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
