"""RPL008: the repo keeps every design decision of the table below.

Each entry of :data:`DESIGN_RULES` is one decision that keeps a mechanism in
one place, with the PR that made it and why, in one of four kinds: FORBIDDEN
(no line of ``paths`` matches ``pattern``, bar lines matching ``unless``),
NO_FILE (no file matches ``paths``), DEFINED_IN (``pattern`` matches once in
each of ``owners`` and nowhere else in ``paths``; unchecked where no path
exists) and ONCE (the fixed text ``pattern`` is on at most one line).  Paths
are relative to the lint root: a directory is searched recursively, a path
with ``*`` or ``[`` is a glob.  This module is never scanned (its patterns
would match themselves).  ``repro lint`` adds these findings after the
baseline filter and the module rules' inline suppressions, so nothing
silences an entry: a broken decision is not debt to grandfather, and its
entry is changed in review instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.analysis.findings import Finding

__all__ = ["DESIGN_RULES", "RULE_ID", "DesignRule", "check_design_rules", "covers"]

RULE_ID = "RPL008"
FORBIDDEN, NO_FILE, DEFINED_IN, ONCE = "forbidden", "no-file", "defined-in", "once"
_THIS_FILE = Path(__file__).resolve()


@dataclass(frozen=True)
class DesignRule:
    name: str
    pr: int
    reason: str
    kind: str
    paths: Tuple[str, ...]
    pattern: str = ""
    unless: str = ""
    owners: Tuple[str, ...] = ()


def _files(root: Path, paths: Tuple[str, ...]) -> Iterator[Path]:
    for path in paths:
        if "*" in path or "[" in path:
            found = root.glob(path)
        else:
            found = (root / path).rglob("*") if (root / path).is_dir() else [root / path]
        for file in sorted(found):
            if file.is_file() and "__pycache__" not in file.parts and file.resolve() != _THIS_FILE:
                yield file


def _hits(rule: DesignRule, root: Path) -> Iterator[Tuple[str, int, int, str]]:
    """``(path, line, column, what)`` for every way ``root`` breaks ``rule``."""
    if rule.kind == NO_FILE:
        for file in _files(root, rule.paths):
            yield file.relative_to(root).as_posix(), 1, 0, "this file must not exist"
        return
    if rule.kind == DEFINED_IN and not any((root / path).exists() for path in rule.paths):
        return
    pattern = re.compile(re.escape(rule.pattern) if rule.kind == ONCE else rule.pattern)
    unless = re.compile(rule.unless) if rule.unless else None
    found = []
    for file in _files(root, rule.paths):
        text = file.read_text(errors="replace")
        if pattern.search(text) is None:
            continue
        for number, line in enumerate(text.splitlines(), start=1):
            match = pattern.search(line)
            if match and not (unless and unless.search(line)):
                found.append((file.relative_to(root).as_posix(), number, match))
    if rule.kind == FORBIDDEN:
        for path, line, match in found:
            yield path, line, match.start(), f"{match.group(0)!r} is back"
    elif rule.kind == ONCE and len(found) > 1:
        for path, line, match in found:
            yield path, line, match.start(), f"declared {len(found)} times"
    elif rule.kind == DEFINED_IN:
        seen = dict.fromkeys(rule.owners, 0)
        for path, line, match in found:
            seen[path] = seen.get(path, 0) + 1
            if path not in rule.owners:
                yield path, line, match.start(), f"defined outside {', '.join(rule.owners)}"
            elif seen[path] > 1:
                yield path, line, match.start(), "a second definition in this file"
        for owner in rule.owners:
            if not seen[owner]:
                yield owner, 1, 0, "the definition is missing here"


_PROGRAM = ("src", "scripts", "benchmarks", "examples", "README.md")

DESIGN_RULES: Tuple[DesignRule, ...] = (
    DesignRule(
        "no-legacy-names", 12, "one path per job: removed entry points stay removed",
        FORBIDDEN, _PROGRAM + ("tests",),
        r"LocalRuntime|build_partitioner|ALL_FIGURES|\bBENCH_WORKLOADS\b|REPRO_KILL|REPRO_SANITIZE"
        r"|figures\.fig[0-9]{2}_|PipelineStage|TopologyBuilder|\bspout_parallelism\b"
        r"|calibration_headroom|start_method=|MixedRoutingPartitioner|RebalanceController"
        r"|ControllerConfig|use_compact|cooldown_intervals|repro\.engine\.routing"
        r"|repro\.core\.controller|MigrationConfig|_typed_route_caches|_valid_route_cache"
        r"|_check_snapshot_num_tasks|least_loaded|parallel_transfers|memo_key|_MEMO_CLASSES"
        r"|_NO_MEMO|_hash_alike|_VALUE_ENCODED_TYPES|_CACHED_KEY_TYPES|validate_bench"
        r"|compare_bench|baseline_bench|bench_router|write_bench_report|merge-into|BENCH_runtime",
    ),
    DesignRule(
        "no-legacy-names/operator-layer", 19,
        "no per-tuple operator twin (its oracles under tests/ may name it)", FORBIDDEN, _PROGRAM,
        r"StreamTuple|engine\.tuples|\btuple_cost\b|\bstate_delta\b|left_stream|right_stream"
        r"|_ReferenceRouter|state_installed|state_evicted|SlidingWindow|append_evict"
        r"|\b_per_key\b|\bingest_counts\b",
    ),
    DesignRule("figures-computed-once/one-module", 37, "one benchmark module covers every figure",
               NO_FILE, ("benchmarks/test_fig[0-9][0-9]_*.py",)),
    DesignRule("figures-computed-once/figure-cache", 37, "figures come from the figure cache",
               FORBIDDEN, ("tests/experiments/test_golden_figures.py", "benchmarks/*.py"),
               r"\brun\(|run_batch\(|\.builder\b", unless=r"figure_cache\.run\("),
    DesignRule("operators-written-once", 19, "one process_batch per operator, no per-tuple twin",
               FORBIDDEN, ("src/repro",), r"def (process|tuple_cost|state_delta)\("),
    DesignRule("operators-own-their-state", 21, "payloads grow in place; snapshot() copies",
               FORBIDDEN, ("src/repro/operators", "src/repro/engine"),
               r"\(old or \[\]\) \+|dict\(old\)"),
    DesignRule("simulator-keeps-no-state", 39, "the simulator's only state is the window's S(k, w)",
               FORBIDDEN,
               ("src/repro/engine/simulator.py", "src/repro/engine/migration_protocol.py"),
               r"import .*\b(Task|KeyedState)\b|extract_key|install_key|ingest_counts"),
    DesignRule("one-transport", 24, "messages cross processes on runtime/queues.py's Channel only",
               FORBIDDEN, ("src/repro/runtime",), r"\.Queue\(|SimpleQueue"),
    DesignRule("one-send-path/no-proxy", 42, "a put to a worker goes through the abort-aware proxy",
               FORBIDDEN, ("src",), r"SanitizedQueue|LoggedQueue|wrap_router"),
    DesignRule("one-send-path/observers-only", 42, "sanitizer and supervisor are observers",
               FORBIDDEN, ("src/repro/runtime/stage_loop.py",), r"self\.(sanitizer|supervisor)\b"),
    DesignRule("one-snapshot-router", 25, "one snapshot router plus shuffle's spread",
               DEFINED_IN, ("src/repro",), r"def route_snapshot",
               owners=("src/repro/baselines/base.py", "src/repro/baselines/shuffle.py")),
    DesignRule("planners-read-columns", 41, "planners read columns; per-key views are oracles",
               FORBIDDEN, ("src",), r"cost_map|memory_map|discretize_map|off_hash_entries"),
    DesignRule("tunables-declared-once/theta_max", 17, "PlannerConfig declares a shared tunable",
               ONCE, ("src",), "theta_max: float = 0.08"),
    DesignRule("tunables-declared-once/beta", 17, "PlannerConfig declares a shared tunable",
               ONCE, ("src",), "beta: float = 1.5"),
)


def covers(root: Path, rules: Tuple[DesignRule, ...] = DESIGN_RULES) -> bool:
    """Whether any file ``rules`` check exists under ``root`` (else they check nothing)."""
    return any(next(_files(Path(root), rule.paths), None) for rule in rules)


def check_design_rules(root: Path, rules: Tuple[DesignRule, ...] = DESIGN_RULES) -> List[Finding]:
    """Every way the repo at ``root`` breaks one of ``rules``."""
    return [
        Finding(RULE_ID, path, line, col, f"{rule.name}: {what} — {rule.reason} (PR {rule.pr})")
        for rule in rules
        for path, line, col, what in _hits(rule, Path(root))
    ]

