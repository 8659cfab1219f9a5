"""The design-rule table (RPL008): every entry fails on its own example,
nothing silences it, and each kind keeps the semantics of the grep it
replaced."""

import json
from pathlib import Path

import pytest

from repro.analysis.design_rules import (
    DEFINED_IN,
    DESIGN_RULES,
    FORBIDDEN,
    ONCE,
    check_design_rules,
    covers,
)
from repro.analysis.engine import lint_paths
from repro.cli import main

BY_NAME = {entry.name: entry for entry in DESIGN_RULES}

#: One file per entry that breaks it: ``(path, text)``.
EXAMPLES = {
    # Joined at run time: this file is under tests/, which the entry scans.
    "no-legacy-names": ("examples/old.py", "from repro.runtime import Local" + "Runtime\n"),
    "no-legacy-names/operator-layer": (
        "src/repro/engine/window.py", "class SlidingWindow:\n    pass\n"
    ),
    "figures-computed-once/one-module": ("benchmarks/test_fig07_skew.py", "X = 1\n"),
    "figures-computed-once/figure-cache": ("benchmarks/test_extra.py", "result = spec.run()\n"),
    "operators-written-once": ("src/repro/op.py", "def process(key, value):\n    pass\n"),
    "operators-own-their-state": (
        "src/repro/operators/op.py", "def fold(old, value):\n    return (old or []) + [value]\n"
    ),
    "simulator-keeps-no-state": (
        "src/repro/engine/simulator.py", "from repro.engine.task import Task\n"
    ),
    "one-transport": (
        "src/repro/runtime/extra.py", "make = context.SimpleQueue\ninbound = make()\n"
    ),
    "one-send-path/no-proxy": ("src/repro/runtime/extra.py", "class LoggedQueue:\n    pass\n"),
    "one-send-path/observers-only": (
        "src/repro/runtime/stage_loop.py",
        "def wire(self, sanitizer):\n    self.sanitizer = sanitizer\n",
    ),
    "one-snapshot-router": (
        "src/repro/baselines/pkg.py", "def route_snapshot(self, snapshot):\n    pass\n"
    ),
    "planners-read-columns": ("src/repro/core/extra.py", "costs = stats.cost_map()\n"),
    "tunables-declared-once/theta_max": (
        "src/repro/extra.py",
        "class A:\n    theta_max: float = 0.08\n\n\ndef f(theta_max: float = 0.08):\n    pass\n",
    ),
    "tunables-declared-once/beta": (
        "src/repro/extra.py",
        "class A:\n    beta: float = 1.5\n\n\ndef f(beta: float = 1.5):\n    pass\n",
    ),
}


def _write(root: Path, relpath: str, text: str) -> Path:
    target = root / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


def _names(findings):
    return {finding.message.split(":")[0] for finding in findings}


def test_entry_names_are_unique_and_each_has_an_example():
    assert len(BY_NAME) == len(DESIGN_RULES)
    assert set(EXAMPLES) == set(BY_NAME)
    for entry in DESIGN_RULES:
        assert entry.pr > 0 and entry.reason and entry.paths


def test_an_empty_repo_keeps_every_rule(tmp_path):
    assert check_design_rules(tmp_path) == []


def test_the_cli_says_when_the_table_checks_nothing(tmp_path, monkeypatch, capsys):
    _write(tmp_path, "lib/clean.py", "X = 1\n")
    monkeypatch.chdir(tmp_path)
    assert not covers(tmp_path)
    assert main(["lint", "--strict", "lib"]) == 0
    assert "RPL008 not checked" in capsys.readouterr().err
    assert covers(Path(__file__).resolve().parents[2])


@pytest.mark.parametrize("name", sorted(BY_NAME))
def test_each_entry_fails_on_its_example(name, tmp_path, monkeypatch, capsys):
    entry = BY_NAME[name]
    relpath, text = EXAMPLES[name]
    _write(tmp_path, relpath, text)
    findings = check_design_rules(tmp_path, (entry,))
    assert findings and all(f.rule == "RPL008" for f in findings)
    assert _names(findings) == {name}
    assert f"(PR {entry.pr})" in findings[0].message
    # The CLI gate fails on it too, whatever paths the module rules get.
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "--strict", relpath]) == 1
    assert name in capsys.readouterr().out


class TestNothingSilencesAnEntry:
    BROKEN = "def plan(stats):\n    return stats.cost_map()  # repro-lint: ignore\n"

    def test_inline_suppression_does_not_apply(self, tmp_path, monkeypatch, capsys):
        target = _write(tmp_path, "src/planner.py", self.BROKEN)
        assert lint_paths([target], root=tmp_path) == []
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--strict", "src"]) == 1
        assert "src/planner.py:2:" in capsys.readouterr().out

    def test_the_baseline_does_not_absorb_it(self, tmp_path, monkeypatch):
        _write(tmp_path, "src/planner.py", self.BROKEN)
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--write-baseline", "src"]) == 0
        assert json.loads(Path(".repro-lint-baseline.json").read_text())["findings"] == []
        assert main(["lint", "src"]) == 1


class TestKinds:
    def test_forbidden_skips_lines_matching_unless(self, tmp_path):
        entry = BY_NAME["figures-computed-once/figure-cache"]
        assert entry.kind == FORBIDDEN
        _write(tmp_path, "benchmarks/test_a.py", "rows = figure_cache.run(spec)\n")
        assert check_design_rules(tmp_path, (entry,)) == []
        _write(tmp_path, "benchmarks/test_b.py", "ok = 1\nrows = spec.run_batch(x)\n")
        [finding] = check_design_rules(tmp_path, (entry,))
        assert (finding.path, finding.line) == ("benchmarks/test_b.py", 2)

    def test_forbidden_globs_are_not_recursive(self, tmp_path):
        entry = BY_NAME["figures-computed-once/figure-cache"]
        _write(tmp_path, "benchmarks/data/test_c.py", "rows = spec.run()\n")
        assert check_design_rules(tmp_path, (entry,)) == []

    def test_directories_are_searched_recursively_past_caches(self, tmp_path):
        entry = BY_NAME["planners-read-columns"]
        _write(tmp_path, "src/repro/core/__pycache__/x.py", "stats.cost_map()\n")
        assert check_design_rules(tmp_path, (entry,)) == []
        _write(tmp_path, "src/repro/core/deep/x.txt", "stats.cost_map()\n")
        [finding] = check_design_rules(tmp_path, (entry,))
        assert finding.path == "src/repro/core/deep/x.txt"

    def test_defined_only_in_wants_each_owner_once(self, tmp_path):
        entry = BY_NAME["one-snapshot-router"]
        assert entry.kind == DEFINED_IN
        definition = "    def route_snapshot(self, snapshot):\n"
        for owner in entry.owners:
            _write(tmp_path, owner, definition)
        assert check_design_rules(tmp_path, (entry,)) == []
        _write(tmp_path, entry.owners[0], definition * 2)
        [twice] = check_design_rules(tmp_path, (entry,))
        assert (twice.path, twice.line) == (entry.owners[0], 2)
        (tmp_path / entry.owners[1]).unlink()
        missing = check_design_rules(tmp_path, (entry,))
        assert entry.owners[1] in {finding.path for finding in missing}

    def test_defined_only_in_is_out_of_scope_without_its_paths(self, tmp_path):
        _write(tmp_path, "lib/other.py", "def route_snapshot(self): pass\n")
        assert check_design_rules(tmp_path, (BY_NAME["one-snapshot-router"],)) == []

    def test_declared_once_allows_one_and_flags_every_copy_of_more(self, tmp_path):
        entry = BY_NAME["tunables-declared-once/theta_max"]
        assert entry.kind == ONCE
        _write(tmp_path, "src/a.py", "    theta_max: float = 0.08\n")
        assert check_design_rules(tmp_path, (entry,)) == []
        _write(tmp_path, "src/b.py", "def f(theta_max: float = 0.08, beta=1):\n")
        findings = check_design_rules(tmp_path, (entry,))
        assert [f.path for f in findings] == ["src/a.py", "src/b.py"]
        assert "declared 2 times" in findings[0].message
