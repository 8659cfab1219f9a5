"""The lint engine plumbing: suppressions, baseline, CLI, repo cleanliness."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.design_rules import check_design_rules
from repro.analysis.engine import lint_paths
from repro.analysis.findings import Baseline, Finding, parse_suppressions
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SOURCE = """\
def pump(in_queue, out_queue):
    item = in_queue.get()
    out_queue.put({"k": 1})
"""


@pytest.fixture
def bad_file(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SOURCE)
    return target


class TestSuppressions:
    def test_parse_named_and_bare(self):
        source = (
            "x = 1  # repro-lint: ignore[RPL001, RPL002]\n"
            "y = 2  # repro-lint: ignore\n"
            "z = 3\n"
        )
        suppressions = parse_suppressions(source)
        assert suppressions[1] == {"RPL001", "RPL002"}
        assert suppressions[2] == {"*"}
        assert 3 not in suppressions

    def test_named_suppression_silences_only_that_rule(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def pump(in_queue, out_queue):\n"
            "    item = in_queue.get()  # repro-lint: ignore[RPL002]\n"
            '    out_queue.put({"k": 1})  # repro-lint: ignore[RPL002]\n'
        )
        findings = lint_paths([target], root=tmp_path)
        # RPL002 silenced on both lines; the dict payload (RPL001) survives.
        assert [finding.rule for finding in findings] == ["RPL001"]

    def test_bare_suppression_silences_everything(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def pump(in_queue, out_queue):\n"
            '    out_queue.put({"k": 1})  # repro-lint: ignore\n'
        )
        assert lint_paths([target], root=tmp_path) == []


class TestBaseline:
    def _finding(self, message="m", line=1):
        return Finding(
            rule="RPL001", path="a.py", line=line, col=0, message=message
        )

    def test_round_trip_filters_known_findings(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self._finding()]).save(path)
        loaded = Baseline.load(path)
        assert loaded.filter_new([self._finding(line=99)]) == []

    def test_extra_instances_of_a_known_key_still_fail(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline.from_findings([self._finding()]).save(path)
        fresh = Baseline.load(path).filter_new(
            [self._finding(line=1), self._finding(line=2)]
        )
        assert len(fresh) == 1

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)


class TestLintCli:
    @pytest.fixture(autouse=True)
    def _outside_the_repo(self, tmp_path, monkeypatch):
        # The design rules (RPL008) check the repo at the working directory;
        # these tests are about the CLI, not about this repo's state.
        monkeypatch.chdir(tmp_path)

    def test_findings_exit_nonzero_and_render(self, bad_file, capsys):
        assert main(["lint", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL002" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def add(a, b):\n    return a + b\n")
        assert main(["lint", str(clean)]) == 0

    def test_rule_selection(self, bad_file, capsys):
        assert main(["lint", "--rules", "RPL001", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL002" not in out

    def test_unknown_rule_id_fails_loudly(self, bad_file):
        with pytest.raises(SystemExit, match="unknown rule id"):
            main(["lint", "--rules", "RPL999", str(bad_file)])

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006", "RPL008"):
            assert rule_id in out

    def test_json_format(self, bad_file, capsys):
        assert main(["lint", "--format", "json", str(bad_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {finding["rule"] for finding in payload["findings"]} == {
            "RPL001",
            "RPL002",
        }

    def test_baseline_grandfathers_then_strict_ignores_it(
        self, bad_file, tmp_path, capsys
    ):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                    str(bad_file),
                ]
            )
            == 0
        )
        assert baseline.is_file()
        # Grandfathered: same findings, exit 0.
        assert main(["lint", "--baseline", str(baseline), str(bad_file)]) == 0
        # Strict ignores the baseline: the CI gate demands a clean tree.
        assert (
            main(
                ["lint", "--strict", "--baseline", str(baseline), str(bad_file)]
            )
            == 1
        )

    def test_missing_path_fails_loudly(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["lint", "no/such/dir"])


class TestRepoIsClean:
    def test_src_has_zero_unsuppressed_findings(self):
        """Every rule, the design-rule table (RPL008) included."""
        findings = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        findings += check_design_rules(REPO_ROOT)
        assert findings == [], "\n".join(
            finding.render() for finding in findings
        )


def test_the_lint_imports_none_of_the_runtime():
    """The checker reads the runtime's source; it never imports it."""
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.analysis; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.runtime')))",
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "[]"
