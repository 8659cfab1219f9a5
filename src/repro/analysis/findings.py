"""Finding records, inline suppressions, and the JSON baseline file.

A :class:`Finding` is one rule hit at one source location.  Two escape
hatches keep the checker adoptable without weakening it:

* **Inline suppression** — a ``# repro-lint: ignore[RPL001,RPL002]`` comment
  (or a bare ``# repro-lint: ignore``) on the offending line silences the
  named rules (or all rules) for that line only.
* **Baseline file** — a JSON file of known-finding keys
  (``{"version": 1, "findings": ["path::RULE::message", ...]}``) grandfathers
  existing debt; ``--strict`` ignores the baseline so CI can demand a clean
  tree.  Keys are content-addressed (no line numbers), so unrelated edits
  don't churn the baseline.

The design rules (RPL008) have neither; see :mod:`repro.analysis.design_rules`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set

__all__ = [
    "Baseline",
    "Finding",
    "parse_suppressions",
]

#: ``# repro-lint: ignore`` or ``# repro-lint: ignore[RPL001, RPL002]``.
_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
)

#: Sentinel rule set meaning "every rule is suppressed on this line".
ALL_RULES_SENTINEL = frozenset({"*"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def key(self) -> str:
        """Content-addressed identity used by the baseline file."""
        return f"{self.path}::{self.rule}::{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of suppressed rule IDs (``{"*"}`` = all)."""
    suppressions: Dict[int, Set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            suppressions[number] = set(ALL_RULES_SENTINEL)
        else:
            suppressions[number] = {
                rule.strip() for rule in rules.split(",") if rule.strip()
            }
    return suppressions


class Baseline:
    """Known-findings ledger: grandfather existing debt, flag new debt.

    The ledger counts duplicate keys, so two *new* instances of an already
    baselined finding pattern still fail the gate — the baseline absorbs at
    most as many occurrences of a key as were recorded.
    """

    VERSION = 1

    def __init__(self, counts: Dict[str, int] | None = None):
        self._counts: Dict[str, int] = dict(counts or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(path.read_text())
        if data.get("version") != cls.VERSION:
            raise ValueError(
                f"unsupported baseline version {data.get('version')!r} in {path}"
            )
        counts: Dict[str, int] = {}
        for key in data.get("findings", []):
            counts[key] = counts.get(key, 0) + 1
        return cls(counts)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        counts: Dict[str, int] = {}
        for finding in findings:
            counts[finding.key] = counts.get(finding.key, 0) + 1
        return cls(counts)

    def save(self, path: Path) -> None:
        keys: List[str] = []
        for key in sorted(self._counts):
            keys.extend([key] * self._counts[key])
        path.write_text(
            json.dumps({"version": self.VERSION, "findings": keys}, indent=2)
            + "\n"
        )

    def filter_new(self, findings: Sequence[Finding]) -> List[Finding]:
        """Return the findings not absorbed by the baseline, oldest-first."""
        remaining = dict(self._counts)
        fresh: List[Finding] = []
        for finding in findings:
            if remaining.get(finding.key, 0) > 0:
                remaining[finding.key] -= 1
            else:
                fresh.append(finding)
        return fresh
