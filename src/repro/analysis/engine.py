"""The lint engine: collect modules, run rules, filter suppressions.

The engine parses every ``.py`` file under the given paths once, builds a
:class:`Project` (so rules needing cross-module facts — e.g. RPL001's message
registry from ``runtime/messages.py`` — don't re-read the tree), runs each
registered rule's visitor over each module, and drops findings whose line
carries a matching inline suppression.  Baseline handling lives with the CLI:
the engine always reports the full unsuppressed set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.analysis.findings import ALL_RULES_SENTINEL, Finding, parse_suppressions

__all__ = ["LintEngine", "ModuleContext", "Project", "lint_paths"]

#: The message registry of the runtime this package ships with.
_PACKAGED_MESSAGES = Path(__file__).resolve().parents[1] / "runtime" / "messages.py"


@dataclass
class ModuleContext:
    """One parsed source file plus per-line suppression data."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    def is_suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return rules == ALL_RULES_SENTINEL or rule in rules


class Project:
    """All modules of one lint run plus lazily-derived cross-module facts."""

    def __init__(self, modules: Sequence[ModuleContext], root: Path):
        self.modules = list(modules)
        self.root = root
        self._message_types: Optional[Set[str]] = None

    def message_types(self) -> Set[str]:
        """Registered cross-process message type names.

        Parsed from the ``__all__`` of the scanned ``runtime/messages.py``
        (falling back to the package's own copy when the lint targets don't
        include it, e.g. when linting only ``tests/``): read, not imported.
        """
        if self._message_types is not None:
            return self._message_types
        names: Set[str] = set()
        for module in self.modules:
            if module.relpath.replace("\\", "/").endswith("runtime/messages.py"):
                names = _parse_all(module.tree)
                break
        if not names and _PACKAGED_MESSAGES.is_file():
            names = _parse_all(ast.parse(_PACKAGED_MESSAGES.read_text()))
        self._message_types = names
        return names


def _parse_all(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "__all__" in targets and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                return {
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                }
    return set()


def collect_modules(paths: Sequence[Path], root: Path) -> List[ModuleContext]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    modules: List[ModuleContext] = []
    for file in files:
        source = file.read_text()
        try:
            tree = ast.parse(source, filename=str(file))
        except SyntaxError as exc:
            raise SyntaxError(f"cannot lint {file}: {exc}") from exc
        try:
            relpath = str(file.resolve().relative_to(root.resolve()))
        except ValueError:
            relpath = str(file)
        modules.append(
            ModuleContext(
                path=file,
                relpath=relpath.replace("\\", "/"),
                source=source,
                tree=tree,
                suppressions=parse_suppressions(source),
            )
        )
    return modules


class LintEngine:
    """Run a set of rules over a set of modules."""

    def __init__(self, rules: Sequence[type], root: Optional[Path] = None):
        self.rules = list(rules)
        self.root = root or Path.cwd()

    def run(self, paths: Iterable[Path]) -> List[Finding]:
        modules = collect_modules([Path(p) for p in paths], self.root)
        project = Project(modules, self.root)
        findings: List[Finding] = []
        for module in modules:
            for rule_cls in self.rules:
                rule = rule_cls(module, project)
                rule.visit(module.tree)
                for finding in rule.findings:
                    if not module.is_suppressed(finding.rule, finding.line):
                        findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings


def lint_paths(
    paths: Sequence[Path],
    rules: Optional[Sequence[type]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Convenience one-shot: lint ``paths`` with ``rules`` (default: all)."""
    from repro.analysis.rules import ALL_RULES

    engine = LintEngine(list(rules) if rules is not None else list(ALL_RULES), root)
    return engine.run(paths)
