"""Repo-specific correctness tooling for the multiprocess dataflow runtime.

Two halves, one invariant set:

* **Static checker** (:mod:`repro.analysis.engine`, :mod:`~repro.analysis.
  rules`): an AST lint pass (``python -m repro lint``) with rules targeting
  the protocol hazards this codebase actually has — unregistered objects
  crossing process boundaries (RPL001), bare blocking queue calls (RPL002),
  unpaired pause/resume paths (RPL003), fork-unsafe module state (RPL004),
  and ratio patterns bypassing the load-model division guards (RPL005).
* **Runtime sanitizer** (:mod:`repro.analysis.sanitizer`): an opt-in
  (``RuntimeConfig(sanitize=True)`` / ``repro bench --sanitize``) wrapper around a live
  topology's queues, router and controller that dynamically asserts the same
  protocol invariants — monotone interval watermarks, tuple conservation,
  pause/resume pairing, no put-after-close — recording violations into a
  structured report instead of crashing mid-bench.
"""

from repro.analysis.engine import LintEngine, lint_paths
from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES, get_rules
from repro.analysis.sanitizer import SanitizerReport, StageSanitizer, Violation

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintEngine",
    "SanitizerReport",
    "StageSanitizer",
    "Violation",
    "get_rules",
    "lint_paths",
]
