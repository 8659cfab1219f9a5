"""The repo's static checker: ``python -m repro lint``.

An AST pass (:mod:`repro.analysis.engine`, :mod:`~repro.analysis.rules`)
with rules targeting the protocol hazards this codebase actually has —
unregistered objects crossing process boundaries (RPL001), bare blocking
queue calls and a second transport under the runtime (RPL002), unpaired
pause/resume paths (RPL003), fork-unsafe module state (RPL004), ratio
patterns bypassing the load-model division guards (RPL005) and torn
checkpoint writes (RPL006) — plus the repo's design rules (RPL008): one
table, :mod:`repro.analysis.design_rules`, of the decisions that keep each
mechanism in one place, checked over the repo the lint runs in.  RPL007 is
reserved.

The checker reads source text only; it imports none of the runtime it
checks.  The dynamic twin of the protocol rules, the runtime sanitizer,
is a stage observer and lives with the runtime (:mod:`repro.runtime.
sanitizer`).
"""

from repro.analysis.engine import LintEngine, lint_paths
from repro.analysis.findings import Finding
from repro.analysis.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintEngine",
    "get_rules",
    "lint_paths",
]
