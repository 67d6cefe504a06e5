"""``repro check`` — the AST-based contract checker.

Statically enforces the invariants of the serving stack that are
decidable from source (non-blocking asyncio paths, lock discipline,
determinism hygiene) plus import hygiene.  See
``docs/checks.md`` for the rule catalog and the suppression syntax.
"""

from .model import Finding, Project, SourceFile, Suppression
from .registry import Rule, all_rules, get_rule, rule
from .runner import CheckResult, collect_project, main, run_check

__all__ = [
    "CheckResult",
    "Finding",
    "Project",
    "Rule",
    "SourceFile",
    "Suppression",
    "all_rules",
    "collect_project",
    "get_rule",
    "main",
    "rule",
    "run_check",
]
