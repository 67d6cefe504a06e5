"""Findings, suppressions, and parsed-source containers for ``repro check``.

The checker's unit of work is a :class:`Project` — a set of
:class:`SourceFile` objects, each holding the raw text, the parsed
``ast`` tree, and the inline suppressions found in that file.  Rules
receive the whole project (the dead-shim half of ``unused-import`` is
cross-file) and return :class:`Finding` objects.

Suppression syntax::

    some_code()  # repro: allow[<rule-id>] -- reason the contract is safe here

The reason is **mandatory**: a suppression without one does not
suppress anything and is itself reported as a ``suppression-syntax``
finding.  A suppression on a bare comment line applies to the next
source line, so block-style suppressions read naturally::

    # repro: allow[async-blocking] -- admin plane, executor-wrapped below
    data = blocking_call()
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Finding",
    "Project",
    "SourceFile",
    "Suppression",
    "SUPPRESSION_RULE_ID",
]

#: Rule id under which malformed suppressions are reported.
SUPPRESSION_RULE_ID = "suppression-syntax"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_-]+)\]\s*(?:--\s*(.*))?$"
)


@dataclass(frozen=True)
class Finding:
    """One contract violation, pointing at ``path:line``."""

    rule_id: str
    severity: str  # "error" | "warning"
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.severity}: [{self.rule_id}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro: allow[<rule-id>] -- reason`` marker.

    ``lines`` is the set of source lines the marker covers: the marker's
    own line, plus the following line when the marker sits on a bare
    comment line.
    """

    rule_id: str
    reason: str
    line: int
    lines: Tuple[int, ...]

    @property
    def valid(self) -> bool:
        return bool(self.reason.strip())


def _parse_suppressions(text: str) -> List[Suppression]:
    out: List[Suppression] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(raw)
        if match is None:
            continue
        rule_id = match.group(1)
        reason = (match.group(2) or "").strip()
        covered = (lineno,)
        if raw.lstrip().startswith("#"):
            # Bare comment line: the marker covers the next source line.
            covered = (lineno, lineno + 1)
        out.append(
            Suppression(rule_id=rule_id, reason=reason, line=lineno, lines=covered)
        )
    return out


@dataclass
class SourceFile:
    """One parsed python source file."""

    path: Path
    rel: str
    text: str
    tree: Optional[ast.AST]
    parse_error: Optional[str] = None
    suppressions: List[Suppression] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, rel: Optional[str] = None) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        return cls.from_text(text, path=path, rel=rel)

    @classmethod
    def from_text(
        cls,
        text: str,
        path: Optional[Path] = None,
        rel: Optional[str] = None,
    ) -> "SourceFile":
        path = path or Path("<memory>")
        tree: Optional[ast.AST] = None
        error: Optional[str] = None
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:  # surfaced as a finding by the runner
            error = f"{exc.msg} (line {exc.lineno})"
        return cls(
            path=path,
            rel=rel if rel is not None else str(path),
            text=text,
            tree=tree,
            parse_error=error,
            suppressions=_parse_suppressions(text),
        )

    @property
    def basename(self) -> str:
        return self.path.name

    def finding(
        self, rule_id: str, node: ast.AST, message: str, severity: str = "error"
    ) -> Finding:
        line = getattr(node, "lineno", 0)
        return Finding(
            rule_id=rule_id,
            severity=severity,
            path=self.rel,
            line=line,
            message=message,
        )

    def classes(self) -> Iterator[ast.ClassDef]:
        if self.tree is None:
            return iter(())
        return (n for n in ast.walk(self.tree) if isinstance(n, ast.ClassDef))


class Project:
    """The file set one ``repro check`` invocation analyzes."""

    def __init__(self, files: Iterable[SourceFile]):
        self.files: List[SourceFile] = list(files)

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)
