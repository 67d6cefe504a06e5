"""``fingerprint-fold`` — every ``EngineConfig`` field is classified.

The model fingerprint is the cache key and the routing key: any config
knob that can change annotation *bytes* must fold into
``model_fingerprint``, or two engines with different outputs share
cached entries (the cache-poisoning failure mode ``precision`` and
``probe_mode`` each had to dodge manually when they landed).  The rule
forces an explicit decision for every field: either the fingerprint
property references it — directly (``self.config.X``) or through one
level of indirection (``self.Y`` where ``__init__`` builds ``Y`` from
config fields, the ``probe_planner`` pattern) — or the field sits in
:data:`BYTE_NEUTRAL`, the audited allowlist of knobs proven not to
change output bytes.  A new field in neither place is a finding, as is
a stale allowlist entry.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..model import Finding, Project, SourceFile
from ..registry import rule

RULE_ID = "fingerprint-fold"

#: Fields audited as byte-neutral: changing them never changes the bytes
#: of any annotation result, so they stay out of the fingerprint and
#: persisted cache keys survive.  Every entry carries its proof sketch —
#: mirrored in docs/checks.md.
BYTE_NEUTRAL: Dict[str, str] = {
    "batch_size": (
        "every sequence is encoded at the width it would have alone "
        "(padding-free ragged passes, or exact width buckets), so batching "
        "is byte-identical to sequential annotation at every batch size "
        "(PR 3 contract, tier-1 tested)"
    ),
    "cache_size": "serialization-cache capacity; hits replay identical bytes",
    "default_options": (
        "per-request options fold into the request-level cache key, not "
        "the model fingerprint"
    ),
    "cache_dir": "storage location of the persistent tier, not its content",
    "column_cache_size": (
        "column-state cache capacity; hits are proven byte-identical"
    ),
    "column_cache_persist": (
        "spill policy for the column cache; entries are content-addressed"
    ),
    "kernels": (
        "proof-gated: fast kernels serve only after a bitwise-equality "
        "proof against the reference path, so both settings emit the "
        "same bytes"
    ),
    "weight_arena": (
        "a float32 arena stores each parameter's exact live bytes, so an "
        "arena-backed model is bitwise the in-memory one (pinned by "
        "tests); int8 arenas change bytes only via precision, which "
        "folds on its own"
    ),
}

#: Fields that are KNOWN to change annotation bytes.  They must fold into
#: the fingerprint — the rule rejects any attempt to allowlist them, so a
#: future edit cannot quietly downgrade a byte-affecting knob to
#: byte-neutral (``precision="int8"`` sharing a float32 cache partition
#: is exactly the poisoning this audit exists to prevent).
BYTE_AFFECTING: Tuple[str, ...] = (
    "precision",
    "probe_mode",
    "probe_budget",
)


def _config_fields(cls: ast.ClassDef) -> Dict[str, ast.AnnAssign]:
    out: Dict[str, ast.AnnAssign] = {}
    for node in cls.body:
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and not node.target.id.startswith("_")
        ):
            out[node.target.id] = node
    return out


def _config_refs(node: ast.AST) -> Set[str]:
    """Every ``X`` from ``self.config.X`` under ``node``."""
    out: Set[str] = set()
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Attribute)
            and child.value.attr == "config"
            and isinstance(child.value.value, ast.Name)
            and child.value.value.id == "self"
        ):
            out.add(child.attr)
    return out


def _self_attr_reads(node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
        ):
            out.add(child.attr)
    return out


def _indirect_refs(cls: ast.ClassDef, attrs: Set[str]) -> Set[str]:
    """Config fields flowing into ``self.Y`` for ``Y`` in ``attrs``.

    Scans ``__init__`` assignments to the attributes the fingerprint
    reads, collecting ``self.config.X`` references from the assignment
    itself *and* from the tests of every enclosing ``if`` — the
    ``probe_planner`` pattern, where the planner exists only under
    ``if self.config.probe_mode == "planned":`` and carries
    ``probe_budget`` in its constructor.
    """
    init = next(
        (
            n
            for n in cls.body
            if isinstance(n, ast.FunctionDef) and n.name == "__init__"
        ),
        None,
    )
    if init is None:
        return set()
    refs: Set[str] = set()

    def visit(stmts: List[ast.stmt], guards: List[ast.AST]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.If, ast.While)):
                visit(stmt.body, guards + [stmt.test])
                visit(stmt.orelse, guards + [stmt.test])
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                visit(stmt.body + stmt.orelse, guards)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                visit(stmt.body, guards)
            elif isinstance(stmt, ast.Try):
                visit(stmt.body + stmt.orelse + stmt.finalbody, guards)
                for handler in stmt.handlers:
                    visit(handler.body, guards)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in attrs
                    ):
                        refs.update(_config_refs(stmt))
                        for guard in guards:
                            refs.update(_config_refs(guard))

    visit(init.body, [])
    return refs


def _fingerprint_fn(
    project: Project,
) -> Optional[Tuple[SourceFile, ast.ClassDef, ast.FunctionDef]]:
    for src in project:
        for cls in src.classes():
            for node in cls.body:
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name == "model_fingerprint"
                ):
                    return src, cls, node
    return None


@rule(
    RULE_ID,
    "every EngineConfig field folds into model_fingerprint or is "
    "allowlisted byte-neutral",
)
def check(project: Project) -> Iterator[Finding]:
    configs = project.find_classes("EngineConfig")
    if not configs:
        return
    found = _fingerprint_fn(project)
    if found is None:
        for src, cls in configs:
            yield src.finding(
                RULE_ID,
                cls,
                "EngineConfig exists but no model_fingerprint property was "
                "found to fold it",
            )
        return
    fp_src, fp_cls, fp_fn = found
    direct = _config_refs(fp_fn)
    # One level of indirection: self.Y read by the fingerprint, built in
    # __init__ from config fields.
    indirect_attrs = _self_attr_reads(fp_fn) - {"config"}
    indirect = _indirect_refs(fp_cls, indirect_attrs)
    classified = direct | indirect | set(BYTE_NEUTRAL)

    for src, cls in configs:
        fields = _config_fields(cls)
        for name, node in fields.items():
            if name not in classified:
                yield src.finding(
                    RULE_ID,
                    node,
                    f"EngineConfig.{name} is neither folded into "
                    "model_fingerprint nor allowlisted as byte-neutral — "
                    "classify it or caches may mix outputs (the precision/"
                    "probe_mode cache-poisoning hazard)",
                )
        # Staleness only makes sense against the canonical definition —
        # fixture/test configs are deliberately minimal.
        if src.rel.replace("\\", "/").endswith("serving/engine.py"):
            for name in sorted(set(BYTE_NEUTRAL) - set(fields)):
                yield src.finding(
                    RULE_ID,
                    cls,
                    f"stale byte-neutral allowlist entry '{name}' — no such "
                    "EngineConfig field",
                    severity="warning",
                )
            for name in sorted(set(BYTE_AFFECTING) & set(BYTE_NEUTRAL)):
                yield src.finding(
                    RULE_ID,
                    cls,
                    f"'{name}' is audited byte-affecting but appears in the "
                    "byte-neutral allowlist — it must fold into "
                    "model_fingerprint, never be allowlisted",
                )
            for name in sorted(set(BYTE_AFFECTING) & set(fields) - classified):
                yield src.finding(
                    RULE_ID,
                    cls,
                    f"byte-affecting field '{name}' does not reach "
                    "model_fingerprint — cache partitions will mix outputs",
                )
