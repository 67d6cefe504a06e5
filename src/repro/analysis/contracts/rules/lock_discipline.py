"""``lock-discipline`` — lock-guarded attributes stay lock-guarded.

Scoped to the four files that multiplex threads over shared state
(``registry.py``, ``fabric.py``, ``pool.py``, ``queue.py``).  Within each class, any
attribute ever *assigned* inside a ``with self._lock:`` block is
treated as lock-guarded; reading or writing it outside a lock-held
scope of the same class is a finding (a torn read at best, a
check-then-act race at worst).

Lock-held scopes are computed, not guessed:

- statements lexically inside ``with self._lock:`` are lock-held;
- ``__init__``/``__post_init__``/dunders are exempt (construction and
  repr run before/outside the sharing contract);
- a private helper (``self._helper()``) is lock-held when *every*
  internal call site is lock-held, resolved by an optimistic
  fixed-point over the intra-class call graph — so mutually recursive
  helpers called only under the lock (the fabric's ``_read`` ↔
  ``_recover`` pair) stay lock-held;
- a ``*_locked`` name suffix asserts lock-held by convention;
- public methods are never lock-held (any thread may call them).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..model import Finding, Project, SourceFile
from ..registry import rule

RULE_ID = "lock-discipline"

_SCOPE_BASENAMES = {"registry.py", "fabric.py", "pool.py", "queue.py"}

_EXEMPT = {"__init__", "__post_init__", "__del__", "__enter__", "__exit__"}


def _is_self_lock(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "_lock"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


class _MethodScan(ast.NodeVisitor):
    """Per-method facts: attr accesses and internal calls, each tagged
    with whether the site is lexically inside ``with self._lock:``."""

    def __init__(self) -> None:
        self.depth = 0  # with-self._lock nesting
        self.accesses: List[Tuple[str, ast.AST, bool, bool]] = []
        # (attr, node, locked, is_store)
        self.calls: List[Tuple[str, bool]] = []  # (callee, locked)

    def visit_With(self, node: ast.With) -> None:
        locked = any(_is_self_lock(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if locked:
            self.depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self.depth -= 1

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            if node.attr != "_lock":
                is_store = isinstance(node.ctx, (ast.Store, ast.Del))
                self.accesses.append(
                    (node.attr, node, self.depth > 0, is_store)
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            self.calls.append((func.attr, self.depth > 0))
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested function runs whenever it is called — its body cannot
        # be assumed lock-held; scan it with the lock considered released.
        saved = self.depth
        self.depth = 0
        body = node.body if isinstance(node.body, list) else [node.body]
        for stmt in body:
            self.visit(stmt)
        self.depth = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]


def _class_findings(
    src: SourceFile, cls: ast.ClassDef
) -> Iterator[Finding]:
    methods: Dict[str, ast.FunctionDef] = {
        n.name: n
        for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    scans: Dict[str, _MethodScan] = {}
    uses_lock = False
    for name, fn in methods.items():
        scan = _MethodScan()
        for stmt in fn.body:
            scan.visit(stmt)
        scans[name] = scan
        if any(locked for _, _, locked, _ in scan.accesses) or any(
            locked for _, locked in scan.calls
        ):
            uses_lock = True
    for fn in methods.values():
        for node in ast.walk(fn):
            if isinstance(node, ast.With) and any(
                _is_self_lock(item.context_expr) for item in node.items
            ):
                uses_lock = True
    if not uses_lock:
        return

    # Attributes assigned under the lock anywhere in the class.
    tracked: Set[str] = set()
    for name, scan in scans.items():
        for attr, _, locked, is_store in scan.accesses:
            if locked and is_store:
                tracked.add(attr)
    if not tracked:
        return

    # Optimistic fixed-point: which private helpers are always entered
    # with the lock held?
    def candidate(name: str) -> bool:
        return (
            name.startswith("_")
            and not name.startswith("__")
            and name in methods
        )

    held: Dict[str, bool] = {}
    for name in methods:
        if name.endswith("_locked"):
            held[name] = True
        elif candidate(name):
            held[name] = True  # optimistic start
        else:
            held[name] = False

    call_sites: Dict[str, List[Tuple[str, bool]]] = {m: [] for m in methods}
    for caller, scan in scans.items():
        for callee, locked in scan.calls:
            if callee in call_sites:
                call_sites[callee].append((caller, locked))

    changed = True
    while changed:
        changed = False
        for name in methods:
            if name.endswith("_locked") or not candidate(name):
                continue
            sites = call_sites[name]
            ok = bool(sites) and all(
                locked or caller in _EXEMPT or held.get(caller, False)
                for caller, locked in sites
            )
            if held[name] != ok:
                held[name] = ok
                changed = True

    for name, scan in scans.items():
        if name in _EXEMPT or (name.startswith("__") and name.endswith("__")):
            continue
        if held.get(name, False):
            continue
        for attr, node, locked, is_store in scan.accesses:
            if locked or attr not in tracked:
                continue
            verb = "written" if is_store else "read"
            yield src.finding(
                RULE_ID,
                node,
                f"{cls.name}.{attr} is lock-guarded (assigned under "
                f"self._lock) but {verb} without the lock in "
                f"{cls.name}.{name}()",
            )


@rule(
    RULE_ID,
    "attributes assigned under self._lock are never accessed outside "
    "lock-held scopes",
)
def check(project: Project) -> Iterator[Finding]:
    for src in project:
        if src.basename not in _SCOPE_BASENAMES or src.tree is None:
            continue
        for cls in src.classes():
            yield from _class_findings(src, cls)
