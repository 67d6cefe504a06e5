"""``async-blocking`` — no blocking calls inside ``async def`` bodies.

The serving path is a single asyncio event loop per worker: one
``time.sleep``, synchronous file/socket open, subprocess spawn, or
direct persistent-cache write inside a coroutine stalls *every*
connection on that worker.  Blocking work belongs in an executor — and
the executor pattern (a nested synchronous ``def`` handed to
``loop.run_in_executor`` / ``asyncio.to_thread``) is recognized
automatically, because a nested sync function body is no longer
lexically "inside" the coroutine.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from ..model import Finding, Project, SourceFile
from ..registry import rule
from ._util import dotted_name

RULE_ID = "async-blocking"

#: Exact dotted calls that block the loop.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep() blocks the event loop; use asyncio.sleep()",
    "socket.socket": "synchronous socket in a coroutine",
    "socket.create_connection": "synchronous socket in a coroutine",
    "os.system": "blocking shell-out in a coroutine",
    "os.popen": "blocking shell-out in a coroutine",
    "urllib.request.urlopen": "synchronous HTTP in a coroutine",
}

#: Dotted-name prefixes that block as a family.
_BLOCKING_PREFIXES = {
    "subprocess.": "subprocess spawn blocks the event loop",
    "requests.": "synchronous HTTP in a coroutine",
}

#: Method names that write the persistent result store (FabricCache);
#: receivers are matched lexically on cache-ish names.
_CACHE_WRITE_METHODS = {"put", "compact"}
_CACHE_RECEIVER_HINTS = ("cache", "disk", "fabric")


def _blocking_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "synchronous open() in a coroutine; use an executor"
    name = dotted_name(func)
    if name is not None:
        if name in _BLOCKING_CALLS:
            return _BLOCKING_CALLS[name]
        for prefix, reason in _BLOCKING_PREFIXES.items():
            if name.startswith(prefix):
                return reason
    if isinstance(func, ast.Attribute) and func.attr in _CACHE_WRITE_METHODS:
        receiver = ast.unparse(func.value).lower()
        if any(hint in receiver for hint in _CACHE_RECEIVER_HINTS):
            return (
                f"direct persistent-cache write .{func.attr}() on "
                f"'{ast.unparse(func.value)}' inside a coroutine; route "
                "through an executor"
            )
    return None


def _scan(
    src: SourceFile,
) -> Iterator[Tuple[ast.Call, str]]:
    """Yield blocking calls lexically inside coroutine bodies."""

    def visit(node: ast.AST, in_async: bool) -> Iterator[Tuple[ast.Call, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AsyncFunctionDef):
                yield from visit(child, True)
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                # A nested sync function runs wherever it is *called*
                # (typically an executor) — its body is not the loop.
                yield from visit(child, False)
            else:
                if in_async and isinstance(child, ast.Call):
                    reason = _blocking_reason(child)
                    if reason is not None:
                        yield child, reason
                yield from visit(child, in_async)

    if src.tree is not None:
        yield from visit(src.tree, False)


@rule(RULE_ID, "no blocking calls lexically inside async def bodies")
def check(project: Project) -> Iterator[Finding]:
    for src in project:
        for call, reason in _scan(src):
            yield src.finding(RULE_ID, call, reason)
