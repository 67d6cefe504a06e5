"""Rule implementations for ``repro check``.

Importing this package registers every rule; registration order is the
order rules run and the order ``repro check --list`` prints.
"""

from . import (  # noqa: F401 - imports register the rules
    async_blocking,
    lock_discipline,
    determinism,
    imports,
)

__all__ = [
    "async_blocking",
    "determinism",
    "imports",
    "lock_discipline",
]
