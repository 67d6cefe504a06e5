"""``ModelRegistry``: a bundle-loading shim kept for a pinned signature.

A serving process loads its one model with
:func:`~repro.serving.engine.load_engine` and serves it through an
:class:`~repro.serving.queue.EngineWorker`.  This class keeps the older
``register`` / ``acquire`` / ``close`` spelling of that load for the
benchmark ladder, which times it; nothing in the package constructs it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from .engine import AnnotationEngine, EngineConfig, load_engine


class ModelRegistry:
    """One named bundle, loaded by :func:`load_engine` at ``register``.

    ``engine_config`` and ``cache_dir`` are :func:`load_engine`'s.  A
    second ``register`` raises ``ValueError``: a serving process holds one
    model.
    """

    def __init__(
        self,
        engine_config: Optional[EngineConfig] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.engine_config = engine_config or EngineConfig()
        self.cache_dir = cache_dir
        self._entry: Optional[Tuple[str, AnnotationEngine]] = None

    def register(self, name: str, bundle: Union[str, Path]) -> None:
        """Load ``bundle`` and serve it under ``name``."""
        if self._entry is not None:
            raise ValueError(
                f"model {self._entry[0]!r} is already registered; a serving "
                "process holds one model"
            )
        engine = load_engine(bundle, self.engine_config, cache_dir=self.cache_dir)
        self._entry = (name, engine)

    def acquire(self) -> Tuple[str, AnnotationEngine]:
        """``(name, engine)`` of the registered model."""
        if self._entry is None:
            raise KeyError("the registry has no model registered")
        return self._entry

    def close(self) -> None:
        """Flush and close the engine's result store (idempotent)."""
        if self._entry is not None and self._entry[1].result_cache is not None:
            self._entry[1].result_cache.close()
