"""The serving process's one model: its registration, load and routes.

A serving process answers with one Doduo model.  :class:`ModelRegistry`
holds it:

* **Registration** binds a *name* to a model source — a bundle directory
  written by :func:`~repro.core.persistence.save_annotator` (loaded
  lazily, on the first request), or an in-memory
  :class:`~repro.serving.engine.AnnotationEngine` /
  :class:`~repro.core.trainer.DoduoTrainer` /
  :class:`~repro.core.annotator.Doduo` (live immediately).  A registry
  holds one model: a second registration raises ``ValueError``.
* **Routes** are ``None``, the registered name, or its fingerprint
  (:meth:`~repro.core.trainer.DoduoTrainer.annotation_fingerprint`).  Any
  other route raises ``KeyError``: a request pinned to other weights is
  refused, never answered by these.
* **Result store**: given a ``cache_dir``, the engine's
  :class:`~repro.serving.fabric.FabricCache` is rooted at
  ``cache_dir/<fingerprint>`` (the result key embeds the fingerprint as
  well).

The registry is thread-safe; the gateway calls into it on every submit.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional, Tuple, Union

from ..telemetry import declare
from .engine import AnnotationEngine, EngineConfig
from .fabric import FabricCache

ModelSource = Union[str, Path, AnnotationEngine, object]


RegistryStats = declare(
    "RegistryStats",
    "Counters for one registry's lifetime.",
    {
        "registered": "models registered (0 or 1)",
        "loads": "checkpoint loads (a bundle loads on its first request, "
        "and again only after :meth:`ModelRegistry.close`)",
        "reloads": "always 0: one model is never evicted, so never reloaded",
        "evictions": "always 0: one model is never evicted",
        "routed": "successful route resolutions (the gateway's submit "
        "traffic; stored answers the server renders itself skip the "
        "registry)",
        "repoints": "always 0: a registered name keeps its weights",
        "arena_remaps": "loads served by mapping a weight arena instead of "
        "deserializing ``weights.npz``",
    },
)


class ModelRegistry:
    """Load and route the one annotation engine a process serves.

    ``engine_config`` is the :class:`EngineConfig` for an engine the
    registry builds (``register(engine_config=)`` overrides it);
    ``cache_dir`` roots the model's persistent result store (see the
    module docstring); ``fabric_writer`` is the writer id appended under
    (the serving pool passes ``"w<slot>-pid<PID>"``; ``None`` takes the
    store's ``"pid<PID>"`` default).

    Typical use::

        registry = ModelRegistry(cache_dir="anno-cache/")
        registry.register("default", "models/run/")
        name, engine = registry.acquire()
    """

    def __init__(
        self,
        engine_config: Optional[EngineConfig] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        fabric_writer: Optional[str] = None,
    ) -> None:
        self.engine_config = engine_config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.fabric_writer = fabric_writer
        self.stats = RegistryStats()
        self._name: Optional[str] = None
        self._path: Optional[Path] = None
        self._arena: Optional[Path] = None
        self._config: Optional[EngineConfig] = None
        self._engine: Optional[AnnotationEngine] = None
        self._lock = threading.Lock()

    def register(
        self,
        name: str,
        source: ModelSource,
        engine_config: Optional[EngineConfig] = None,
        arena: Optional[Union[str, Path]] = None,
    ) -> None:
        """Bind ``name`` to the model source (see the module docstring).

        ``arena`` (bundle-path sources only) is the weight-arena file the
        bundle loads from — the serving pool passes the arena its parent
        pre-built so every worker maps the same pages.  Without it, an
        engine config with ``weight_arena=True`` builds or reuses the
        bundle's own arena on first load.
        """
        if not name or name != name.strip():
            raise ValueError(f"model name must be non-empty, got {name!r}")
        with self._lock:
            if self._name is not None:
                raise ValueError(
                    f"model {self._name!r} is already registered; a serving "
                    "process holds one model"
                )
            if isinstance(source, (str, Path)):
                path = Path(source)
                if not (path / "bundle.json").exists():
                    raise ValueError(
                        f"model {name!r}: {path} is not a bundle directory "
                        "(no bundle.json)"
                    )
                self._path = path
                self._arena = Path(arena) if arena is not None else None
            elif arena is not None:
                raise ValueError(
                    f"model {name!r}: arena= applies to bundle-path sources "
                    "only (an in-memory engine already owns its weights)"
                )
            else:
                if not isinstance(source, AnnotationEngine):
                    # DoduoTrainer, or a Doduo annotator (the engine
                    # constructor duck-types both).
                    source = AnnotationEngine(
                        source,
                        engine_config or self.engine_config or EngineConfig(),
                    )
                self._attach(source)
            self._name = name
            self._config = engine_config
            self.stats.registered += 1

    @property
    def default_name(self) -> Optional[str]:
        """The registered name (``None`` before :meth:`register`)."""
        with self._lock:
            return self._name

    @property
    def live(self) -> bool:
        """Whether the model is loaded.  A peek: never loads."""
        with self._lock:
            return self._engine is not None

    def admits(self, route: Optional[str]) -> bool:
        """Whether ``route`` names this model: ``None``, the registered
        name, or the loaded model's fingerprint.  Never loads, so an event
        loop may ask."""
        with self._lock:
            return self._admits_locked(route)

    def _admits_locked(self, route: Optional[str]) -> bool:
        engine = self._engine
        return (
            route is None
            or route == self._name
            or (engine is not None and route == engine.model_fingerprint)
        )

    def get(self, route: Optional[str] = None) -> AnnotationEngine:
        """The live engine for ``route``, loading it on first use."""
        return self.acquire(route)[1]

    def acquire(
        self, route: Optional[str] = None, load: bool = True
    ) -> Tuple[str, Optional[AnnotationEngine]]:
        """``(name, engine)`` for ``route`` — the gateway's per-submission
        entry point.  The first call loads a bundle, under the registry
        lock, so concurrent first requests load it once — and before the
        route is checked, since a fingerprint is known only once the
        weights are.  ``load=False`` never loads: a model not yet loaded
        comes back with ``None``.  Raises ``KeyError`` for a route
        :meth:`admits` refuses (or when nothing is registered)."""
        with self._lock:
            if self._name is None:
                raise KeyError("the registry has no model registered")
            if self._engine is None and load:
                self._load()
            if not self._admits_locked(route):
                raise KeyError(
                    f"no model registered under name or fingerprint "
                    f"{route!r} (serving {self._name!r})"
                )
            if self._engine is not None:
                self.stats.routed += 1
            return self._name, self._engine

    def _load(self) -> None:
        """Build the engine from its bundle (caller holds the lock)."""
        from ..core.persistence import (  # deferred: heavy import
            ensure_model_arena,
            load_annotator,
        )

        config = self._config or self.engine_config or EngineConfig()
        if self._arena is None and config.weight_arena:
            # No pre-built file (a single-process registry; the pool
            # pre-builds in the parent): build or reuse the bundle's own.
            self._arena = ensure_model_arena(self._path)
        annotator = load_annotator(self._path, weight_arena=self._arena)
        self._attach(AnnotationEngine(annotator.trainer, config))
        self.stats.loads += 1
        if self._arena is not None:
            self.stats.arena_remaps += 1

    def _attach(self, engine: AnnotationEngine) -> None:
        """Make ``engine`` the live one, its disk tier rooted at
        ``cache_dir/<fingerprint>`` unless its config opened one."""
        if self.cache_dir is not None and engine.result_cache is None:
            engine.result_cache = FabricCache(
                self.cache_dir / engine.model_fingerprint,
                writer=self.fabric_writer,
            )
        self._engine = engine

    def close(self) -> None:
        """Close the result store.  A bundle-loaded engine is dropped too
        (the next request reloads it) and its store detached first, so a
        worker still draining against it skips the tier; an in-memory
        engine is kept — dropping it would be unrecoverable.  Idempotent."""
        with self._lock:
            engine = self._engine
            if engine is None:
                return
            cache = engine.result_cache
            if self._path is not None:
                self._engine = None
                engine.result_cache = None
            if cache is not None:
                cache.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
