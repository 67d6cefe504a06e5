"""Named-model registry: the routing table of the serving gateway.

A production deployment of one column-annotation service rarely runs one
model: per-dataset fine-tunes (wikitable vs. viznet), canary vs. stable
weights, and ablation variants all serve side by side.
:class:`ModelRegistry` owns that fleet for a process:

* **Registration** binds a *name* to a model source — a bundle directory
  written by :func:`~repro.core.persistence.save_annotator` (loaded
  lazily, on first request), or an in-memory
  :class:`~repro.serving.engine.AnnotationEngine` /
  :class:`~repro.core.trainer.DoduoTrainer` /
  :class:`~repro.core.annotator.Doduo` (live immediately).
* **Routing** resolves a *route* — a registered name **or** a model
  fingerprint (:meth:`~repro.core.trainer.DoduoTrainer.annotation_fingerprint`)
  — to a live engine.  Fingerprint routes make deployments
  content-addressed: a client that pinned the exact weights it validated
  against keeps getting them even if names are repointed.
* **Eviction** bounds resident engines: ``max_live`` caps how many loaded
  engines stay in memory; past it, the least-recently-used *unpinned*
  checkpoint-backed engine is dropped (its entry stays registered and
  reloads transparently on the next request).  Pinned models — explicit
  ``pinned=True``, or any in-memory registration, which has no checkpoint
  to reload from — form the capacity floor eviction never digs into.
* **Cache partitioning**: given a ``cache_dir``, every engine gets its own
  :class:`~repro.serving.fabric.FabricCache` rooted at
  ``cache_dir/<fingerprint>`` — models never share segment files (the
  composite result key already embeds the fingerprint, so partitioning is
  belt on top of braces).

The registry is thread-safe; the gateway calls into it on every submit.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..telemetry import declare
from .engine import AnnotationEngine, EngineConfig
from .fabric import FabricCache

ModelSource = Union[str, Path, AnnotationEngine, object]


RegistryStats = declare(
    "RegistryStats",
    "Counters for one registry's lifetime.",
    {
        "registered": "names registered (initial and hot)",
        "loads": "checkpoint loads: first-touch lazy loads and re-loads "
        "after eviction",
        "reloads": "the loads that re-loaded an evicted model",
        "evictions": "live engines dropped by the ``max_live`` policy or "
        ":meth:`ModelRegistry.evict`",
        "routed": "successful route resolutions (the gateway's submit traffic)",
        "repoints": "in-place rebinds of a name to new weights",
        "arena_remaps": "loads served by mapping a weight arena instead of "
        "deserializing ``weights.npz`` — on an arena-backed registry every "
        "load (including every evict→reload cycle) should land here",
    },
)


class RegisteredModel:
    """One registry slot: a name bound to a model source.

    ``engine`` is ``None`` while the model is registered-but-not-loaded
    (lazy checkpoint registration) or after eviction; ``fingerprint``
    becomes known at first load and *survives* eviction, so
    fingerprint-keyed routes keep resolving (and transparently trigger a
    reload).  ``last_used`` is the registry's logical clock at the most
    recent touch — the LRU eviction key.
    """

    __slots__ = (
        "name",
        "path",
        "pinned",
        "engine",
        "engine_config",
        "arena",
        "fingerprint",
        "last_used",
        "loads",
        "load_lock",
    )

    def __init__(
        self,
        name: str,
        path: Optional[Path],
        pinned: bool,
        engine: Optional[AnnotationEngine],
        engine_config: Optional[EngineConfig],
        arena: Optional[Path] = None,
    ) -> None:
        self.name = name
        self.path = path
        self.pinned = pinned
        self.engine = engine
        self.engine_config = engine_config
        # Weight-arena file backing this entry's loads (None = npz loads).
        # Set at registration (the pool pre-builds arenas in the parent)
        # or on first load when the engine config asks for one.
        self.arena = arena
        self.fingerprint: Optional[str] = (
            engine.model_fingerprint if engine is not None else None
        )
        self.last_used = 0
        self.loads = 0
        # Serializes checkpoint loads of THIS entry only, so a cold load
        # runs outside the registry-wide lock (see ModelRegistry.get).
        self.load_lock = threading.Lock()

    @property
    def live(self) -> bool:
        return self.engine is not None


class ModelRegistry:
    """Load, route, and evict named annotation engines.

    ``max_live`` bounds how many engines stay loaded (``None`` = no bound);
    ``engine_config`` is the default :class:`EngineConfig` for engines the
    registry builds (per-model overrides via ``register(engine_config=)``);
    ``cache_dir`` roots one persistent result-cache directory per model
    fingerprint (see the module docstring).

    Typical use::

        registry = ModelRegistry(max_live=2, cache_dir="anno-cache/")
        registry.register("stable", "models/stable/")
        registry.register("canary", "models/canary/", pinned=True)
        engine = registry.get("canary")
    """

    def __init__(
        self,
        max_live: Optional[int] = None,
        engine_config: Optional[EngineConfig] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        fabric_writer: Optional[str] = None,
    ) -> None:
        if max_live is not None and max_live < 1:
            raise ValueError(f"max_live must be >= 1: {max_live}")
        self.max_live = max_live
        self.engine_config = engine_config
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        # The writer id this process appends under in every
        # per-fingerprint directory (the serving pool passes
        # "w<slot>-pid<PID>"); None takes the store's "pid<PID>" default.
        self.fabric_writer = fabric_writer
        self.stats = RegistryStats()
        self._entries: Dict[str, RegisteredModel] = {}
        # One store handle per fingerprint, shared by every engine (and
        # every registration — two names over the same weights) that
        # resolves to it: one writer id never appends through two handles,
        # and an evict/reload cycle reuses the same handle instead of
        # racing a fresh one against the old.
        self._disk_caches: Dict[str, FabricCache] = {}
        self._default_name: Optional[str] = None
        self._clock = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        source: ModelSource,
        pinned: bool = False,
        engine_config: Optional[EngineConfig] = None,
        arena: Optional[Union[str, Path]] = None,
    ) -> RegisteredModel:
        """Bind ``name`` to a model source.

        ``source`` is a bundle directory path (lazy: nothing loads until
        the first request routes here), or an in-memory
        :class:`AnnotationEngine` / :class:`~repro.core.trainer.DoduoTrainer`
        / :class:`~repro.core.annotator.Doduo` (live immediately, and
        implicitly pinned — there is no checkpoint to reload it from after
        an eviction).  The first registration becomes the default route.

        ``arena`` (bundle-path sources only) pins the weight-arena file
        this entry loads from — the serving pool passes the arena its
        parent pre-built so every worker maps the same pages.  Without
        it, an engine config with ``weight_arena=True`` builds/reuses
        the bundle's own arena on first load.
        """
        if not name or name != name.strip():
            raise ValueError(f"model name must be non-empty, got {name!r}")
        with self._lock:
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
            entry = self._build_entry(name, source, pinned, engine_config, arena=arena)
            self._entries[name] = entry
            self.stats.registered += 1
            if self._default_name is None:
                self._default_name = name
            return entry

    def _build_entry(
        self,
        name: str,
        source: ModelSource,
        pinned: bool,
        engine_config: Optional[EngineConfig],
        replacing: Optional[RegisteredModel] = None,
        arena: Optional[Union[str, Path]] = None,
    ) -> RegisteredModel:
        """One validated :class:`RegisteredModel` for ``source`` (caller
        holds the registry lock; ``replacing`` exempts the entry a repoint
        is about to retire from the duplicate-object check)."""
        if isinstance(source, (str, Path)):
            path = Path(source)
            if not (path / "bundle.json").exists():
                raise ValueError(
                    f"model {name!r}: {path} is not a bundle directory "
                    "(no bundle.json)"
                )
            return RegisteredModel(
                name,
                path,
                pinned,
                None,
                engine_config,
                arena=Path(arena) if arena is not None else None,
            )
        if arena is not None:
            raise ValueError(
                f"model {name!r}: arena= applies to bundle-path sources "
                "only (an in-memory engine already owns its weights)"
            )
        engine = self._as_engine(source, engine_config)
        # One serving thread per route drives each engine, and an
        # engine's trainer/pipeline is not thread-safe — the same
        # live object must not serve under two names.  (To alias a
        # model, register its bundle path twice: each load gets a
        # private engine, and the disk tier is still shared per
        # fingerprint.)
        for other in self._entries.values():
            if other is replacing:
                continue
            if other.engine is not None and (
                other.engine is engine
                or other.engine.trainer is engine.trainer
            ):
                raise ValueError(
                    f"model {other.name!r} already serves this "
                    f"trainer/engine object; register a bundle path "
                    f"(or a separate trainer) for {name!r} instead"
                )
        self._attach_result_cache(engine)
        # In-memory sources cannot be reloaded after eviction, so
        # they are pinned regardless of the flag.
        return RegisteredModel(name, None, True, engine, engine_config)

    def repoint(
        self,
        name: str,
        source: ModelSource,
        pinned: bool = False,
        engine_config: Optional[EngineConfig] = None,
    ) -> RegisteredModel:
        """Atomically rebind ``name`` to a new model source.

        The hot-deployment primitive: a serving name (``"stable"``,
        ``"canary"``) is pointed at new weights without restarting the
        process or disturbing the other routes.  Under the registry lock,
        the old engine (if live) is dropped — its shared per-fingerprint
        disk-cache handle detaches exactly as in eviction — and the name's
        slot is replaced in place: registration order, default status, and
        LRU recency carry over, so fingerprint resolution and eviction
        order stay consistent throughout.  The replacement loads lazily
        (bundle-path sources) on the next request routed to it.

        The *old* fingerprint stops resolving through this name: clients
        pinned to exact weights by fingerprint keep resolving only while
        some name still serves those weights — which is precisely the
        content-addressing contract.  Raises ``KeyError`` for unknown
        names; validation failures (not a bundle directory, a live object
        already serving elsewhere) leave the old binding untouched.
        """
        if not name or name != name.strip():
            raise ValueError(f"model name must be non-empty, got {name!r}")
        with self._lock:
            old = self._entries.get(name)
            if old is None:
                raise KeyError(f"no model registered as {name!r}")
            entry = self._build_entry(
                name, source, pinned, engine_config, replacing=old
            )
            self._drop_engine(old)
            entry.last_used = old.last_used
            self._entries[name] = entry
            self._release_unreferenced_handle(old.fingerprint)
            self.stats.repoints += 1
            return entry

    def _release_unreferenced_handle(self, fingerprint: Optional[str]) -> None:
        """Close and drop the per-fingerprint disk-cache handle once no
        registration references ``fingerprint`` anymore (caller holds the
        registry lock).  Repoint/unregister churn over unique models must
        not accumulate dead handles and their in-memory indexes; the
        directory stays on disk, warm for a future registration of the
        same weights."""
        if fingerprint is None:
            return
        if any(
            entry.fingerprint == fingerprint
            for entry in self._entries.values()
        ):
            return
        cache = self._disk_caches.pop(fingerprint, None)
        if cache is not None:
            cache.close()

    def _as_engine(
        self, source: ModelSource, engine_config: Optional[EngineConfig]
    ) -> AnnotationEngine:
        if isinstance(source, AnnotationEngine):
            return source
        # DoduoTrainer, or a Doduo annotator (the engine constructor
        # duck-types both).
        return AnnotationEngine(
            source, engine_config or self.engine_config or EngineConfig()
        )

    def _attach_result_cache(self, engine: AnnotationEngine) -> None:
        """Root the engine's disk tier at ``cache_dir/<fingerprint>``.

        Handles are shared per fingerprint: registering the same weights
        under two names, or evicting and reloading one name, always reuses
        the one :class:`~repro.serving.fabric.FabricCache` handle this
        process holds on that directory (its operations are internally
        locked).
        """
        if self.cache_dir is None or engine.result_cache is not None:
            return
        fingerprint = engine.model_fingerprint
        with self._lock:
            cache = self._disk_caches.get(fingerprint)
            if cache is None:
                cache = self._disk_caches[fingerprint] = FabricCache(
                    self.cache_dir / fingerprint, writer=self.fabric_writer
                )
        engine.result_cache = cache

    def unregister(self, name: str) -> None:
        """Remove ``name`` entirely (its engine, if live, is dropped).

        If no other registration shares the entry's fingerprint, its
        per-fingerprint disk-cache handle is closed and released too —
        register/unregister churn over unique models must not accumulate
        dead handles (and their in-memory indexes) for the process
        lifetime.  The directory itself stays on disk, warm for any
        future registration of the same weights.
        """
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is None:
                raise KeyError(f"no model registered as {name!r}")
            self._drop_engine(entry)
            self._release_unreferenced_handle(entry.fingerprint)
            if self._default_name == name:
                self._default_name = next(iter(self._entries), None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, route: str) -> bool:
        with self._lock:
            try:
                self._resolve(route)
            except KeyError:
                return False
            return True

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        with self._lock:
            return list(self._entries)

    def live_names(self) -> List[str]:
        """Names whose engines are currently loaded."""
        with self._lock:
            return [e.name for e in self._entries.values() if e.live]

    def live_engine(self, name: str) -> Optional[AnnotationEngine]:
        """The loaded engine for ``name`` — or ``None`` if not live or not
        registered.  A peek: never loads, never touches LRU recency."""
        with self._lock:
            entry = self._entries.get(name)
            return entry.engine if entry is not None else None

    @property
    def default_name(self) -> Optional[str]:
        """The route used when a request names no model (first registered
        unless overridden via :meth:`set_default`)."""
        with self._lock:
            return self._default_name

    def set_default(self, name: str) -> None:
        with self._lock:
            if name not in self._entries:
                raise KeyError(f"no model registered as {name!r}")
            self._default_name = name

    def fingerprint_of(self, name: str, load: bool = False) -> Optional[str]:
        """The model fingerprint of ``name``, if known.

        Lazily-registered models have no fingerprint until first load;
        ``load=True`` forces the load to obtain it.
        """
        with self._lock:
            entry = self._entries[name]
            fingerprint = entry.fingerprint
        if fingerprint is None and load:
            self.get(name)
            fingerprint = entry.fingerprint
        return fingerprint

    def pin(self, name: str) -> None:
        """Exempt ``name`` from LRU eviction."""
        with self._lock:
            self._entries[name].pinned = True

    def unpin(self, name: str) -> None:
        """Re-admit ``name`` to LRU eviction (checkpoint-backed models
        only — in-memory registrations stay pinned, they cannot reload)."""
        with self._lock:
            entry = self._entries[name]
            if entry.path is None:
                raise ValueError(
                    f"model {name!r} was registered in-memory and cannot be "
                    "unpinned (there is no checkpoint to reload it from)"
                )
            entry.pinned = False

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def resolve(self, route: Optional[str] = None) -> str:
        """Canonical registered *name* for ``route`` (name or fingerprint).

        ``None`` resolves to the default model.  Raises ``KeyError`` for
        unknown routes (or when ``None`` is asked of an empty registry).
        """
        with self._lock:
            return self._resolve(route).name

    def _resolve(self, route: Optional[str] = None) -> RegisteredModel:
        if route is None:
            if self._default_name is None:
                raise KeyError("the registry has no models registered")
            return self._entries[self._default_name]
        entry = self._entries.get(route)
        if entry is not None:
            return entry
        # Fingerprint route: only resolvable once the model has been
        # loaded at least once (fingerprints survive eviction).
        for entry in self._entries.values():
            if entry.fingerprint == route:
                return entry
        raise KeyError(
            f"no model registered under name or fingerprint {route!r} "
            f"(registered: {', '.join(self._entries) or 'none'})"
        )

    def get(self, route: Optional[str] = None) -> AnnotationEngine:
        """The live engine for ``route``, loading/reloading as needed."""
        return self.acquire(route)[1]

    def acquire(
        self, route: Optional[str] = None, load: bool = True
    ) -> Tuple[str, Optional[AnnotationEngine]]:
        """``(canonical name, live engine)`` for ``route`` in one registry
        pass — the gateway's per-submission entry point.  ``load=False``
        never loads: a route that is not live comes back with ``None`` for
        the engine, untouched (callers on an event loop).

        Touches the entry's LRU recency and enforces ``max_live`` (the
        just-routed engine is never the one evicted).  Checkpoint loads
        run *outside* the registry lock, serialized per entry: one model's
        cold load never stalls routing to the models that are already hot,
        and two concurrent requests for the same cold model load it once.
        """
        while True:
            with self._lock:
                entry = self._resolve(route)
                if entry.engine is not None:
                    self._clock += 1
                    entry.last_used = self._clock
                    self.stats.routed += 1
                    self._enforce_max_live(keep=entry)
                    return entry.name, entry.engine
                if not load:
                    return entry.name, None
            with entry.load_lock:
                if entry.engine is None:
                    self._load(entry)
            # Loop: re-enter the registry lock to touch LRU recency and
            # enforce capacity (the entry could also have been evicted
            # again by a concurrent burst — then we just reload).

    def _load(self, entry: RegisteredModel) -> None:
        """Build ``entry``'s engine from its checkpoint (caller holds the
        entry's load lock, NOT the registry lock — this is the slow path)."""
        from ..core.persistence import (  # deferred: heavy import
            ensure_model_arena,
            load_annotator,
        )

        config = entry.engine_config or self.engine_config or EngineConfig()
        if entry.arena is None and config.weight_arena:
            # First arena-backed load without a pre-built file (single-
            # process registries; the pool pre-builds in the parent):
            # build or reuse the bundle's own arena, then every reload —
            # evict→reload in particular — is a remap of the same file.
            entry.arena = ensure_model_arena(entry.path)
        annotator = load_annotator(entry.path, weight_arena=entry.arena)
        engine = AnnotationEngine(annotator.trainer, config)
        self._attach_result_cache(engine)
        with self._lock:
            entry.engine = engine
            entry.fingerprint = engine.model_fingerprint
            entry.loads += 1
            self.stats.loads += 1
            if entry.loads > 1:
                self.stats.reloads += 1
            if entry.arena is not None:
                self.stats.arena_remaps += 1

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _enforce_max_live(self, keep: RegisteredModel) -> None:
        """Evict LRU unpinned engines until ``max_live`` holds.

        Pinned entries (and ``keep``, the engine being handed out right
        now) are the floor: when only those remain live, the bound may be
        overshot rather than evicting something unreloadable or in use.
        """
        if self.max_live is None:
            return
        while sum(1 for e in self._entries.values() if e.live) > self.max_live:
            victims = [
                e
                for e in self._entries.values()
                if e.live and not e.pinned and e is not keep
            ]
            if not victims:
                return
            self._evict_entry(min(victims, key=lambda e: e.last_used))

    def evict(self, name: str) -> None:
        """Drop ``name``'s live engine now (the registration stays; the
        next request to it reloads from its checkpoint)."""
        with self._lock:
            entry = self._entries[name]
            if entry.path is None:
                raise ValueError(
                    f"model {name!r} was registered in-memory and cannot be "
                    "evicted (there is no checkpoint to reload it from)"
                )
            if entry.live:
                self._evict_entry(entry)

    def _evict_entry(self, entry: RegisteredModel) -> None:
        self._drop_engine(entry)
        self.stats.evictions += 1

    @staticmethod
    def _drop_engine(entry: RegisteredModel) -> None:
        engine = entry.engine
        entry.engine = None
        if engine is not None and engine.result_cache is not None:
            # Detach the disk tier before closing its (shared,
            # per-fingerprint) handle: a gateway worker may still be
            # draining in-flight requests against this engine object from
            # another thread — its remaining lookups/writes then skip the
            # tier (results stay correct, they just aren't persisted),
            # while a reload or a same-fingerprint sibling reuses the one
            # handle, whose next write reopens it.
            cache = engine.result_cache
            engine.result_cache = None
            cache.close()

    def close(self) -> None:
        """Release resources: drop checkpoint-backed engines (they reload
        on the next request) and close every disk-cache handle.  In-memory
        registrations keep their engines — dropping them would be
        unrecoverable."""
        with self._lock:
            for entry in self._entries.values():
                if entry.path is not None:
                    self._drop_engine(entry)
                elif (
                    entry.engine is not None
                    and entry.engine.result_cache is not None
                ):
                    entry.engine.result_cache.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
