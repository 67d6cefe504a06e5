"""The multi-model serving gateway: one front door, fingerprint-keyed routes.

:class:`AnnotationGateway` is the single entry point of the serving stack:
every :class:`~repro.serving.request.AnnotationRequest` — now carrying an
optional ``model`` route — is resolved through a
:class:`~repro.serving.registry.ModelRegistry` (by registered name or model
fingerprint) and handed to that model's own
:class:`~repro.serving.queue.EngineWorker`.  Per-model workers mean the
drain batches, dedup windows, and cache tiers of different models never
mix: dedup keys and disk-cache keys already embed each engine's
fingerprint, and the registry additionally roots each model's
:class:`~repro.serving.fabric.FabricCache` in its own
``cache_dir/<fingerprint>`` directory.

Two client APIs share the workers:

* **Thread-based** — :meth:`~AnnotationGateway.submit` returns a
  :class:`concurrent.futures.Future`; ``annotate`` / ``annotate_batch`` /
  ``annotate_stream`` are the blocking conveniences.  The single-model
  :class:`~repro.serving.queue.AnnotationService` and the
  :class:`~repro.core.annotator.Doduo` toolbox API are thin wrappers over
  a one-entry gateway.
* **Asyncio-native** — ``await gateway.asubmit(table)`` and ``async for
  result in gateway.astream(tables)``.  Results come from the same worker
  threads, bridged with :func:`asyncio.wrap_future`, so an asyncio server
  never burns a thread per in-flight request; a full queue is retried with
  ``await asyncio.sleep`` backoff instead of blocking the event loop
  (thread-based ``submit`` blocks, which would stall every coroutine).

A front-end that renders stored payloads itself (the socket server) asks
:meth:`~AnnotationGateway.answer_stored` first: a non-blocking probe of the
route's live worker and its engine's result store that answers a hit on the
caller's thread, and on a miss hands back the request's hash for
``asubmit(identity=...)``.

Equivalence: routing adds nothing to the math.  A gateway answer is the
routed engine's answer — byte-identical to calling that engine's
``annotate`` directly, from both the thread and the asyncio path (the
routing tests pin this).

Stats: :attr:`AnnotationGateway.stats` is a :class:`GatewayStats` — declared
counters (:mod:`repro.telemetry`) whose scalar totals are *composed* from
the workers' :class:`~repro.serving.queue.ServiceStats` and four of the
engines' :class:`~repro.serving.engine.EngineStats` counters, and folded
with the one ``merge``: a retired worker's counters, a retired engine's,
and the live ones all add the same way, so totals never regress across
evict / reload / unregister.

Eviction interplay: the registry may evict an idle engine while its worker
still holds queued requests — in-flight work completes against the old
engine object (workers keep a strong reference); the *next* submission to
that route observes the reloaded engine and the gateway transparently
retires the stale worker (draining it first, so nothing is lost).
"""

from __future__ import annotations

import asyncio
import queue as _queue
import threading
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..telemetry import declare
from .diskcache import RequestIdentity
from .engine import AnnotationEngine, EngineConfig, EngineStats, RequestLike
from .fabric import FabricStats, store_directory
from .queue import EngineWorker, QueueConfig, ServiceStats
from .registry import ModelRegistry, ModelSource
from .request import AnnotationOptions, AnnotationRequest, AnnotationResult


GatewayStats = declare(
    "GatewayStats",
    """Aggregated snapshot across every model the gateway has served —
    rendered by ``to_dict``, it is the ``"gateway"`` section of the
    ``{"op": "stats"}`` answer and of ``repro stats``.

    The scalar counters are totals over ``models`` and ``engines`` plus the
    folded history of retired engines and *unregistered* routes, which
    leave the per-name maps (so admin register/unregister churn over unique
    names cannot grow this snapshot without bound) but never deflate the
    totals.  ``models`` maps each registered name to its worker's counters
    (summed over retired workers too, when eviction re-created one);
    ``engines`` to the live engine's; ``disk_tiers`` to those of the
    persistent-store handle attached to that engine — notably
    ``remote_hits``, which is how an operator sees cross-worker cache reuse
    in ``repro stats`` against a pool.
    """,
    parts={
        ServiceStats: None,
        EngineStats: ("encoder_passes", "disk_hits", "disk_misses"),
    },
    groups={"models": ServiceStats, "engines": EngineStats, "disk_tiers": FabricStats},
)


class AnnotationGateway:
    """Route annotation requests across a registry of models.

    Typical multi-model use::

        registry = ModelRegistry(cache_dir="anno-cache/")
        registry.register("wikitable", "models/wikitable/")
        registry.register("viznet", "models/viznet/")
        with AnnotationGateway(registry) as gateway:
            future = gateway.submit(table, model="viznet")
            result = future.result()

    and the asyncio-native path::

        async def handler(table):
            return await gateway.asubmit(table, model="viznet")

    ``queue_config`` applies to every per-model worker.  Construction is
    cheap: workers spawn lazily, one per routed model, on first traffic.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        queue_config: Optional[QueueConfig] = None,
    ) -> None:
        self.registry = registry or ModelRegistry()
        self.queue_config = queue_config or QueueConfig()
        self._workers: Dict[str, EngineWorker] = {}
        # Counters of workers retired by eviction/reload, by name, so
        # gateway totals never go backwards.  Retired engines, and the
        # retired workers of a name once it is unregistered, fold into
        # ``_history``'s totals — monotone still, while the per-name maps
        # (and the admin stats payload) stay bounded by the *registered*
        # roster, not by every name ever deployed.
        self._retired: Dict[str, ServiceStats] = {}
        self._history = GatewayStats()
        # _lock guards the dicts (cheap, held briefly).  _creation_locks
        # serializes each route's worker retire/create cycle END TO END —
        # a stale worker is fully drained and closed before its
        # replacement can serve, which is what keeps two engines from ever
        # appending to one per-fingerprint directory under one writer id.
        # The locks are per route: retiring one model (which drains its
        # queue) never stalls submissions to the hot routes.
        self._lock = threading.Lock()
        self._creation_locks: Dict[str, threading.Lock] = {}
        self._closed = False

    @classmethod
    def for_engine(
        cls,
        engine: AnnotationEngine,
        name: str = "default",
        queue_config: Optional[QueueConfig] = None,
    ) -> "AnnotationGateway":
        """A single-entry gateway over one in-memory engine (the shape the
        compatibility wrappers use)."""
        registry = ModelRegistry()
        registry.register(name, engine)
        return cls(registry, queue_config)

    @classmethod
    def for_bundles(
        cls,
        specs: Sequence[Tuple[str, Union[str, Path]]],
        engine_config: EngineConfig,
        cache_dir: Optional[Union[str, Path]] = None,
        max_live: Optional[int] = None,
        fabric_writer: Optional[str] = None,
        arena_paths: Optional[Mapping[str, str]] = None,
    ) -> "AnnotationGateway":
        """The stack ``repro serve`` runs, in its one process and in every
        pool worker: a registry over the ``(name, bundle)`` ``specs`` rooted
        at ``cache_dir``, and a gateway draining ``batch_size`` deep.

        One model over a ``cache_dir`` that already holds a *flat* store
        (``repro annotate --cache-dir`` or a pre-gateway ``serve`` wrote it;
        segments, or after ``repro cache compact`` only a generation) keeps
        using it, so a warm cache stays warm; everything else gets one
        sub-directory per model fingerprint.  (Keys embed the fingerprint
        either way.)  The flat root is pinned to these registrations, never
        the registry default: a model hot-registered later roots its store
        in its own sub-directory.
        """
        registry = ModelRegistry(
            max_live=max_live, engine_config=engine_config,
            cache_dir=cache_dir, fabric_writer=fabric_writer,
        )
        flat = len(specs) == 1 and cache_dir is not None and store_directory(cache_dir)
        flat_config = replace(engine_config, cache_dir=str(cache_dir)) if flat else None
        for name, path in specs:
            registry.register(
                name, path, engine_config=flat_config,
                arena=(arena_paths or {}).get(name),
            )
        return cls(registry, QueueConfig(max_batch=engine_config.batch_size))

    # ------------------------------------------------------------------
    # Registration passthrough
    # ------------------------------------------------------------------
    def register(self, name: str, source: ModelSource, **kwargs) -> None:
        """Register a model (see :meth:`ModelRegistry.register`)."""
        self.registry.register(name, source, **kwargs)

    def repoint(self, name: str, source: ModelSource, **kwargs) -> None:
        """Rebind ``name`` to new weights without a restart (see
        :meth:`ModelRegistry.repoint`), then retire the route's stale
        worker.  The retire drains in-flight requests against the old
        engine first — nothing queued is lost, and the next request to
        the name is served by the new weights."""
        self.registry.repoint(name, source, **kwargs)
        self.reap()

    def unregister(self, name: str) -> None:
        """Remove ``name`` entirely (see :meth:`ModelRegistry.unregister`),
        then retire its worker — draining queued requests against the old
        engine first, so futures obtained before the unregister still
        resolve.  Subsequent requests routed to the name raise
        ``KeyError``.  The name's retired counters fold into the
        aggregate history (``stats`` scalar totals keep them; the
        per-name maps drop them), so admin-plane register/unregister
        churn cannot grow the *stats payload* without bound.  (A
        per-name creation lock — a few dozen bytes — is deliberately
        retained: popping it could race a concurrent submission into
        two workers for a re-registered name.)"""
        self.registry.unregister(name)
        self.reap()
        with self._lock:
            retired = self._retired.pop(name, None)
            if retired is not None:
                self._history.merge(retired)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_of(
        self, item: RequestLike, model: Optional[str]
    ) -> Optional[str]:
        """The requested route: the request's own ``model`` field wins,
        then the call-site ``model=``, then the registry default."""
        if isinstance(item, AnnotationRequest) and item.model is not None:
            return item.model
        return model

    def worker(self, route: Optional[str] = None) -> EngineWorker:
        """The live worker for ``route``, (re)creating it as needed.

        Resolves the route through the registry (which loads/reloads the
        engine and touches LRU recency).  If the registry evicted and
        reloaded the engine since this route's worker was built, the stale
        worker is drained-and-closed **before** a fresh one is attached to
        the reloaded engine — the replacement never serves (and never
        writes the route's disk-cache directory) while the old drain is
        still in flight.  That retire/create cycle holds only the route's
        own creation lock; the hot path (worker exists and matches the
        live engine) takes just the cheap dict lock.
        """
        while True:
            name, engine = self.registry.acquire(route)
            with self._lock:
                if self._closed:
                    raise RuntimeError(
                        "cannot route through a closed AnnotationGateway"
                    )
                worker = self._workers.get(name)
                creation_lock = self._creation_locks.setdefault(
                    name, threading.Lock()
                )
            if worker is not None and worker.engine is engine:
                return worker
            with creation_lock:
                with self._lock:
                    if self._closed:
                        raise RuntimeError(
                            "cannot route through a closed AnnotationGateway"
                        )
                # Re-acquire under the creation lock: the engine reference
                # from before the lock may be stale (ABA — evicted AND
                # replaced while we waited); trusting it could retire a
                # live replacement worker and bind the route to a dead
                # engine.
                fresh_name, engine = self.registry.acquire(route)
                if fresh_name != name:
                    # The route re-pointed to a different canonical name
                    # (set_default/unregister racing us): restart so we
                    # hold THAT name's creation lock and touch only its
                    # worker.
                    continue
                with self._lock:
                    worker = self._workers.get(name)
                if worker is not None and worker.engine is engine:
                    return worker
                if worker is not None:
                    self._retire(name, worker)
                worker = EngineWorker(engine, self.queue_config)
                with self._lock:
                    self._workers[name] = worker
                return worker

    def _live_worker(self, route: Optional[str]) -> Optional[EngineWorker]:
        """Cheap peek: the worker this route already has bound to the
        registry's live engine, if any.  No loads, no retires, no LRU
        touch — the asyncio path uses it to decide whether :meth:`worker`
        can run inline (fast) or must go to an executor (cold load /
        drain), and :meth:`answer_stored` to stay off cold routes."""
        try:
            name = self.registry.resolve(route)
        except KeyError:
            return None
        engine = self.registry.live_engine(name)
        if engine is None:
            return None
        with self._lock:
            worker = self._workers.get(name)
        if worker is None or worker.engine is not engine:
            return None
        return worker

    def answer_stored(
        self,
        request: AnnotationRequest,
        render: Callable[[Dict], Optional[Any]],
    ) -> Tuple[Optional[Any], Optional[RequestIdentity]]:
        """Answer ``request`` from its route's result store without
        queueing it, or say why not: ``(answer, identity)``.

        Never blocks on a model: only a route that already has a live
        worker is probed (a cold, evicted, re-pointed or unknown route, or
        a closed gateway, is ``(None, None)`` — :meth:`asubmit` loads,
        retires and reports errors as it always has), and the probe itself
        is :meth:`EngineWorker.answer_stored
        <repro.serving.queue.EngineWorker.answer_stored>`: one hash, one
        store peek, ``render(payload)``.  A hit touches the registry's LRU
        recency and ``routed`` count like any routed request.  On a miss
        pass ``identity`` on to ``asubmit(identity=...)``.
        """
        if self._closed:
            return None, None
        worker = self._live_worker(request.model)
        if worker is None:
            return None, None
        answer, identity = worker.answer_stored(request, render)
        if answer is not None:
            try:
                self.registry.acquire(request.model, load=False)
            except KeyError:
                pass  # unregistered since the probe: the answer stands
        return answer, identity

    def _retire(self, name: str, worker: EngineWorker) -> None:
        """Drain-close ``worker`` and fold its counters (and its engine's)
        into the retired pools (caller holds the route's creation lock)."""
        with self._lock:
            self._workers.pop(name, None)
        worker.close()  # drains pending requests; may take annotation passes
        with self._lock:
            self._retired.setdefault(name, ServiceStats()).merge(worker.stats)
            self._history.merge(worker.engine.stats)

    # ------------------------------------------------------------------
    # Thread-based API
    # ------------------------------------------------------------------
    def submit(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
    ) -> "Future[AnnotationResult]":
        """Enqueue one table on its model's worker; returns the future.

        Routing: an :class:`AnnotationRequest` with a ``model`` field wins,
        then the ``model=`` argument, then the registry's default model.
        Raises ``KeyError`` for unknown routes and ``queue.Full`` under
        backpressure (after ``submit_timeout``).
        """
        route = self._route_of(item, model)
        while True:
            if self._closed:
                raise RuntimeError("cannot submit to a closed AnnotationGateway")
            worker = self.worker(route)
            try:
                return worker.submit(item, options)
            except RuntimeError:
                # The worker was retired (evict/reload race) between the
                # lookup and the enqueue; re-resolve and try again —
                # unless the gateway itself closed, checked above.
                if self._closed:
                    raise
                continue

    def annotate(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
    ) -> AnnotationResult:
        """Synchronous convenience: submit and wait."""
        return self.submit(item, options, model).result()

    def annotate_batch(
        self,
        items: Iterable[RequestLike],
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
    ) -> List[AnnotationResult]:
        """Submit a (possibly mixed-model) batch; results in input order."""
        futures = [self.submit(item, options, model) for item in items]
        return [future.result() for future in futures]

    def annotate_stream(
        self,
        items: Iterable[RequestLike],
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
        window: Optional[int] = None,
    ) -> Iterator[AnnotationResult]:
        """Pump an iterable through the gateway, yielding results in order.

        Keeps at most ``window`` submissions in flight (default
        ``4 * max_batch``); items may route to different models (their
        ``model`` fields win over the call-site default), and order is
        preserved across routes.
        """
        limit = window if window is not None else 4 * self.queue_config.max_batch
        if limit < 1:
            raise ValueError(f"window must be >= 1: {limit}")
        pending: List["Future[AnnotationResult]"] = []
        for item in items:
            pending.append(self.submit(item, options, model))
            while len(pending) >= limit:
                yield pending.pop(0).result()
        for future in pending:
            yield future.result()

    # ------------------------------------------------------------------
    # Asyncio-native API
    # ------------------------------------------------------------------
    async def _enqueue(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions],
        model: Optional[str],
        identity: Optional[RequestIdentity] = None,
    ) -> "asyncio.Future[AnnotationResult]":
        """Enqueue without ever blocking the event loop.

        A full queue is retried with exponential ``asyncio.sleep`` backoff
        (other coroutines keep running) until ``submit_timeout`` — the
        asyncio translation of the thread API's blocking backpressure.
        """
        loop = asyncio.get_running_loop()
        timeout = self.queue_config.submit_timeout
        deadline = None if timeout is None else loop.time() + timeout
        delay = 0.001
        route = self._route_of(item, model)
        while True:
            if self._closed:
                raise RuntimeError("cannot submit to a closed AnnotationGateway")
            # Hot path inline (a dict lookup + registry touch); otherwise
            # resolve in the default executor — a cold route loads a whole
            # checkpoint, and an evict/reload race drains the stale worker,
            # both blocking work that must not stall the event loop.  (The
            # peek is best-effort: an eviction landing between peek and
            # resolve can still cost one inline load — rare by design.)
            if self._live_worker(route) is not None:
                worker = self.worker(route)
            else:
                worker = await loop.run_in_executor(None, self.worker, route)
            try:
                future = worker.submit(
                    item, options, block=False, identity=identity
                )
                break
            except _queue.Full:
                if deadline is not None and loop.time() >= deadline:
                    raise
                await asyncio.sleep(delay)
                delay = min(delay * 2, 0.05)
            except RuntimeError:
                # Worker retired by a concurrent evict/reload: re-resolve.
                if self._closed:
                    raise
        return asyncio.wrap_future(future, loop=loop)

    async def asubmit(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
        identity: Optional[RequestIdentity] = None,
    ) -> AnnotationResult:
        """Asyncio-native :meth:`annotate`: awaits the routed annotation.

        The annotation itself runs on the model's worker thread; the
        coroutine holds no thread while waiting (the worker's
        ``concurrent.futures.Future`` is bridged to an asyncio future), so
        thousands of concurrent ``asubmit`` calls cost one worker thread
        per *model*, not one per request.  Byte-identical to
        :meth:`submit` — same workers, same engines, same bytes.
        ``identity`` is the request's hash when :meth:`answer_stored`
        already computed it (a store miss is still hashed once).
        """
        future = await self._enqueue(item, options, model, identity)
        return await future

    async def astream(
        self,
        items: Union[Iterable[RequestLike], AsyncIterator[RequestLike]],
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
        window: Optional[int] = None,
    ) -> AsyncIterator[AnnotationResult]:
        """Asyncio-native :meth:`annotate_stream` (accepts sync or async
        iterables), yielding results in input order with at most
        ``window`` submissions in flight."""
        limit = window if window is not None else 4 * self.queue_config.max_batch
        if limit < 1:
            raise ValueError(f"window must be >= 1: {limit}")
        pending: List["asyncio.Future[AnnotationResult]"] = []
        async for item in _ensure_async_iter(items):
            pending.append(await self._enqueue(item, options, model))
            while len(pending) >= limit:
                yield await pending.pop(0)
        for future in pending:
            yield await future

    # ------------------------------------------------------------------
    # Stats and lifecycle
    # ------------------------------------------------------------------
    @property
    def stats(self) -> GatewayStats:
        """Aggregated counters (see :class:`GatewayStats`).  A snapshot —
        every nested counter set is a copy, safe to hold and diff across
        further traffic."""
        with self._lock:
            snapshot = self._history.copy()
            for name, retired in self._retired.items():
                snapshot.models[name] = retired.copy()
            for name, worker in self._workers.items():
                snapshot.models.setdefault(name, ServiceStats()).merge(
                    worker.stats_snapshot()
                )
                snapshot.engines[name] = worker.engine.stats.copy()
                tier = worker.engine.result_cache
                if tier is not None:
                    snapshot.disk_tiers[name] = tier.stats.copy()
        # ``engines`` shows the live engines; retired ones are already in
        # the history's totals, so totals never regress.
        for counters in (*snapshot.models.values(), *snapshot.engines.values()):
            snapshot.merge(counters)
        return snapshot

    def reap(self) -> int:
        """Close workers whose engines the registry has evicted.

        The gateway retires stale workers lazily on the next submission to
        their route; long-idle routes can hold an evicted engine alive
        through their worker until then.  ``reap()`` retires them now and
        returns how many it closed.
        """
        with self._lock:
            stale = [
                (name, worker)
                for name, worker in self._workers.items()
                if self.registry.live_engine(name) is not worker.engine
            ]
            locks = {
                name: self._creation_locks.setdefault(name, threading.Lock())
                for name, _ in stale
            }
        reaped = 0
        for name, worker in stale:
            with locks[name]:
                with self._lock:
                    # Re-check under the route's creation lock: a submit
                    # may have retired/replaced it concurrently.
                    current = self._workers.get(name)
                if current is not worker:
                    continue
                self._retire(name, worker)
                reaped += 1
        return reaped

    def close(self) -> None:
        """Stop accepting submissions, drain every worker, release the
        registry's resources.  Every future obtained before ``close``
        resolves; submitting after it raises ``RuntimeError``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            locks = list(self._creation_locks.values())
        # Wait out any in-flight worker creation (each saw _closed either
        # before creating — and raised — or finished inserting its worker,
        # which the snapshot below then picks up).
        for lock in locks:
            with lock:
                pass
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            worker.close()
        self.registry.close()

    def __enter__(self) -> "AnnotationGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


async def _ensure_async_iter(
    items: Union[Iterable[RequestLike], AsyncIterator[RequestLike]],
) -> AsyncIterator[RequestLike]:
    """Iterate sync and async iterables uniformly."""
    if hasattr(items, "__aiter__"):
        async for item in items:  # type: ignore[union-attr]
            yield item
    else:
        for item in items:  # type: ignore[union-attr]
            yield item
