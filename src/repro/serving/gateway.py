"""The serving gateway: one front door over the process's one model.

:class:`AnnotationGateway` is the single entry point of the serving stack:
every :class:`~repro.serving.request.AnnotationRequest` — carrying an
optional ``model`` route — is checked against a
:class:`~repro.serving.registry.ModelRegistry` (``None``, the registered
name or the model fingerprint; anything else is refused with
``KeyError``) and handed to the one
:class:`~repro.serving.queue.EngineWorker`, made on the first submit.

Two client APIs share the worker:

* **Thread-based** — :meth:`~AnnotationGateway.submit` returns a
  :class:`concurrent.futures.Future`; ``annotate`` / ``annotate_batch`` /
  ``annotate_stream`` are the blocking conveniences.  The
  :class:`~repro.serving.queue.AnnotationService` and the
  :class:`~repro.core.annotator.Doduo` toolbox API are thin wrappers over
  a gateway built with :meth:`AnnotationGateway.for_engine`.
* **Asyncio-native** — ``await gateway.asubmit(table)`` and ``async for
  result in gateway.astream(tables)``.  Results come from the same worker
  thread, bridged with :func:`asyncio.wrap_future`, so an asyncio server
  never burns a thread per in-flight request; a full queue is retried with
  ``await asyncio.sleep`` backoff instead of blocking the event loop
  (thread-based ``submit`` blocks, which would stall every coroutine).

A front-end that renders stored payloads itself (the socket server) asks
:meth:`~AnnotationGateway.answer_stored` first: a non-blocking probe of the
worker and its engine's result store that answers a hit on the caller's
thread, and on a miss hands back the request's hash for
``asubmit(identity=...)``.

Equivalence: the gateway adds nothing to the math.  A gateway answer is
the engine's answer — byte-identical to calling its ``annotate`` directly,
from both the thread and the asyncio path.

Stats: :attr:`AnnotationGateway.stats` is a :class:`GatewayStats` — declared
counters (:mod:`repro.telemetry`) whose scalar totals are *composed* from
the worker's :class:`~repro.serving.queue.ServiceStats` and three of the
engine's :class:`~repro.serving.engine.EngineStats` counters, folded with
the one ``merge`` (the serving pool adds its workers' snapshots the same
way).
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
    Optional,
    Tuple,
    Union,
)

from ..telemetry import declare
from .diskcache import RequestIdentity
from .engine import AnnotationEngine, EngineConfig, EngineStats, RequestLike
from .fabric import FabricStats, store_directory
from .queue import EngineWorker, QueueConfig, ServiceStats
from .registry import ModelRegistry
from .request import AnnotationOptions, AnnotationRequest, AnnotationResult


GatewayStats = declare(
    "GatewayStats",
    """The gateway's snapshot — rendered by ``to_dict``, it is the
    ``"gateway"`` section of the ``{"op": "stats"}`` answer and of ``repro
    stats``.

    The scalar counters are the totals over ``models`` and ``engines``.
    Each map holds the one registered name once its worker exists:
    ``models`` maps it to the worker's counters, ``engines`` to the
    engine's, ``disk_tiers`` to those of the persistent-store handle
    attached to that engine — notably ``remote_hits``, which is how an
    operator sees cross-worker cache reuse in ``repro stats`` against a
    pool.
    """,
    parts={
        ServiceStats: None,
        EngineStats: ("encoder_passes", "disk_hits", "disk_misses"),
    },
    groups={"models": ServiceStats, "engines": EngineStats, "disk_tiers": FabricStats},
)


class AnnotationGateway:
    """Serve annotation requests through the registry's one model.

    Typical use::

        registry = ModelRegistry(cache_dir="anno-cache/")
        registry.register("default", "models/run/")
        with AnnotationGateway(registry) as gateway:
            result = gateway.submit(table).result()

    and the asyncio-native path::

        async def handler(table):
            return await gateway.asubmit(table)

    Construction is cheap: the model loads and the worker spawns on the
    first submit.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        queue_config: Optional[QueueConfig] = None,
    ) -> None:
        self.registry = registry or ModelRegistry()
        self.queue_config = queue_config or QueueConfig()
        self._worker: Optional[EngineWorker] = None
        self._lock = threading.Lock()
        self._closed = False

    @classmethod
    def for_engine(
        cls,
        engine: AnnotationEngine,
        name: str = "default",
        queue_config: Optional[QueueConfig] = None,
    ) -> "AnnotationGateway":
        """A gateway over one in-memory engine (the shape the compatibility
        wrappers use)."""
        registry = ModelRegistry()
        registry.register(name, engine)
        return cls(registry, queue_config)

    @classmethod
    def for_bundle(
        cls,
        name: str,
        bundle: Union[str, Path],
        engine_config: EngineConfig,
        cache_dir: Optional[Union[str, Path]] = None,
        fabric_writer: Optional[str] = None,
        arena: Optional[Union[str, Path]] = None,
    ) -> "AnnotationGateway":
        """The stack ``repro serve`` runs, in its one process and in every
        pool worker: a registry over ``bundle`` rooted at ``cache_dir``,
        and a gateway draining ``batch_size`` deep.

        A ``cache_dir`` that already holds a *flat* store (``repro
        annotate --cache-dir`` wrote it; segments, or after ``repro cache
        compact`` only a generation) keeps being used, so a warm cache
        stays warm; otherwise the store lives in ``cache_dir``'s
        sub-directory named by the model fingerprint.  (Keys embed the
        fingerprint either way.)
        """
        registry = ModelRegistry(
            engine_config=engine_config, cache_dir=cache_dir,
            fabric_writer=fabric_writer,
        )
        flat = cache_dir is not None and store_directory(cache_dir)
        flat_config = replace(engine_config, cache_dir=str(cache_dir)) if flat else None
        registry.register(name, bundle, engine_config=flat_config, arena=arena)
        return cls(registry, QueueConfig(max_batch=engine_config.batch_size))

    def _route_of(
        self, item: RequestLike, model: Optional[str]
    ) -> Optional[str]:
        """The requested route: the request's own ``model`` field wins,
        then the call-site ``model=``."""
        if isinstance(item, AnnotationRequest) and item.model is not None:
            return item.model
        return model

    def worker(self, route: Optional[str] = None) -> EngineWorker:
        """The worker, made on first use.  Checks ``route`` through the
        registry (which loads the model on the first call): a route that
        names other weights raises ``KeyError``."""
        _, engine = self.registry.acquire(route)
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "cannot route through a closed AnnotationGateway"
                )
            if self._worker is None:
                self._worker = EngineWorker(engine, self.queue_config)
            return self._worker

    def answer_stored(
        self,
        request: AnnotationRequest,
        render: Callable[[Dict], Optional[Any]],
    ) -> Tuple[Optional[Any], Optional[RequestIdentity]]:
        """Answer ``request`` from the result store without queueing it,
        or say why not: ``(answer, identity)``.

        Never blocks on a model: before the worker exists, for a route the
        registry does not admit, or on a closed gateway this is ``(None,
        None)`` — :meth:`asubmit` loads and reports errors as it always
        has.  The probe itself is :meth:`EngineWorker.answer_stored
        <repro.serving.queue.EngineWorker.answer_stored>`: one hash, one
        store peek, ``render(payload)``.  On a miss pass ``identity`` on
        to ``asubmit(identity=...)``.
        """
        worker = self._worker
        if self._closed or worker is None or not self.registry.admits(request.model):
            return None, None
        return worker.answer_stored(request, render)

    # ------------------------------------------------------------------
    # Thread-based API
    # ------------------------------------------------------------------
    def submit(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
    ) -> "Future[AnnotationResult]":
        """Enqueue one table on the worker; returns the future.

        Routing: an :class:`AnnotationRequest` with a ``model`` field wins,
        then the ``model=`` argument.  Raises ``KeyError`` for a route
        that names other weights and ``queue.Full`` under backpressure
        (after ``submit_timeout``).
        """
        return self.worker(self._route_of(item, model)).submit(item, options)

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
        """Submit a batch; results in input order."""
        futures = [self.submit(item, options, model) for item in items]
        return [future.result() for future in futures]

    def annotate_stream(
        self,
        items: Iterable[RequestLike],
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
        window: Optional[int] = None,
    ) -> Iterator[AnnotationResult]:
        """Pump an iterable through the gateway, yielding results in order,
        with at most ``window`` submissions in flight (default
        ``4 * max_batch``)."""
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

        The first submit runs in the default executor (it loads the
        model); a full queue is retried with exponential ``asyncio.sleep``
        backoff (other coroutines keep running) until ``submit_timeout`` —
        the asyncio translation of the thread API's blocking backpressure.
        """
        loop = asyncio.get_running_loop()
        timeout = self.queue_config.submit_timeout
        deadline = None if timeout is None else loop.time() + timeout
        delay = 0.001
        route = self._route_of(item, model)
        if self._worker is not None:
            worker = self.worker(route)
        else:
            worker = await loop.run_in_executor(None, self.worker, route)
        while True:
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
        return asyncio.wrap_future(future, loop=loop)

    async def asubmit(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
        model: Optional[str] = None,
        identity: Optional[RequestIdentity] = None,
    ) -> AnnotationResult:
        """Asyncio-native :meth:`annotate`: awaits the annotation.

        The annotation itself runs on the worker thread; the coroutine
        holds no thread while waiting (the worker's
        ``concurrent.futures.Future`` is bridged to an asyncio future), so
        thousands of concurrent ``asubmit`` calls cost one worker thread,
        not one per request.  Byte-identical to :meth:`submit` — same
        worker, same engine, same bytes.  ``identity`` is the request's
        hash when :meth:`answer_stored` already computed it (a store miss
        is still hashed once).
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
        """The counters (see :class:`GatewayStats`).  A snapshot — every
        nested counter set is a copy, safe to hold and diff across further
        traffic."""
        snapshot = GatewayStats()
        worker = self._worker
        if worker is None:
            return snapshot
        name = self.registry.default_name
        snapshot.models[name] = worker.stats_snapshot()
        snapshot.engines[name] = worker.engine.stats.copy()
        tier = worker.engine.result_cache
        if tier is not None:
            snapshot.disk_tiers[name] = tier.stats.copy()
        snapshot.merge(snapshot.models[name])
        snapshot.merge(snapshot.engines[name])
        return snapshot

    def close(self) -> None:
        """Stop accepting submissions, drain the worker, release the
        registry's resources.  Every future obtained before ``close``
        resolves; submitting after it raises ``RuntimeError``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        if worker is not None:
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
