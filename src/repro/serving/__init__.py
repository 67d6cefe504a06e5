"""Serving front-end: batched single-pass annotation of one model behind a gateway.

The stack, bottom-up:

* :class:`AnnotationRequest` / :class:`AnnotationOptions` — one table plus
  per-request knobs and an optional ``model`` route (the served model's
  name or fingerprint);
  :class:`AnnotationResult` wraps the toolbox-compatible payload plus
  serving metadata.
* :class:`AnnotationEngine` — batching over the shared
  :class:`~repro.encoding.EncodingPipeline` with every sequence at the
  width it would have alone (zero cross-request padding, batched results
  byte-identical to sequential ones): one padding-free encoder pass per
  drain chunk at every precision (``kernels="reference"``, the oracle,
  runs one per exact width bucket), and an optional persistent result store
  (:class:`FabricCache`) so repeated corpora never re-encode across
  process restarts.
* :class:`EngineWorker` — the per-engine bounded request queue: ``submit``
  dedups content-identical requests single-flight (from submit until the
  answer exists) onto one forward pass, and the worker thread drains
  whatever is queued, up to ``max_batch``, without ever waiting for more.
* :class:`ModelRegistry` — the process's one model (lazy bundle
  loading, routes by name *or* model fingerprint with every other route
  refused, the result store rooted at ``cache_dir/<fingerprint>``).
* :class:`AnnotationGateway` — the single front door: hands every
  admitted request to the one worker and exposes both the thread-based
  ``submit()`` and the asyncio-native ``asubmit()``/``astream()`` client
  APIs.
* :class:`AnnotationService` — the historical front-end, now a thin
  compatibility wrapper over a gateway.
* :mod:`repro.serving.protocol` — the transport-agnostic wire protocol
  (newline-delimited JSON records, ``{"error": ...}`` answers, ``"id"``
  correlation echo, admin operations) shared by corpus serving, the stdin
  loop, and the socket server.
* :class:`AnnotationServer` — the asyncio TCP front door speaking that
  protocol over the gateway's native ``asubmit()``, with per-connection
  ordering, backpressure, an admin plane (``stats``/``health``/
  ``shutdown``), and graceful
  drain; a request the result store already answers is rendered from the
  stored payload where its frame is decoded and never reaches a worker.
  :class:`ServerThread` embeds it in synchronous code.
* :class:`FabricCache` — the one persistent result store (per-writer
  append segments, shared compacted generations served over ``mmap``):
  a single serving process is its one-writer case, and sibling worker
  processes read each other's cached results through it.
  ``DiskCache`` is an alias of the same class.
* :class:`ServingPool` — the multi-process front door behind ``repro
  serve --listen HOST:PORT --workers N``: one parent owning the address,
  N worker processes each running a full gateway + server stack over a
  shared listener and the shared cache fabric, with supervision,
  bounded restart, coordinated drain, and a pool-wide merged admin
  plane.

Every layer counts through one mechanism, :mod:`repro.telemetry`: its
``*Stats`` name (:class:`EngineStats`, :class:`ServiceStats`,
:class:`GatewayStats`, :class:`RegistryStats`, :class:`ServerStats`,
:class:`FabricStats`) is a *declaration* — counter names, their meanings,
ratios as formulas over named counters — whose instances are bumped as
plain attributes, added with one ``merge`` (gateway history and pool
workers alike) and rendered with one ``to_dict``, the only place a ratio
exists.

Quickstart::

    from repro.serving import (
        AnnotationEngine, AnnotationGateway, AnnotationService,
        EngineConfig, ModelRegistry, QueueConfig,
    )

    engine = AnnotationEngine(model, EngineConfig(batch_size=16,
                                                  cache_dir="anno-cache/"))
    results = engine.annotate_batch(tables)            # one pass per chunk
    for result in engine.annotate_stream(table_iter):  # unbounded workloads
        print(result.coltypes)

    with AnnotationService(engine, QueueConfig(max_batch=16)) as service:
        futures = [service.submit(t) for t in tables]  # any thread, any time
        answers = [f.result() for f in futures]

    registry = ModelRegistry(cache_dir="anno-cache/")
    registry.register("default", "models/run/")
    with AnnotationGateway(registry) as gateway:
        future = gateway.submit(table)  # thread API
        # ...or, inside a coroutine:
        #     result = await gateway.asubmit(table)

    from repro.serving.server import ServerThread
    with ServerThread(gateway, port=9000) as (host, port):
        ...  # newline-delimited JSON clients connect to (host, port)

Every tier preserves the engine's equivalence contract: dedup and caching
change what a request *costs*, never what the model returns (see :mod:`repro.serving.gateway`,
:mod:`repro.serving.queue`, and :mod:`repro.serving.diskcache` for the
exact byte-identity guarantees; :mod:`repro.serving.fabric` for the store's
on-disk layout).
"""

from ..encoding.cache import LRUCache, table_fingerprint
from . import protocol
from .colcache import ColumnCache
from .diskcache import (
    CacheLockedError,
    CompactionResult,
    DiskCache,
    FileLock,
    result_cache_key,
)
from .engine import AnnotationEngine, EngineConfig, EngineStats
from .fabric import FabricCache, FabricStats, is_cache_directory, store_directory
from .gateway import AnnotationGateway, GatewayStats
from .pool import PoolConfig, ServingPool
from .queue import AnnotationService, EngineWorker, QueueConfig, ServiceStats
from .registry import ModelRegistry, RegistryStats
from .request import AnnotationOptions, AnnotationRequest, AnnotationResult
from .server import AnnotationServer, ServerStats, ServerThread

__all__ = [
    "AnnotationEngine",
    "AnnotationGateway",
    "AnnotationOptions",
    "AnnotationRequest",
    "AnnotationResult",
    "AnnotationServer",
    "AnnotationService",
    "CacheLockedError",
    "ColumnCache",
    "CompactionResult",
    "DiskCache",
    "EngineConfig",
    "EngineStats",
    "EngineWorker",
    "FabricCache",
    "FabricStats",
    "FileLock",
    "GatewayStats",
    "LRUCache",
    "ModelRegistry",
    "PoolConfig",
    "QueueConfig",
    "RegistryStats",
    "ServerStats",
    "ServerThread",
    "ServiceStats",
    "ServingPool",
    "is_cache_directory",
    "protocol",
    "result_cache_key",
    "store_directory",
    "table_fingerprint",
]
