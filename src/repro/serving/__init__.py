"""Serving: batched single-pass annotation of one model behind one worker.

The stack, bottom-up:

* :class:`AnnotationRequest` / :class:`AnnotationOptions` — one table plus
  per-request knobs and an optional ``model`` route (``"default"`` or the
  served model's fingerprint);
  :class:`AnnotationResult` wraps the toolbox-compatible payload plus
  serving metadata.
* :class:`AnnotationEngine` — batching over the shared
  :class:`~repro.encoding.EncodingPipeline` with every sequence at the
  width it would have alone (zero cross-request padding, batched results
  byte-identical to sequential ones): one padding-free encoder pass per
  drain chunk (``kernels="reference"``, the oracle,
  runs one per exact width bucket), and an optional persistent result store
  (:class:`FabricCache`) so repeated corpora never re-encode across
  process restarts.  :func:`load_engine` is the one loader: a bundle, its
  weight arena and its result store under ``cache_dir``, loaded once at
  startup.
* :class:`EngineWorker` — the front door: routes (``None``, ``"default"``
  or the fingerprint; any other route is refused), a bounded request
  queue whose ``submit`` dedups content-identical requests single-flight
  onto one forward pass, a worker thread that drains whatever is queued,
  up to ``max_batch``, without ever waiting for more, the thread
  (``submit``) and asyncio (``asubmit``) client APIs, and the stats
  sections of the admin plane.
* :mod:`repro.serving.protocol` — the transport-agnostic wire protocol
  (newline-delimited JSON records, ``{"error": ...}`` answers, ``"id"``
  correlation echo, admin operations) shared by corpus serving, the stdin
  loop, and the socket server.
* :class:`AnnotationServer` — the asyncio TCP front door speaking that
  protocol over the worker's native ``asubmit()``, with per-connection
  ordering, backpressure, an admin plane (``stats``/``health``/
  ``shutdown``), and graceful
  drain; a request the result store already answers is rendered from the
  stored payload where its frame is decoded and never reaches the worker
  thread.  :class:`ServerThread` embeds it in synchronous code.
* :class:`FabricCache` — the one persistent result store (per-writer
  append segments, shared compacted generations served over ``mmap``):
  a single serving process is its one-writer case, and sibling worker
  processes read each other's cached results through it.
  ``DiskCache`` is an alias of the same class.
* :class:`ServingPool` — the multi-process front door behind ``repro
  serve --listen HOST:PORT --workers N``: one parent owning the address
  and handing each accepted connection to one of N worker processes,
  each running a full worker + server stack over one shared weight
  arena and the shared cache fabric, with supervision,
  bounded restart, coordinated drain, and a pool-wide merged admin
  plane.

:class:`ModelRegistry` and :class:`AnnotationGateway` are shims kept for
the benchmark ladder's pinned calls; nothing here constructs them.

Every layer counts through one mechanism, :mod:`repro.telemetry`: its
``*Stats`` name (:class:`EngineStats`, :class:`ServiceStats`,
:class:`GatewayStats`, :class:`RegistryStats`, :class:`ServerStats`,
:class:`FabricStats`) is a *declaration* — counter names, their meanings,
ratios as formulas over named counters — whose instances are bumped as
plain attributes, added with one ``merge`` (a worker's ``"gateway"``
section and pool workers alike) and rendered with one ``to_dict``, the
only place a ratio exists.

Quickstart::

    from repro.serving import (
        AnnotationEngine, EngineConfig, EngineWorker, QueueConfig, load_engine,
    )

    engine = AnnotationEngine(model, EngineConfig(batch_size=16,
                                                  cache_dir="anno-cache/"))
    results = engine.annotate_batch(tables)            # one pass per chunk
    for result in engine.annotate_stream(table_iter):  # unbounded workloads
        print(result.coltypes)

    engine = load_engine("models/run/", EngineConfig(), cache_dir="anno-cache/")
    with EngineWorker(engine, QueueConfig(max_batch=16)) as worker:
        futures = [worker.submit(t) for t in tables]   # any thread, any time
        answers = [f.result() for f in futures]
        # ...or, inside a coroutine:
        #     result = await worker.asubmit(table)

        from repro.serving.server import ServerThread
        with ServerThread(worker, port=9000) as (host, port):
            ...  # newline-delimited JSON clients connect to (host, port)

Every tier preserves the engine's equivalence contract: dedup and caching
change what a request *costs*, never what the model returns (see
:mod:`repro.serving.queue` and :mod:`repro.serving.diskcache` for the
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
from .engine import AnnotationEngine, EngineConfig, EngineStats, load_engine
from .fabric import FabricCache, FabricStats, is_cache_directory, store_directory
from .gateway import AnnotationGateway
from .pool import PoolConfig, ServingPool
from .queue import (
    MODEL_NAME,
    EngineWorker,
    GatewayStats,
    QueueConfig,
    RegistryStats,
    ServiceStats,
)
from .registry import ModelRegistry
from .request import AnnotationOptions, AnnotationRequest, AnnotationResult
from .server import AnnotationServer, ServerStats, ServerThread

__all__ = [
    "AnnotationEngine",
    "AnnotationGateway",
    "AnnotationOptions",
    "AnnotationRequest",
    "AnnotationResult",
    "AnnotationServer",
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
    "MODEL_NAME",
    "ModelRegistry",
    "PoolConfig",
    "QueueConfig",
    "RegistryStats",
    "ServerStats",
    "ServerThread",
    "ServiceStats",
    "ServingPool",
    "is_cache_directory",
    "load_engine",
    "protocol",
    "result_cache_key",
    "store_directory",
    "table_fingerprint",
]
