"""Asynchronous, single-flight request queue over one annotation engine.

:class:`EngineWorker` is the per-engine drain loop the serving front-ends
are built from: callers :meth:`~EngineWorker.submit` tables from any thread
and get back a :class:`concurrent.futures.Future`; a single worker thread
drains whatever is queued into one engine call and answers every waiter.
The :class:`~repro.serving.gateway.AnnotationGateway` runs one worker
over its one model; :class:`AnnotationService` — the historical front-end
— is a thin compatibility wrapper over a gateway.

Request lifecycle
-----------------
1. ``submit`` wraps the table in an :class:`~repro.serving.request.AnnotationRequest`
   and hashes it **once** (table content + options + pairs + model
   fingerprint — the disk tier's key).  Under the worker lock it looks the
   key up among the groups that are queued or running:

   * a match **attaches** the future to that group — no queue slot, one
     ``dedup_hit``, and the answer arrives when the group's does;
   * a miss opens a group and queues it.

   The dedup window therefore runs from submit until the answer exists:
   ten users asking about one popular table cost one forward pass (or
   zero, when the engine's disk tier already holds the answer) however
   their requests interleave with the worker's drains.  ``submit`` blocks
   (backpressure, not unbounded memory) while ``max_queue_size`` futures
   are unanswered, attached waiters included.
2. The worker is **work-conserving**: a drain takes the groups queued
   right now, oldest first, up to ``max_batch``, and never waits for more
   while it holds work.  An idle engine starts a lone request at once;
   under load requests pile up while the engine is busy and the next drain
   is a full batch — batches size themselves, there is no linger to tune.
3. Each group is annotated once; the worker closes the group's window
   (removes it from the table) and hands the *same*
   :class:`~repro.serving.request.AnnotationResult` object to every waiter
   asking about the same table object (content-equal twins get the same
   products wrapped around their own table).
4. Futures resolve with the result, or with the exception the engine raised
   (delivered per-waiter, never swallowed).  A waiter may cancel its own
   future at any time; its siblings are still answered.

A front-end that can render a stored payload itself skips all four for a
request the engine's result store already answers:
:meth:`EngineWorker.answer_stored` hashes, peeks the store and counts the
hit on the caller's thread — the socket server's event loop — and hands the
hash back on a miss, for ``submit(identity=...)``.

Exactness and drain planning
----------------------------
Every drain is handed to ``engine.annotate_batch`` whole.  A drain of up
to ``batch_size`` requests is **one** encoder pass whatever their widths
and whatever the precision — the session lays the sequences end to end and
never pads one to another's width (:mod:`repro.core.inference`); only the
``kernels="reference"`` oracle, which pads a batch to one width, splits it
into **exact width buckets** instead (:mod:`repro.encoding`).  Either way no
sequence is ever padded beyond the width it would use alone, so queued
results are **byte-identical** to direct ``engine.annotate`` calls
whatever the drain's composition — dedup, batching, and the cache tiers
change cost, never bytes.  A failed drain is retried one request at a
time, so an invalid request poisons only its own group.
"""

from __future__ import annotations

import queue as _queue
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.annotator import AnnotatedTable
from ..telemetry import declare
from .diskcache import RequestIdentity
from .engine import AnnotationEngine, RequestLike
from .request import AnnotationOptions, AnnotationRequest, AnnotationResult


@dataclass(frozen=True)
class QueueConfig:
    """Scheduling policy of one :class:`EngineWorker` (and, by extension, of
    every worker an :class:`~repro.serving.gateway.AnnotationGateway` or
    :class:`AnnotationService` spawns).

    ``max_batch`` caps how many distinct requests one drain hands the
    engine; ``max_queue_size`` bounds the unanswered futures (``submit``
    blocks when full, raising ``queue.Full`` after ``submit_timeout``
    seconds, so producers feel backpressure instead of exhausting memory).

    ``max_latency`` is **deprecated and ignored**: it used to be how long a
    drain lingered for more requests.  Drains are work-conserving now (they
    never wait while holding work), so there is nothing left to tune; the
    field is still accepted and validated so existing callers keep working.
    """

    max_batch: int = 8
    # Still passed by benchmarks/harness/ladder.py:518; goes with that call.
    max_latency: float = 0.01
    max_queue_size: int = 1024
    submit_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {self.max_batch}")
        if self.max_latency < 0:
            raise ValueError(f"max_latency must be >= 0: {self.max_latency}")
        if self.max_queue_size < 1:
            raise ValueError(f"max_queue_size must be >= 1: {self.max_queue_size}")


ServiceStats = declare(
    "ServiceStats",
    """Counters for one worker's (or single-model service's) lifetime.

    ``completed + failed <= submitted`` in every
    :meth:`EngineWorker.stats_snapshot`.  Requests answered by
    :meth:`EngineWorker.answer_stored` never became a group or joined a
    drain, so ``submitted / batches`` over-reads the mean drain size by
    exactly those.
    """,
    {
        "submitted": "requests handed in — queued ones and those "
        "``answer_stored`` served from the result store on the caller's thread",
        "completed": "requests answered with a result",
        "failed": "requests answered with an exception",
        "batches": "worker drains (not engine forward batches)",
        "dedup_hits": "requests answered by sharing another request's queued "
        "or running annotation (queue-level dedup, before any cache tier)",
        "unique_annotated": "groups actually handed to the engine",
    },
)


class _Group:
    """One single-flight group: what the request hashes to, plus every
    (request, future) waiting on that one annotation.  The first waiter's
    request is the one the engine runs."""

    __slots__ = ("identity", "waiters")

    def __init__(self, identity: RequestIdentity) -> None:
        self.identity = identity
        self.waiters: List[Tuple[AnnotationRequest, Future]] = []


class EngineWorker:
    """Per-engine drain loop: single-flight table, worker thread, backpressure.

    Typical direct use::

        engine = AnnotationEngine(trainer, EngineConfig(cache_dir="cache/"))
        with EngineWorker(engine) as worker:
            futures = [worker.submit(t) for t in tables]
            results = [f.result() for f in futures]

    The worker owns no model state — it is a scheduling layer over the
    engine it is given, and every equivalence guarantee of the engine's
    cache tiers applies unchanged (see the module docstring for the exact
    contract).  One worker thread annotates; any number of threads may
    submit.  Most code reaches a worker through a front-end — the
    :class:`AnnotationService` or the
    :class:`~repro.serving.gateway.AnnotationGateway`.
    """

    def __init__(
        self,
        engine: AnnotationEngine,
        config: Optional[QueueConfig] = None,
    ) -> None:
        self.engine = engine
        self.config = config or QueueConfig()
        self.stats = ServiceStats()
        # One lock guards everything below it; the two conditions share it.
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)  # the worker waits for groups
        self._room = threading.Condition(self._lock)  # full-queue submitters wait
        self._queued: Deque[_Group] = deque()  # not yet started, oldest first
        self._groups: Dict[str, _Group] = {}  # queued or running, by cache key
        self._unanswered = 0  # futures handed out whose group is still open
        self._worker: Optional[threading.Thread] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EngineWorker":
        """Spawn the worker thread (idempotent; raises once closed)."""
        with self._lock:
            self._start_locked()
        return self

    def _start_locked(self) -> None:
        if self._closed:
            raise RuntimeError("cannot start a closed worker")
        if self._worker is None:
            self._worker = threading.Thread(
                target=self._worker_loop, name="annotation-worker", daemon=True
            )
            self._worker.start()

    def close(self) -> None:
        """Stop accepting submissions, serve everything pending, then join.

        Every future obtained before ``close`` resolves; submitting after
        ``close`` raises ``RuntimeError`` (also in submitters that were
        blocked on a full queue — they hold no future yet).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker, self._worker = self._worker, None
            self._work.notify()
            self._room.notify_all()
        if worker is not None:
            # The loop only exits on an empty queue, and nothing can be
            # queued behind _closed: nothing is left over after the join.
            worker.join()

    def __enter__(self) -> "EngineWorker":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
        block: bool = True,
        identity: Optional[RequestIdentity] = None,
    ) -> "Future[AnnotationResult]":
        """Hand in one table; returns the future holding its result.

        Blocks (up to ``config.submit_timeout``) while ``max_queue_size``
        futures are unanswered — backpressure — and raises ``queue.Full``
        on timeout.  With ``block=False`` a full queue raises
        ``queue.Full`` immediately instead of blocking (the gateway's
        asyncio path polls this way so backpressure never stalls an event
        loop).  The returned future resolves to the same
        :class:`AnnotationResult` object for every submitter of a
        content-identical request between now and the moment the answer
        exists.  ``identity`` is the request's hash when the caller holds
        it already (:meth:`answer_stored` returns it with a miss), so the
        cells are still walked once.
        """
        request = self.engine._as_request(item, options)
        future: "Future[AnnotationResult]" = Future()
        try:
            identity = self.engine.identify(request, identity)
        except Exception as error:  # noqa: BLE001 - malformed request
            # e.g. non-string cell values break the content hash; fail that
            # request alone, through its future like any engine error.
            with self._lock:
                self.stats.submitted += 1
                self.stats.failed += 1
            future.set_exception(error)
            return future
        with self._lock:
            if not self._has_room_locked():
                if not block or not self._room.wait_for(
                    self._has_room_locked, self.config.submit_timeout
                ):
                    raise _queue.Full
            if self._closed:
                raise RuntimeError("cannot submit to a closed worker")
            # Counted in the same critical section that makes the request
            # visible to the worker: no snapshot sees completed > submitted.
            self.stats.submitted += 1
            self._unanswered += 1
            group = self._groups.get(identity.cache_key)
            if group is not None:
                self.stats.dedup_hits += 1
            else:
                group = self._groups[identity.cache_key] = _Group(identity)
                self._queued.append(group)
                # Auto-start so `worker.submit(...)` works without an
                # explicit start()/with-block.
                self._start_locked()
                self._work.notify()
            group.waiters.append((request, future))
        return future

    def answer_stored(
        self,
        request: AnnotationRequest,
        render: Callable[[Dict], Optional[Any]],
    ) -> Tuple[Optional[Any], Optional[RequestIdentity]]:
        """Answer ``request`` from the engine's result store on the
        caller's thread, or say why not: ``(answer, identity)``.

        The hit path of a front-end that renders stored payloads itself
        (the socket server, from its event loop): the request is hashed,
        the store *peeked* (:meth:`FabricCache.peek
        <repro.serving.fabric.FabricCache.peek>` — no directory scan), and
        ``render(payload)`` is the answer.  A hit never enters the queue:
        no future, no group, no wake of the worker thread; it counts as
        one ``submitted`` and one ``completed`` in one critical section,
        and as the engine's ``requests``/``disk_hits``.

        ``answer`` is ``None`` when the caller must :meth:`submit` instead
        — the engine has no store (``identity`` is ``None`` too: nothing
        was hashed), the store cannot answer from its index, ``render``
        declined the payload, or the worker is closed.  Nothing is counted
        then; ``identity`` goes to ``submit(identity=...)``.  Whatever
        ``identify`` or ``render`` raises propagates with nothing counted.
        """
        store = self.engine.result_cache
        if store is None:
            return None, None
        identity = self.engine.identify(request)
        payload = store.peek(identity.cache_key)
        answer = None if payload is None else render(payload)
        if answer is None:
            return None, identity
        with self._lock:
            if self._closed:
                return None, identity
            self.stats.submitted += 1
            self.stats.completed += 1
        self.engine.count_stored_hit()
        return answer, identity

    def _has_room_locked(self) -> bool:
        return self._closed or self._unanswered < self.config.max_queue_size

    def annotate(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
    ) -> AnnotationResult:
        """Synchronous convenience: submit and wait for the result.

        (Windowed streaming lives on the front-ends —
        ``AnnotationGateway.annotate_stream``/``astream`` and the
        ``AnnotationService`` wrapper — so the policy exists in one place.)
        """
        return self.submit(item, options).result()

    def stats_snapshot(self) -> ServiceStats:
        """A copy of the counters taken under the lock every submit and
        every answer is counted under, so ``completed + failed <=
        submitted`` holds in every snapshot."""
        with self._lock:
            return self.stats.copy()

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queued and not self._closed:
                    self._work.wait()
                if not self._queued:
                    return  # closed, and everything submitted is answered
                # Work-conserving: what is queued NOW, never a wait for more.
                drain: List[_Group] = []
                while self._queued and len(drain) < self.config.max_batch:
                    group = self._queued.popleft()
                    if all(future.cancelled() for _, future in group.waiters):
                        self._release_locked(group)  # nobody is waiting any more
                    else:
                        drain.append(group)
            if not drain:
                continue
            try:
                self._process(drain)
            except Exception as error:  # noqa: BLE001 - worker must survive
                # Backstop: nothing outside _process's own guards may kill
                # the worker — a dead worker strands every future and
                # deadlocks submitters against the bounded queue.
                for group in drain:
                    self._resolve(group, error=error)

    def _process(self, drain: Sequence[_Group]) -> None:
        """Annotate one drain of distinct requests and answer their groups."""
        self.stats.batches += 1
        self.stats.unique_annotated += len(drain)
        # One engine call per drain: the engine encodes every request at
        # the width it would use alone, so results are byte-identical to
        # single-table passes while the drain still batches.
        try:
            results = self._annotate(drain)
        except Exception:  # noqa: BLE001 - delivered to waiters, below
            # Isolate the failure: retry request-by-request so a poisoned
            # request fails alone.  Retried requests cost nothing
            # extra beyond their own pass — serializations are cached, and
            # single-request results are byte-identical to batched ones.
            for group in drain:
                try:
                    result = self._annotate([group])[0]
                except Exception as retry_error:  # noqa: BLE001
                    self._resolve(group, error=retry_error)
                else:
                    self._resolve(group, result)
            return
        for group, result in zip(drain, results):
            self._resolve(group, result)

    def _annotate(self, groups: Sequence[_Group]) -> List[AnnotationResult]:
        return self.engine.annotate_batch(
            [group.waiters[0][0] for group in groups],
            identities=[group.identity for group in groups],
        )

    def _release_locked(self, group: _Group) -> None:
        """Close ``group``'s dedup window and free its waiters' queue room."""
        del self._groups[group.identity.cache_key]
        self._unanswered -= len(group.waiters)
        self._room.notify_all()

    def _resolve(
        self,
        group: _Group,
        result: Optional[AnnotationResult] = None,
        error: Optional[Exception] = None,
    ) -> None:
        """Close the group's window, then answer everyone attached to it."""
        with self._lock:
            if self._groups.get(group.identity.cache_key) is not group:
                return  # already answered (the backstop sweeps whole drains)
            # Off the table the waiter list is final: submit only appends
            # to groups it finds there, under this lock.
            self._release_locked(group)
            # Waiters that cancelled drop out here; their siblings are
            # unaffected.
            live = [
                (request, future)
                for request, future in group.waiters
                if future.set_running_or_notify_cancel()
            ]
            # Count BEFORE resolving: the future is the waiter's wake-up
            # call, and a waiter that has its answer may immediately read
            # the stats (the gateway's admin plane serves them over the
            # wire) — the completion must already be visible then.
            if result is None:
                self.stats.failed += len(live)
            else:
                self.stats.completed += len(live)
        for request, future in live:
            if result is None:
                future.set_exception(error)
            elif request.table is result.request.table:
                # Deliberately the same object for every waiter asking about
                # the same table — the dedup contract tests rely on identity.
                future.set_result(result)
            else:
                # Content-equal but distinct table objects (e.g. different
                # table_id): share every annotation product, but wrap them
                # around the waiter's *own* table so its identity/metadata
                # survive — same rule the disk tier applies on decode.
                future.set_result(self._rewrap(request, result))

    @staticmethod
    def _rewrap(request: AnnotationRequest, result: AnnotationResult) -> AnnotationResult:
        source = result.annotated
        annotated = AnnotatedTable(
            table=request.table,
            coltypes=source.coltypes,
            colrels=source.colrels,
            colemb=source.colemb,
            type_scores=source.type_scores,
            requested_pairs=source.requested_pairs,
        )
        return AnnotationResult(
            request=request,
            annotated=annotated,
            from_cache=result.from_cache,
            batch_index=result.batch_index,
            from_disk=result.from_disk,
        )


class AnnotationService:
    """Compatibility wrapper over an
    :class:`~repro.serving.gateway.AnnotationGateway`.

    The historical front-end: one engine, one queue, one worker.  It
    *delegates* to a gateway holding exactly that engine (registered
    under the name ``"default"``), so both are one code path; the
    thread-based API — ``submit`` returning a
    :class:`concurrent.futures.Future`, ``annotate``, ``annotate_stream``,
    context-manager lifecycle — is unchanged.  For the asyncio-native
    ``asubmit``/``astream`` API, use the gateway directly::

        engine = AnnotationEngine(trainer, EngineConfig(cache_dir="cache/"))
        with AnnotationService(engine) as service:
            futures = [service.submit(t) for t in tables]
            results = [f.result() for f in futures]
    """

    #: Name the wrapped engine is registered under in the backing gateway.
    MODEL_NAME = "default"

    def __init__(
        self,
        engine: AnnotationEngine,
        config: Optional[QueueConfig] = None,
    ) -> None:
        from .gateway import AnnotationGateway  # deferred: gateway imports queue

        self.engine = engine
        self.config = config or QueueConfig()
        self.gateway = AnnotationGateway.for_engine(
            engine, name=self.MODEL_NAME, queue_config=self.config
        )
        # The gateway's one worker lives as long as the service; grab it
        # once for stats/start.
        self._worker = self.gateway.worker(self.MODEL_NAME)

    @property
    def stats(self) -> ServiceStats:
        """The underlying worker's counters (the historical attribute)."""
        return self._worker.stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AnnotationService":
        """Spawn the worker thread (idempotent)."""
        self._worker.start()
        return self

    def close(self) -> None:
        """Stop accepting submissions, serve everything pending, then join."""
        self.gateway.close()

    def __enter__(self) -> "AnnotationService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission (delegated through the gateway)
    # ------------------------------------------------------------------
    def submit(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
    ) -> "Future[AnnotationResult]":
        """Enqueue one table; see :meth:`EngineWorker.submit`."""
        return self.gateway.submit(item, options)

    def annotate(
        self,
        item: RequestLike,
        options: Optional[AnnotationOptions] = None,
    ) -> AnnotationResult:
        """Synchronous convenience: submit and wait for the result."""
        return self.gateway.annotate(item, options)

    def annotate_stream(
        self,
        items: Iterable[RequestLike],
        options: Optional[AnnotationOptions] = None,
        window: Optional[int] = None,
    ) -> Iterator[AnnotationResult]:
        """Pump an iterable through the queue, yielding results in order."""
        return self.gateway.annotate_stream(items, options, window=window)
