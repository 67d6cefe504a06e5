"""Asyncio TCP front door for the annotation gateway.

:class:`AnnotationServer` puts a real network face on the
:class:`~repro.serving.gateway.AnnotationGateway`: clients connect over
TCP and speak the newline-delimited JSON protocol of
:mod:`repro.serving.protocol` — the *same* protocol as ``repro serve``'s
stdin loop, implemented by the same module, so a socket answer is
byte-identical to the loop-mode answer (and therefore to a direct
``engine.annotate`` call) for the same record.

Concurrency model
-----------------
One event loop serves every connection; annotation work happens on the
gateway's worker thread, bridged with the asyncio-native ``asubmit()`` —
a thousand concurrent in-flight requests cost one worker thread, not one
per request or per connection.

* **Per-connection ordering** — answers on one connection come back in
  the order its records arrived.  Each connection keeps a FIFO of pending
  answers; a writer coroutine emits them in order — everything already
  resolved at the head of the FIFO in one write — so results stream out
  as each completes, with at most one window of head-of-line wait — never
  buffered behind the slowest batch of another connection.
* **Stored results are answered where the frame is decoded** — once the
  worker exists, a table record on an admitted route is hashed once
  and looked up by the connection's reader; a hit is rendered straight
  from the stored payload and queued as an already-resolved answer.  No
  task, no future, no hop to the worker thread, no
  :class:`~repro.serving.request.AnnotationResult`; a miss takes the
  path below with its hash in hand.  For this the loop may wait on the
  store handle's lock (an index lookup, an append, at worst the worker's
  throttled directory scan) and on one read of a cached page — never on a
  model load, a drain, or a scan of its own.
* **Backpressure, never blocking** — each connection bounds its in-flight
  window (default ``4 * max_batch``); a full window suspends that
  connection's reader (TCP pushes back to the client), and a full gateway
  queue is retried with ``asyncio.sleep`` backoff inside ``asubmit`` —
  the event loop never blocks, so hot connections keep streaming while the
  queue fills.
* **Errors are answers** — broken JSON, zero-column tables, routes naming
  other weights, unknown admin ops, and per-request annotation failures produce ``{"error": ...}``
  records on the offending connection; the server and every other
  connection keep serving.

Admin plane
-----------
With ``admin=True`` (default) the same wire protocol carries operations:
``{"op": "health"}``, ``{"op": "stats"}``, and ``{"op": "shutdown"}``,
which answers ``{"ok": true}`` and then gracefully drains the whole
server.  No admin operation loads, swaps or names a model: the served
weights are fixed at start.  Admin operations run in the default
executor, off the event loop.

Shutdown
--------
:meth:`AnnotationServer.stop` (triggered by ``{"op": "shutdown"}``, by
SIGINT/SIGTERM in the CLI, or programmatically) closes the listener,
stops reading new records, drains every accepted answer to its client,
and closes the connections.  Closing the *gateway* afterwards (the CLI
does) drains the worker and flushes/closes the persistent
:class:`~repro.serving.fabric.FabricCache` stores — no answer accepted
before the shutdown is lost, and no cache write is torn.

:class:`ServerThread` runs the whole thing on a private event loop in a
daemon thread — the harness for embedding a socket server in synchronous
code (and for the test suite and benchmarks).
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Set, Tuple

from ..telemetry import declare
from . import protocol
from .diskcache import RequestIdentity
from .gateway import AnnotationGateway
from .request import AnnotationOptions

#: Default asyncio stream limit is 64 KiB — too small for wide tables.
DEFAULT_MAX_LINE_BYTES = 10 * 1024 * 1024

_DONE = object()


def _transfer_to(slot: "asyncio.Future", stats: "ServerStats"):
    """Done-callback copying an answer task's outcome into its reserved
    FIFO slot (a task cancelled at loop teardown cancels the slot).
    Counts the answer as ``ready``.  Answer coroutines catch their own
    failures, but an exception escaping anyway (an executor refusing
    work at teardown, an encoding bug) becomes an error *answer* here —
    an unresolved slot would block the connection's writer, and with it
    graceful shutdown, forever."""

    def transfer(task: "asyncio.Task") -> None:
        if slot.done():
            return
        if task.cancelled():
            slot.cancel()
            return
        stats.ready += 1
        error = task.exception()
        if error is not None:
            stats.errors += 1
            slot.set_result(
                protocol.error_answer(protocol.format_error(error))
            )
        else:
            slot.set_result(task.result())

    return transfer


ServerStats = declare(
    "ServerStats",
    """Counters for one server's lifetime.

    ``ready - answered`` approximates the write-blocked backlog (answers
    retired unwritten on a torn connection also leave the gap; the
    graceful stop's stall detection therefore tracks progress per
    connection, not from these totals).
    """,
    {
        "connections": "client connections accepted",
        "requests": "table records accepted",
        "admin_ops": "admin records accepted",
        "errors": "error answers emitted (per-request annotation failures "
        "included)",
        "ready": "answers produced and queued for their connection "
        "(annotation done or error built — written or not yet)",
        "answered": "answer lines actually written",
    },
)


class _Connection:
    """Per-connection state: the answer FIFO and the window that bounds
    it (``room``), the cancellable reader, and the drain telemetry — ``retired`` counts answers taken off the FIFO
    (written or dropped on a broken transport), ``writing`` is True
    exactly while the writer coroutine sits inside ``write``/``drain``.
    ``writing`` with ``retired`` not moving for a whole grace window is
    what marks a connection write-blocked during graceful stop (a writer
    awaiting a still-computing answer has ``writing`` False, however
    long it waits)."""

    __slots__ = (
        "writer", "answers", "room", "reader_task", "retired", "writing"
    )

    def __init__(self, writer: asyncio.StreamWriter, window: int) -> None:
        self.writer = writer
        # The FIFO itself is unbounded; ``room`` is the in-flight window.
        # The reader takes one unit *before* it dispatches a record and the
        # writer gives it back when the answer is retired, so filling the
        # FIFO never waits — nothing can be cancelled between accepting a
        # record and queueing its answer.
        self.answers: "asyncio.Queue" = asyncio.Queue()
        self.room = asyncio.Semaphore(window)
        self.reader_task: Optional["asyncio.Task"] = None
        self.retired = 0
        self.writing = False


class AnnotationServer:
    """Serve a gateway over TCP, speaking the loop-mode JSON protocol.

    Typical embedding::

        registry = ModelRegistry(cache_dir="anno-cache/")
        registry.register("default", "models/run/")
        gateway = AnnotationGateway(registry)
        server = AnnotationServer(gateway, host="127.0.0.1", port=9000)

        async def main():
            await server.start()
            await server.shutdown_requested.wait()   # {"op": "shutdown"}
            await server.stop()

    ``options`` fixes the per-request knobs for every record this server
    answers (like the CLI's flags fix them for a loop session);
    ``with_embeddings`` switches embedding vectors into answer records;
    ``window`` bounds each connection's in-flight answers (default
    ``4 * max_batch``); ``port=0`` binds an ephemeral port — read
    :attr:`address` after :meth:`start`.

    Pool embedding hooks: ``sock`` serves an already-bound listening
    socket instead of binding ``host``/``port`` (the inherited-FD sharding
    of :mod:`repro.serving.pool`); ``reuse_port`` sets ``SO_REUSEPORT`` on
    the bind so several worker processes can share one port (kernel
    load-balanced); ``admin_handler(record, gateway)`` — called in the
    executor before the default admin plane — lets an embedding answer
    (or augment) admin operations itself; returning ``None`` falls
    through to :func:`protocol.handle_admin`.  An op answered by the
    handler triggers none of the default side effects (in particular, a
    handled ``shutdown`` does *not* set :attr:`shutdown_requested` — the
    pool drains its workers itself).
    """

    def __init__(
        self,
        gateway: AnnotationGateway,
        options: Optional[AnnotationOptions] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        with_embeddings: bool = False,
        admin: bool = True,
        window: Optional[int] = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        shutdown_grace: float = 10.0,
        sock=None,
        reuse_port: bool = False,
        admin_handler=None,
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1: {window}")
        if shutdown_grace < 0:
            raise ValueError(f"shutdown_grace must be >= 0: {shutdown_grace}")
        if sock is not None and reuse_port:
            raise ValueError("sock= and reuse_port are mutually exclusive")
        self.gateway = gateway
        self.options = options or AnnotationOptions()
        self.host = host
        self.port = port
        self.with_embeddings = with_embeddings
        self.admin = admin
        self.window = window or 4 * gateway.queue_config.max_batch
        self.max_line_bytes = max_line_bytes
        self.shutdown_grace = shutdown_grace
        self.sock = sock
        self.reuse_port = reuse_port
        self.admin_handler = admin_handler
        self.stats = ServerStats()
        self._server: Optional["asyncio.base_events.Server"] = None
        self._connections: Set[_Connection] = set()
        self._handlers: Set["asyncio.Task"] = set()
        self._stopped = False
        #: Set when a client's ``{"op": "shutdown"}`` was acknowledged;
        #: the embedding loop should then call :meth:`stop`.
        self.shutdown_requested: Optional[asyncio.Event] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — meaningful after :meth:`start`
        (with ``port=0`` this is where the ephemeral port shows up)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("the server is not started")
        return self._server.sockets[0].getsockname()[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AnnotationServer":
        """Bind and start accepting connections (idempotent; a *stopped*
        server cannot rebind — create a fresh one)."""
        if self._stopped:
            raise RuntimeError(
                "cannot restart a stopped AnnotationServer; create a new one"
            )
        if self._server is not None:
            return self
        self.shutdown_requested = asyncio.Event()
        if self.sock is not None:
            self._server = await asyncio.start_server(
                self._serve_connection,
                sock=self.sock,
                limit=self.max_line_bytes,
            )
        else:
            kwargs = {"reuse_port": True} if self.reuse_port else {}
            self._server = await asyncio.start_server(
                self._serve_connection,
                self.host,
                self.port,
                limit=self.max_line_bytes,
                **kwargs,
            )
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, close (idempotent).

        The listener closes first; then every connection's reader is
        cancelled — records already accepted keep their place in the
        answer FIFO and are written out before the connection closes, so
        a client that saw its record accepted gets its answer.  (A line
        in flight at the instant of cancellation may go unanswered; it
        was never accepted.)  The drain is *progress*-bounded: as long
        as answers keep going out — or the backlog is still computing
        (slow annotation is not a reason to drop accepted work) — the
        drain keeps going.  Only a full ``shutdown_grace`` seconds with
        answers **ready but none written** marks the remaining
        connections stalled (a client that stopped reading blocks our
        ``drain()`` through its full TCP buffer forever); their
        transports are then aborted: shutdown must not hang on the worst
        client.  The gateway is *not* closed here — the owner closes it
        to drain workers and flush disk caches.
        """
        self._stopped = True
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            if connection.reader_task is not None:
                connection.reader_task.cancel()
        pending = set(self._handlers)
        # A floor on the window keeps shutdown_grace=0 ("no patience for
        # stalled clients") from busy-spinning while accepted work is
        # still computing.
        window = max(self.shutdown_grace, 0.05)
        while pending:
            progress = {c: c.retired for c in list(self._connections)}
            done, pending = await asyncio.wait(pending, timeout=window)
            if not pending:
                break
            # Per-connection verdicts: only a connection whose writer is
            # INSIDE a write/drain that made no progress all window is
            # stalled; a writer awaiting a still-computing answer (even
            # with faster answers queued behind it), one actively
            # writing, or a newly observed connection gets another
            # window.
            stalled = [
                c
                for c in list(self._connections)
                if c.writing and c.retired == progress.get(c, -1)
            ]
            for connection in stalled:
                try:
                    connection.writer.transport.abort()
                except Exception:  # noqa: BLE001 - already closing
                    pass
            # Aborted writers observe the broken transport and retire
            # their remaining answers; loop until every handler exits.
        if self._server is not None:
            # Awaited LAST deliberately: since Python 3.12.1 wait_closed()
            # also waits for every connection handler — awaiting it before
            # the reader cancel above would deadlock on any open client.
            await self._server.wait_closed()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopped:
            # Accepted in the same beat stop() started: this handler is
            # in neither the cancel sweep nor the drain snapshot, so it
            # must leave on its own — otherwise wait_closed() (which
            # waits on every handler since Python 3.12.1) never returns.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        connection = _Connection(writer, self.window)
        self._connections.add(connection)
        self.stats.connections += 1
        writer_task = asyncio.ensure_future(self._write_answers(connection))
        connection.reader_task = asyncio.ensure_future(
            self._read_records(reader, connection)
        )
        try:
            try:
                await connection.reader_task
            except asyncio.CancelledError:
                # stop() cancelled the reader: fall through to the drain.
                pass
            except Exception:  # noqa: BLE001 - reader bug, not fatal
                # An unexpected reader failure closes THIS connection;
                # the drain below still writes every accepted answer, and
                # the server keeps serving the other connections.
                self.stats.errors += 1
        finally:
            # Always drain: without the sentinel the writer task would
            # block on the queue forever and accepted answers would be
            # dropped.
            connection.answers.put_nowait(_DONE)
            await writer_task
            self._connections.discard(connection)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_records(
        self, reader: asyncio.StreamReader, connection: _Connection
    ) -> None:
        """Accept records until EOF (or a cancel from :meth:`stop`).

        Every record that will be answered first takes one unit of the
        connection's window — that await is the per-connection backpressure
        (a full window suspends this coroutine, and TCP suspends the
        client) and, with ``readline``, the only place a shutdown cancel
        can land: a record either never got its unit, or its answer is in
        the FIFO (resolved, or a slot whose task is running) and the drain
        will write it.  Answers enter the FIFO here, in arrival order,
        which is the ordering guarantee.

        A table record is first offered to the result store
        (:meth:`_answer_stored`): a hit is rendered and queued right here,
        already resolved — no task, no future, no worker wake — behind
        whatever is still computing ahead of it.
        """
        loop = asyncio.get_running_loop()
        answers = connection.answers
        while True:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionError):
                # Overlong line (stream limit) or a reset mid-line: the
                # framing is unrecoverable, close this connection.
                await connection.room.acquire()
                answers.put_nowait(
                    protocol.error_answer(
                        f"line exceeds {self.max_line_bytes} bytes or the "
                        "connection broke mid-line"
                    )
                )
                self.stats.errors += 1
                self.stats.ready += 1
                return
            if not line:
                return  # client closed its write side
            try:
                record = protocol.decode_record(
                    line, self.options, admin=self.admin
                )
            except protocol.ProtocolError as error:
                await connection.room.acquire()
                answers.put_nowait(error.answer())
                self.stats.errors += 1
                self.stats.ready += 1
                continue
            if record is None:
                continue  # blank line or dataset header
            await connection.room.acquire()
            # No await from here to the end of the iteration: the record is
            # accepted, and its answer (or its running task) is queued.
            if isinstance(record, protocol.AdminRecord):
                self.stats.admin_ops += 1
                answer_coro = self._admin(record)
            else:
                self.stats.requests += 1
                stored, identity = self._answer_stored(record)
                if stored is not None:
                    answers.put_nowait(stored)
                    self.stats.ready += 1
                    continue
                answer_coro = self._annotate(record, identity)
            slot: "asyncio.Future" = loop.create_future()
            answers.put_nowait(slot)
            task = asyncio.ensure_future(answer_coro)
            task.add_done_callback(_transfer_to(slot, self.stats))

    def _answer_stored(
        self, record: protocol.RequestRecord
    ) -> Tuple[Optional[bytes], Optional[RequestIdentity]]:
        """``(answer line, identity)`` for a table record the result store
        can answer right now, else ``(None, identity or None)``.

        Runs on the event loop, so it may wait only for what
        :meth:`AnnotationGateway.answer_stored
        <repro.serving.gateway.AnnotationGateway.answer_stored>` waits
        for: short locks and one read of a cached page — never a model
        load, a drain or a directory scan.  The line is rendered from the
        stored payload (:func:`protocol.encode_stored`) and is byte for
        byte what :meth:`_annotate` would produce.  Anything else — no
        store, no worker yet, a refused route, a payload with embeddings,
        any exception —
        returns no answer and :meth:`_annotate` serves (and reports) the
        record as before, reusing ``identity`` so the table is hashed once.
        """
        request = record.request
        if request.options.with_embeddings:
            return None, None  # such payloads carry vectors: decoded path

        def render(payload: Dict) -> Optional[bytes]:
            answer = protocol.encode_stored(
                payload, request.table, record.record_id
            )
            if answer is None:
                return None
            return protocol.encode_line(answer).encode("utf-8")

        try:
            return self.gateway.answer_stored(request, render)
        except Exception:  # noqa: BLE001 - _annotate reports it
            return None, None

    async def _annotate(
        self,
        record: protocol.RequestRecord,
        identity: Optional[RequestIdentity] = None,
    ) -> Dict:
        """One table record's answer (result or error, never a raise)."""
        try:
            result = await self.gateway.asubmit(
                record.request, self.options, identity=identity
            )
            return protocol.encode_result(
                result,
                with_embeddings=self.with_embeddings,
                record_id=record.record_id,
            )
        except Exception as error:  # noqa: BLE001 - answered, never fatal
            self.stats.errors += 1
            return protocol.error_answer(
                protocol.format_error(error),
                record_id=record.record_id,
                table_id=record.request.table.table_id,
            )

    async def _admin(self, record: protocol.AdminRecord) -> Dict:
        """One admin record's answer, computed in the executor.  A
        configured ``admin_handler`` gets first refusal (a pool handler
        blocks on control pipes); an op it answers skips the default side
        effects."""
        loop = asyncio.get_running_loop()
        handled = False

        def run() -> Dict:
            nonlocal handled
            if self.admin_handler is not None:
                custom = self.admin_handler(record, self.gateway)
                if custom is not None:
                    handled = True
                    return custom
            return protocol.handle_admin(record, self.gateway)

        try:
            answer = await loop.run_in_executor(None, run)
        except Exception as error:  # noqa: BLE001 - e.g. executor teardown
            answer = protocol.error_answer(
                protocol.format_error(error),
                record_id=record.record_id,
                op=record.op,
            )
        if "error" in answer:
            self.stats.errors += 1
        elif record.op == "stats" and not handled:
            # The transport's own counters, under the key the pool's merged
            # answer uses (a pool handler supplies its own and is ``handled``).
            answer["server"] = self.stats.to_dict()
        elif record.op == "shutdown" and not handled:
            # Acknowledged; the owner of this server observes the event
            # and calls stop() — the answer is already queued ahead of
            # the drain, so the requesting client sees it.
            assert self.shutdown_requested is not None
            self.shutdown_requested.set()
        return answer

    async def _write_answers(self, connection: _Connection) -> None:
        """Emit one connection's answers in FIFO order as they resolve.

        Every answer already resolved at the head of the FIFO — store hits,
        error answers, slots whose task finished — goes out in **one**
        ``write`` and one ``drain``; the writer then waits for the first
        unresolved slot and gathers again.  The bytes are those of one
        write per answer, in the same order.
        """
        answers = connection.answers
        broken = False
        item = await answers.get()
        while True:
            lines: List[bytes] = []
            while item is not _DONE:
                if isinstance(item, asyncio.Future):
                    if not item.done():
                        break
                    item = item.result()  # answer coroutines never raise
                if isinstance(item, dict):
                    item = protocol.encode_line(item).encode("utf-8")
                lines.append(item)
                if answers.empty():
                    item = None
                    break
                item = answers.get_nowait()
            if lines:
                if not broken:
                    connection.writing = True
                    try:
                        connection.writer.write(b"".join(lines))
                        await connection.writer.drain()
                        self.stats.answered += len(lines)
                    except (ConnectionError, OSError):
                        # Keep consuming so pending futures resolve; the
                        # rest is dropped, but comes off the backlog.
                        broken = True
                    finally:
                        connection.writing = False
                connection.retired += len(lines)
                for _ in lines:
                    connection.room.release()
            if item is _DONE:
                return
            if item is None:
                item = await answers.get()
            else:
                await item  # the unresolved head; gathered on the next turn


class ServerThread:
    """Run an :class:`AnnotationServer` on a private loop in a daemon thread.

    The synchronous embedding (and test/benchmark) harness::

        with ServerThread(gateway, options) as address:
            sock = socket.create_connection(address)
            ...

    :meth:`start` returns the bound ``(host, port)`` once the listener is
    up (re-raising any bind error in the caller's thread); :meth:`stop`
    drains and joins.  A client-initiated ``{"op": "shutdown"}`` also
    stops the server — :meth:`stop` (or the context exit) then just joins
    the already-finished thread.  The gateway's lifetime stays with the
    caller: close it after the server stops to flush disk caches.
    """

    def __init__(self, gateway: AnnotationGateway, *args, **kwargs) -> None:
        self._factory = lambda: AnnotationServer(gateway, *args, **kwargs)
        self.server: Optional[AnnotationServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> Tuple[str, int]:
        if self._thread is not None:
            assert self.address is not None
            return self.address
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="annotation-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            # Reset so the caller can retry start() (e.g. after freeing
            # the port) instead of tripping the already-started guard.
            self._thread.join()
            error = self._startup_error
            self._thread = None
            self._startup_error = None
            self._ready = threading.Event()
            raise error
        assert self.address is not None
        return self.address

    @property
    def port(self) -> int:
        """The actually-bound port — the ephemeral port a ``port=0`` bind
        landed on.  Meaningful after :meth:`start`."""
        if self.address is None:
            raise RuntimeError("the server is not started")
        return self.address[1]

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = self._factory()
        try:
            await server.start()
        except BaseException as error:  # noqa: BLE001 - reraised in start()
            self._startup_error = error
            self._ready.set()
            return
        self.server = server
        self.address = server.address
        self._ready.set()
        stop_wait = asyncio.ensure_future(self._stop_event.wait())
        shutdown_wait = asyncio.ensure_future(server.shutdown_requested.wait())
        try:
            await asyncio.wait(
                {stop_wait, shutdown_wait},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for waiter in (stop_wait, shutdown_wait):
                waiter.cancel()
            await server.stop()

    def stop(self) -> None:
        """Drain the server and join its thread (idempotent, threadsafe)."""
        if self._thread is None:
            return
        loop, event = self._loop, self._stop_event
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already finished (client-initiated shutdown)
        self._thread.join()

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
