"""Multi-process serving pool: N workers behind one TCP address.

``repro serve --listen HOST:PORT --workers N`` runs this module: a
parent process that owns the listening address and N worker processes
that each run a full, independent serving stack —
:func:`~repro.serving.engine.load_engine` →
:class:`~repro.serving.queue.EngineWorker` →
:class:`~repro.serving.server.AnnotationServer`.  Workers never share
Python state; they share exactly three things:

* **The listener.**  The parent alone listens.  It accepts each
  connection and hands it round-robin to a live, ready worker over that
  worker's own ``AF_UNIX`` socketpair (``socket.send_fds``), which
  serves it through :meth:`~repro.serving.server.AnnotationServer.adopt`.
* **The weights.**  Every worker — crash restarts included — maps the
  one weight arena the parent built before spawning.
* **The result cache.**  Each worker opens the model's cache directory
  through :class:`~repro.serving.fabric.FabricCache` with a
  process-unique writer id (``w<slot>-pid<PID>``): appends go to the
  worker's own segment files, reads see every sibling's entries, so a
  table annotated once by any worker is a warm disk hit pool-wide.

Control plane
-------------
Besides its connection socketpair, each worker holds two pipes to the
parent.  The *command* pipe carries parent→worker requests (``collect``
a local stats snapshot, ``stop`` and drain); the *event* pipe carries
worker→parent messages (``ready`` once the model is loaded,
``stats``/``shutdown`` relayed from a client's admin record).  A
client's ``{"op": "stats"}`` on ANY connection therefore answers with
the pool-wide merged view: the worker forwards the request up the event
pipe, the parent fans ``collect`` out to every live worker, merges
their raw counters (:func:`merge_sections` — the declared-counter
``merge`` of :mod:`repro.telemetry`), renders the sums once, and the
original worker answers the client.  ``{"op": "shutdown"}``
acknowledges the client, then asks the parent to drain the whole pool.

Supervision
-----------
One supervisor thread in the parent waits on the worker sentinels and,
while a worker is ready, on the listener.  A worker that dies while the
pool is running is restarted with exponential backoff, up to
``max_restarts`` per slot, and is handed no connection until it reports
ready again; a handoff that fails passes the connection on.  A
restarted worker re-opens the fabric under a fresh writer id, so a
crash mid-append never corrupts what other workers can read (their
tails stop at the last complete line).  SIGINT/SIGTERM to the parent
close its listener, then drain every worker: each in-flight and
already-accepted request is answered before its worker exits
(`AnnotationServer.stop` semantics, per worker).

Workers ignore SIGINT (the parent coordinates Ctrl-C, which the shell
delivers group-wide) and treat a direct SIGTERM as "drain and exit" —
the supervisor then restarts the slot, which is also how a rolling
restart of a live pool looks from the outside.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import shutil
import socket
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.persistence import ensure_model_arena
from ..telemetry import Counters
from .engine import EngineConfig, load_engine
from .queue import EngineWorker, GatewayStats, QueueConfig, RegistryStats
from .request import AnnotationOptions
from .server import AnnotationServer, ServerStats

__all__ = [
    "PoolConfig",
    "ServingPool",
    "merge_sections",
]


@dataclass
class PoolConfig:
    """Everything a worker needs to rebuild the serving stack.

    Picklable by construction (primitives, tuples and the frozen
    ``engine`` config) so it crosses the ``multiprocessing`` boundary under
    any start method.  The fields mirror the ``repro serve`` flags they
    come from — the engine's knobs in ``engine``, the per-request ones in
    ``options`` — and each worker builds its stack from them with
    :func:`~repro.serving.engine.load_engine`.
    """

    # The bundle directory of the one model the pool serves.
    bundle: str
    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    cache_dir: Optional[str] = None
    engine: EngineConfig = field(default_factory=EngineConfig)
    # What every answer is rendered with (the CLI's --top-k / --threshold /
    # --embeddings), embeddings on the wire included.
    options: AnnotationOptions = AnnotationOptions(with_embeddings=False)
    admin: bool = True
    shutdown_grace: float = 10.0
    start_method: Optional[str] = None    # default: fork where available
    max_restarts: int = 3                 # per worker slot
    restart_backoff: float = 0.5          # seconds, doubles per restart
    stats_timeout: float = 5.0            # per-worker collect deadline
    ready_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1: {self.workers}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0: {self.max_restarts}")


def merge_sections(snapshots: Iterable[Dict]) -> Dict[str, Counters]:
    """Sum the counter sections of the workers' snapshots.

    Each snapshot carries its worker's *raw* counters (the objects, not
    their rendering), so this is the same ``merge`` a worker composes its
    ``"gateway"`` section with: per-name maps merge name by name, and a
    ratio — which exists only in ``to_dict()`` output — is derived once,
    from the summed counters, by whoever renders the result.  Whatever
    else a snapshot names (``worker``, ``pid``) identifies it and is never
    added.
    """
    merged = {
        "server": ServerStats(),
        "gateway": GatewayStats(),
        "registry": RegistryStats(),
    }
    for snapshot in snapshots:
        for section, total in merged.items():
            total.merge(snapshot[section])
    return merged


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _worker_main(
    slot: int,
    config: PoolConfig,
    arena: str,
    channel: socket.socket,
    cmd_conn,
    evt_conn,
    stale_fds=(),
) -> None:
    """Entry point of one worker process (module-level: picklable under
    every start method).  Loads the model from the parent's ``arena``,
    builds worker → server, announces readiness on the event pipe, then
    serves every connection the parent hands over ``channel`` until told
    to stop."""
    import asyncio
    import signal

    # Under fork, this process inherited the parent's listener and the
    # PARENT-side ends of every control pipe and socketpair alive at fork
    # time — its own and its siblings'.  Holding a pipe's write end would
    # keep every cmd pipe from ever reaching EOF, defeating the
    # died-parent drain below, and holding the listener would keep the
    # address accepting into a queue nobody serves once the parent closes
    # it: close them.  (Empty under spawn, where fd numbers do not
    # transfer.)
    for fd in stale_fds:
        try:
            os.close(fd)
        except OSError:
            pass

    # Ctrl-C in a terminal signals the whole foreground process group;
    # the parent turns it into a coordinated drain, so workers must not
    # also die on the raw signal.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass

    engine = load_engine(
        config.bundle,
        config.engine,
        cache_dir=config.cache_dir,
        fabric_writer=f"w{slot}-pid{os.getpid()}"
        if config.cache_dir is not None
        else None,
        arena=arena,
    )
    worker = EngineWorker(engine, QueueConfig(max_batch=config.engine.batch_size))

    # The event pipe is shared by the admin handler (any executor
    # thread) and the ready announcement; one lock keeps each
    # send→recv exchange atomic.
    evt_lock = threading.Lock()

    def admin_handler(record, _worker):
        """Pool-level admin ops; ``None`` falls through to the local
        protocol handler (``health`` answers for THIS worker)."""
        if record.op == "stats":
            try:
                with evt_lock:
                    evt_conn.send(("stats",))
                    merged = evt_conn.recv()
            except (EOFError, OSError):
                return None  # parent gone: answer with local stats
            answer = {"ok": True, "op": "stats"}
            answer.update(merged)
            if record.record_id is not None:
                answer["id"] = record.record_id
            return answer
        if record.op == "shutdown":
            answer = {"ok": True, "op": "shutdown"}
            if record.record_id is not None:
                answer["id"] = record.record_id
            try:
                with evt_lock:
                    evt_conn.send(("shutdown",))
                    evt_conn.recv()  # parent ack: drain is scheduled
            except (EOFError, OSError):
                pass
            return answer
        return None

    def local_stats() -> Dict:
        # Raw counters, not their rendering: pickling them up the pipe is
        # the snapshot, and the parent renders once, after merging.
        return {
            "worker": slot,
            "pid": os.getpid(),
            "server": server.stats,
            **worker.stats_sections(),
        }

    server = AnnotationServer(
        worker,
        config.options,
        with_embeddings=config.options.with_embeddings,
        admin=config.admin,
        shutdown_grace=config.shutdown_grace,
        admin_handler=admin_handler if config.admin else None,
    )

    async def _serve() -> None:
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()

        def take_connection() -> None:
            # One byte carrying one descriptor per handed-over connection.
            try:
                message, fds, _, _ = socket.recv_fds(channel, 1, 1)
            except BlockingIOError:
                return
            if not message:  # the parent is gone; its cmd pipe drains us
                loop.remove_reader(channel)
            for fd in fds:
                server.adopt(socket.socket(fileno=fd))

        channel.setblocking(False)
        loop.add_reader(channel, take_connection)

        def request_stop() -> None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed

        try:
            loop.add_signal_handler(signal.SIGTERM, stop_event.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass

        def cmd_listener() -> None:
            while True:
                try:
                    message = cmd_conn.recv()
                except (EOFError, OSError):
                    # Parent died: drain and exit rather than serve as
                    # an unsupervised orphan.
                    request_stop()
                    return
                if message[0] == "collect":
                    try:
                        cmd_conn.send(local_stats())
                    except (OSError, ValueError):
                        pass
                elif message[0] == "stop":
                    request_stop()
                    return

        threading.Thread(
            target=cmd_listener, name=f"pool-cmd-w{slot}", daemon=True
        ).start()
        try:
            with evt_lock:
                evt_conn.send(("ready",))
        except (EOFError, OSError):
            pass
        await stop_event.wait()
        await server.stop()
        # Post-drain snapshot: every answered-while-draining request is
        # in these counters, so the parent's final merge (the CLI
        # epilogue) is exact, not a pre-drain approximation.
        try:
            with evt_lock:
                evt_conn.send(("final", local_stats()))
        except (EOFError, OSError):
            pass

    try:
        asyncio.run(_serve())
    finally:
        worker.close()  # drain the queue, flush + close the fabric tier


# ----------------------------------------------------------------------
# Parent process
# ----------------------------------------------------------------------


@dataclass
class _Slot:
    """Parent-side state of one worker position."""

    index: int
    process: Optional[multiprocessing.process.BaseProcess] = None
    cmd_conn: Optional[multiprocessing.connection.Connection] = None
    evt_conn: Optional[multiprocessing.connection.Connection] = None
    channel: Optional[socket.socket] = None  # parent end of the handoff pair
    cmd_lock: threading.Lock = field(default_factory=threading.Lock)
    ready: threading.Event = field(default_factory=threading.Event)
    evt_thread: Optional[threading.Thread] = None
    restarts: int = 0
    retired: bool = False          # exhausted restart budget
    respawn_at: Optional[float] = None

    def close_ends(self) -> None:
        """Close the parent's ends of the worker's pipes and socketpair."""
        for end in (self.cmd_conn, self.evt_conn, self.channel):
            if end is not None:
                end.close()
        self.cmd_conn = self.evt_conn = self.channel = None


class ServingPool:
    """Parent-side orchestrator: bind, spawn, accept, supervise, drain.

    Lifecycle::

        pool = ServingPool(PoolConfig(bundle="models/run",
                                      host="127.0.0.1", port=9000,
                                      workers=4, cache_dir="anno-cache/"))
        host, port = pool.start()   # all workers accepting
        pool.wait()                 # until shutdown op / all slots dead
        pool.stop()                 # idempotent; drains and joins

    ``stop`` is safe from any thread (the CLI calls it from the main
    thread after ``wait`` returns or ``KeyboardInterrupt`` lands; a
    client ``shutdown`` op triggers it from a pipe-listener thread).
    """

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        method = config.start_method
        if method is None:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._ctx = multiprocessing.get_context(method)
        self._slots: List[_Slot] = [_Slot(index=i) for i in range(config.workers)]
        self._listener: Optional[socket.socket] = None
        self._bound: Optional[Tuple[str, int]] = None
        self._arena: Optional[str] = None
        self._arena_dir: Optional[str] = None  # pool-owned, if the bundle's is read-only
        self._next_slot = 0  # round-robin position of the next handoff
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._done = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._wake_r, self._wake_w = os.pipe()
        self._retired_stats: List[Dict] = []  # post-drain worker snapshots
        self.final_stats: Optional[Dict] = None
        self.total_restarts = 0

    # -- binding -------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        if self._bound is None:
            raise RuntimeError("pool is not started")
        return self._bound

    def _bind(self) -> None:
        sock = socket.create_server((self.config.host, self.config.port), backlog=128)
        sock.setblocking(False)
        self._listener = sock
        self._bound = sock.getsockname()[:2]

    def _build_arena(self, bundle: str) -> str:
        """Serialize the weights ONCE, before any worker exists: workers
        (and crash restarts) map the same file, so the page cache backs
        one physical copy of the weights pool-wide.  The arena goes beside
        the bundle, where the next pool reuses it; a bundle directory the
        pool cannot write (a read-only mount, a shared install) gets it in
        a directory the pool owns and removes at :meth:`stop`."""
        try:
            return str(ensure_model_arena(bundle))
        except OSError:
            self._arena_dir = tempfile.mkdtemp(prefix="repro-arena-")
            return str(ensure_model_arena(bundle, self._arena_dir))

    # -- spawning ------------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        slot.close_ends()  # of a previous incarnation
        cmd_parent, cmd_child = self._ctx.Pipe()
        evt_parent, evt_child = self._ctx.Pipe()
        channel, channel_child = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        # Non-blocking: a worker that stops reading fails its handoff (and
        # the connection goes to the next slot) instead of wedging the
        # supervisor.
        channel.setblocking(False)
        # Parent-side fds the forked child must close (see _worker_main):
        # the listener and every live slot's parent ends, plus the ones
        # just created for this slot.
        stale_fds = ()
        if self._ctx.get_start_method() == "fork":
            ends = [self._listener, channel, cmd_parent, evt_parent]
            for other in self._slots:
                ends.extend((other.cmd_conn, other.evt_conn, other.channel))
            stale_fds = tuple(end.fileno() for end in ends if end is not None)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                slot.index,
                self.config,
                self._arena,
                channel_child,
                cmd_child,
                evt_child,
                stale_fds,
            ),
            name=f"repro-serve-w{slot.index}",
            daemon=True,  # a dying parent must never leak serving processes
        )
        process.start()
        for end in (cmd_child, evt_child, channel_child):
            end.close()
        slot.process = process
        slot.cmd_conn = cmd_parent
        slot.evt_conn = evt_parent
        slot.channel = channel
        slot.ready = threading.Event()
        slot.respawn_at = None
        slot.evt_thread = threading.Thread(
            target=self._evt_listener,
            args=(slot, evt_parent),
            name=f"pool-evt-w{slot.index}",
            daemon=True,
        )
        slot.evt_thread.start()

    def start(self) -> Tuple[str, int]:
        with self._lock:
            if self._started:
                raise RuntimeError("pool already started")
            self._started = True
        # Fail fast in the parent on a bad bundle: workers would each
        # crash on load_engine() and burn the whole restart budget.
        from pathlib import Path

        bundle = self.config.bundle
        if not (Path(bundle) / "bundle.json").exists():
            raise ValueError(f"{bundle} is not a bundle directory (no bundle.json)")
        try:
            self._arena = self._build_arena(bundle)
            self._bind()
        except BaseException:
            self.stop(collect_stats=False)
            raise
        if self._ctx.get_start_method() == "fork":
            # Freeze the parent heap before forking: moving every object
            # to the permanent generation keeps the children's cyclic GC
            # from walking (and so dirtying, via refcount writes) the
            # COW pages holding the parent's interpreter state.  The
            # parent is a long-lived supervisor, so never collecting its
            # pre-fork garbage is a fine trade for keeping those pages
            # shared across all workers — including crash restarts,
            # which fork from this same frozen heap.
            import gc

            gc.freeze()
        for slot in self._slots:
            self._spawn(slot)
        deadline = time.monotonic() + self.config.ready_timeout
        for slot in self._slots:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not slot.ready.wait(remaining):
                self.stop()
                raise RuntimeError(
                    f"worker {slot.index} did not become ready within "
                    f"{self.config.ready_timeout:.0f}s"
                )
        self._supervisor = threading.Thread(
            target=self._supervise, name="pool-supervisor", daemon=True
        )
        self._supervisor.start()
        return self.address

    # -- connection placement -------------------------------------------

    def _accept(self) -> None:
        """Hand each connection waiting on the listener to the next live,
        ready worker, round-robin.  A slot whose send fails passes it on;
        if none takes it, closing it is the client's answer."""
        count = len(self._slots)
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # nothing waiting (or the client already left)
                return
            with conn:  # a worker holds its own descriptor once sent
                for step in range(count):
                    slot = self._slots[(self._next_slot + step) % count]
                    if slot.channel is None or not slot.ready.is_set():
                        continue
                    try:
                        socket.send_fds(slot.channel, [b"c"], [conn.fileno()])
                    except OSError:  # died unobserved, or its pair is full
                        continue
                    self._next_slot = (slot.index + 1) % count
                    break

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass

    # -- event plane ---------------------------------------------------

    def _evt_listener(self, slot: _Slot, conn) -> None:
        """One thread per spawned worker: service its event pipe until
        EOF (worker exit).  ``stats`` asks for the merged view; the
        reply goes back down the same pipe."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            if message[0] == "ready":
                slot.ready.set()
                self._wake()  # the supervisor may now accept for this slot
            elif message[0] == "final":
                # A worker's post-drain counters: folded into every later
                # merge, so pool totals stay monotone across restarts.
                with self._lock:
                    self._retired_stats.append(message[1])
            elif message[0] == "stats":
                try:
                    conn.send(self._merged_stats())
                except (OSError, ValueError):
                    pass
            elif message[0] == "shutdown":
                try:
                    conn.send(("ok",))
                except (OSError, ValueError):
                    pass
                threading.Thread(
                    target=self.stop, name="pool-shutdown", daemon=True
                ).start()

    def _collect(self, slot: _Slot) -> Optional[Dict]:
        """One worker's local stats snapshot, or ``None`` if it cannot
        answer within ``stats_timeout`` (dying / wedged)."""
        if slot.process is None or not slot.process.is_alive():
            return None
        conn = slot.cmd_conn
        if conn is None:
            return None
        with slot.cmd_lock:
            try:
                conn.send(("collect",))
                if not conn.poll(self.config.stats_timeout):
                    return None
                return conn.recv()
            except (EOFError, OSError, ValueError):
                return None

    def _merged_stats(self) -> Dict:
        """Pool-wide stats: per-worker snapshots plus merged counters
        (the payload a client's ``{"op": "stats"}`` answer carries)."""
        snapshots = [s for s in map(self._collect, self._slots) if s is not None]
        with self._lock:
            retired = list(self._retired_stats)
        merged: Dict[str, Dict] = {
            section: counters.to_dict()
            for section, counters in merge_sections(retired + snapshots).items()
        }
        with self._lock:
            live = sum(
                1
                for s in self._slots
                if s.process is not None and s.process.is_alive()
            )
            restarts = self.total_restarts
        merged["pool"] = {
            "workers": self.config.workers,
            "live": live,
            "answered": len(snapshots),
            "restarts": restarts,
            "per_worker": [
                {
                    "worker": s["worker"],
                    "pid": s["pid"],
                    "connections": s["server"].connections,
                    "requests": s["server"].requests,
                    "completed": s["gateway"].completed,
                }
                for s in snapshots
            ],
        }
        return merged

    def stats(self) -> Dict:
        """Merged pool stats, callable from the parent (the CLI epilogue
        and tests use this; clients get the same payload via the admin
        plane)."""
        return self._merged_stats()

    # -- supervision ---------------------------------------------------

    def _supervise(self) -> None:
        backstop = self.config.restart_backoff or 0.05
        while True:
            with self._lock:
                if self._stopping:
                    return
                # A dead process's sentinel stays readable forever, so
                # keeping it in the wait set until its death has been
                # *scheduled* (respawn_at set / slot retired) makes the
                # wait return immediately instead of sleeping through a
                # death that was reaped between the scheduling pass
                # below and this collection.
                sentinels = [
                    slot.process.sentinel
                    for slot in self._slots
                    if slot.process is not None
                    and not slot.retired
                    and (slot.process.is_alive() or slot.respawn_at is None)
                ]
                pending = [
                    slot.respawn_at
                    for slot in self._slots
                    if slot.respawn_at is not None
                ]
                # While no worker is ready, connections wait in the
                # listener's backlog rather than being accepted and closed.
                accepting = any(slot.ready.is_set() for slot in self._slots)
            timeout: Optional[float] = None
            if pending:
                timeout = max(0.0, min(pending) - time.monotonic())
            readable = multiprocessing.connection.wait(
                sentinels
                + [self._wake_r]
                + ([self._listener] if accepting else []),
                timeout=timeout,
            )
            try:
                # Drain wake bytes (non-blocking; may be empty).
                os.set_blocking(self._wake_r, False)
                while os.read(self._wake_r, 64):
                    pass
            except (BlockingIOError, OSError):
                pass
            with self._lock:
                if self._stopping:
                    return
            now = time.monotonic()
            live = 0
            for slot in self._slots:
                if slot.retired:
                    continue
                process = slot.process
                if process is not None and process.is_alive():
                    live += 1
                    continue
                if slot.respawn_at is None:
                    # Newly observed death: no more handoffs, and schedule
                    # the restart.
                    slot.ready.clear()
                    if process is not None:
                        process.join(timeout=0)
                    if slot.restarts >= self.config.max_restarts:
                        slot.retired = True
                        continue
                    slot.restarts += 1
                    with self._lock:
                        self.total_restarts += 1
                    delay = backstop * (2 ** (slot.restarts - 1))
                    slot.respawn_at = now + delay
                    live += 1  # still counts: a restart is coming
                elif slot.respawn_at <= now:
                    # Re-check under the lock so a restart never races a
                    # concurrent stop() (which joins this thread before
                    # signalling workers).
                    with self._lock:
                        if self._stopping:
                            return
                        self._spawn(slot)
                    live += 1
                else:
                    live += 1
            if live == 0:
                # Every slot exhausted its restart budget: the pool
                # cannot serve, so it shuts itself down.
                threading.Thread(
                    target=self.stop, name="pool-collapse", daemon=True
                ).start()
                return
            # Deaths first: a slot seen dead above is handed nothing here.
            if self._listener in readable:
                self._accept()

    # -- shutdown ------------------------------------------------------

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the pool is fully stopped (client shutdown op,
        supervisor collapse, or another thread's :meth:`stop`)."""
        return self._done.wait(timeout)

    def stop(self, collect_stats: bool = True) -> None:
        """Coordinated drain: final stats, ``stop`` command to every
        worker, bounded join, then hard-kill stragglers.  Idempotent —
        concurrent callers wait for the first one to finish."""
        with self._lock:
            if self._stopping:
                already = True
            else:
                self._stopping = True
                already = False
            # Snapshot under the lock: ``_started`` is written by start()
            # while holding it, and stop() may race a concurrent start().
            started = self._started
        if already:
            self._done.wait()
            return
        self._wake()
        supervisor = self._supervisor
        if supervisor is not None and supervisor is not threading.current_thread():
            supervisor.join(timeout=5.0)  # no respawns once we signal stop
        if self._listener is not None:
            # Closed before the workers drain: a connection arriving from
            # now on is refused, never queued where no worker will read it.
            try:
                self._listener.close()
            except OSError:
                pass
        for slot in self._slots:
            conn = slot.cmd_conn
            if conn is None or slot.process is None or not slot.process.is_alive():
                continue
            with slot.cmd_lock:
                try:
                    conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + self.config.shutdown_grace + 5.0
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        for slot in self._slots:
            # Let each event listener drain its pipe (the workers' final
            # post-drain snapshots may still be buffered) before closing.
            if slot.evt_thread is not None:
                slot.evt_thread.join(timeout=5.0)
        if collect_stats and started:
            try:
                # Every worker is down; this merges their final
                # snapshots, which include requests answered during the
                # drain itself.
                self.final_stats = self._merged_stats()
            except Exception:  # noqa: BLE001 - stats must not block drain
                self.final_stats = None
        for slot in self._slots:
            slot.close_ends()
        if self._arena_dir is not None:  # every worker that mapped it is gone
            shutil.rmtree(self._arena_dir, ignore_errors=True)
        self._done.set()

    def __enter__(self) -> "ServingPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
