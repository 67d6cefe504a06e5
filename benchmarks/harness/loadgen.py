"""Load generator and server-process handling (stdlib + numpy only).

One process, one event loop, ``CONNECTIONS`` TCP connections, request bytes
precomputed before a phase starts.  Two ways to drive a phase:

* :meth:`LoadGenerator.closed` — fixed work: each connection keeps
  ``in_flight`` requests outstanding until its share of the list is
  answered.  A slow server receives less load; the result is a throughput.
* :meth:`LoadGenerator.open` — a schedule: request ``k`` is sent when it is
  due whatever is still outstanding, and its latency runs **from its due
  time**, so a stall shows in the requests that were due while it lasted
  (no coordinated omission).  Pacing is sleep-then-spin: the loop sleeps to
  ``SPIN_S`` before the due time (asyncio timers fire up to a millisecond
  late), then yields zero-length sleeps, which keeps reading answers and
  their timestamps while it waits.

Answers come back in request order on each connection (the server's
per-connection FIFO), so the ``j``-th line received on a connection answers
the ``j``-th request sent on it: the generator stores the raw line and its
receive time and parses nothing while the clock runs.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SPIN_S = 0.001
#: Consecutive already-due sends before the pacer yields to the loop anyway.
YIELD_EVERY = 32
#: How long an open phase waits for stragglers after its last send.
DRAIN_TIMEOUT_S = 30.0
MIN_BEYOND = 10
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def samples_beyond(count: int, p: float) -> float:
    """How many of ``count`` samples lie beyond the ``p``-th percentile
    (in exact per-mille arithmetic: 10000 samples have 10 beyond p99.9)."""
    return count * (1000 - round(p * 10)) / 1000


def highest_percentile(count: int) -> Optional[float]:
    """The highest reportable percentile of ``count`` samples: the largest
    of ``PERCENTILES`` with at least ``MIN_BEYOND`` samples beyond it."""
    supported = [p for p in PERCENTILES if samples_beyond(count, p) >= MIN_BEYOND]
    return max(supported) if supported else None


def percentile(values: Sequence[float], p: float) -> float:
    """``p``-th percentile; refuses when fewer than ``MIN_BEYOND`` samples
    lie beyond it — a tail read off a handful of samples is noise."""
    beyond = samples_beyond(len(values), p)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has {beyond:.1f} samples beyond "
            f"it, need {MIN_BEYOND}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


# ---------------------------------------------------------------------------
# The server under test
# ---------------------------------------------------------------------------

class ServerProcess:
    """A child process that prints ``listening on HOST:PORT`` on stderr —
    for the benchmark, the real ``python -m repro.cli serve --listen``."""

    def __init__(
        self, command: Sequence[str], env: Dict[str, str],
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        self.command = list(command)
        self.env = env
        self.cpus = cpus
        self.process: Optional[subprocess.Popen] = None
        self.address: Optional[Tuple[str, int]] = None
        self.spawned_at = 0.0
        self.stderr_text = ""

    def start(self, timeout: float = 120.0) -> Tuple[str, int]:
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            self.command, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, bufsize=0,
        )
        if self.cpus:
            # Still single-threaded this early; later threads inherit.
            os.sched_setaffinity(self.process.pid, self.cpus)
        seen = b""
        deadline = time.monotonic() + timeout
        while b"\n" not in seen or b"listening on " not in seen:
            ready, _, _ = select.select(
                [self.process.stderr], [], [], max(0.0, deadline - time.monotonic())
            )
            chunk = os.read(self.process.stderr.fileno(), 4096) if ready else b""
            if not chunk:
                self.stop()
                raise RuntimeError(
                    "server did not start: " + (seen.decode(errors="replace")
                                                + self.stderr_text).strip()
                )
            seen += chunk
        banner = [l for l in seen.decode().splitlines() if "listening on " in l][0]
        host, _, port = banner.split("listening on ", 1)[1].split()[0].rpartition(":")
        self.address = (host, int(port))
        return self.address

    def move_to(self, cpus: Sequence[int]) -> None:
        """Re-pin every thread of the running server."""
        self.cpus = cpus
        for tid in os.listdir(f"/proc/{self.pid}/task"):
            os.sched_setaffinity(int(tid), cpus)

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def cpu_seconds(self) -> float:
        """utime + stime of the process and its reaped children."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return sum(int(fields[k]) for k in (11, 12, 13, 14)) / _CLK_TCK

    def rss_hwm_mb(self) -> float:
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """Ask for a graceful shutdown (flushes caches), wait, then insist."""
        process = self.process
        if process is None:
            return
        self.process = None
        try:
            if process.poll() is None and self.address is not None:
                try:
                    admin(self.address, "shutdown", timeout=5.0)
                except (OSError, ValueError):
                    process.terminate()
            try:
                _, err = process.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                process.kill()
                _, err = process.communicate()
            self.stderr_text = (err or b"").decode(errors="replace")
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


class Exchange:
    """A blocking client connection, one line out and one line back: the
    one-in-flight idle round trips and the admin operations.  Traffic goes
    through :class:`LoadGenerator`."""

    def __init__(self, address: Tuple[str, int], timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def __enter__(self) -> "Exchange":
        return self

    def __exit__(self, *exc_info) -> None:
        self.reader.close()
        self.sock.close()

    def ask(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        answer = self.reader.readline()
        if not answer.endswith(b"\n"):
            raise OSError("connection closed before the answer")
        return answer


def roundtrip(address: Tuple[str, int], line: bytes, timeout: float = 60.0) -> bytes:
    """Send one line on a fresh connection; return the answer line."""
    with Exchange(address, timeout) as wire:
        return wire.ask(line)


def admin(address: Tuple[str, int], op: str, timeout: float = 30.0) -> Dict:
    """One admin operation (``stats``, ``health``, ``shutdown``)."""
    return json.loads(roundtrip(address, json.dumps({"op": op}).encode() + b"\n",
                                timeout=timeout))


# ---------------------------------------------------------------------------
# The generator
# ---------------------------------------------------------------------------

@dataclass
class Sent:
    """One request as the generator saw it (times are ``perf_counter``)."""

    phase: str
    index: int            # corpus index (what was asked)
    number: int           # the wire "id"
    due: float
    sent: float
    received: float = math.nan
    answer: Optional[bytes] = None
    ok: bool = False      # set by verification, after the run

    @property
    def latency_ms(self) -> float:
        return (self.received - self.due) * 1e3


class _Connection(asyncio.Protocol):
    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.tail = b""
        self.sent: List[Sent] = []
        self.answered = 0
        self.on_answer = None
        self.lost = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.lost = True
        if self.on_answer is not None:
            self.on_answer(self)

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        lines = (self.tail + data).split(b"\n")
        self.tail = lines.pop()
        for line in lines:
            if self.answered < len(self.sent):
                record = self.sent[self.answered]
                record.received = now
                record.answer = line
            self.answered += 1
            if self.on_answer is not None:
                self.on_answer(self)

    def send(self, record: Sent, line: bytes) -> None:
        self.sent.append(record)
        self.transport.write(line)


@dataclass
class OpenReport:
    """How the open-loop phases went, from the generator's side.  Reports
    add up, so the blocks of one kind pool into one."""

    sent: int = 0
    scheduled_s: float = 0.0   # what the schedules asked for
    sending_s: float = 0.0     # what sending them took
    cpu_s: float = 0.0         # generator CPU while sending
    late_ms: List[float] = field(default_factory=list)

    def __add__(self, other: "OpenReport") -> "OpenReport":
        return OpenReport(
            self.sent + other.sent,
            self.scheduled_s + other.scheduled_s,
            self.sending_s + other.sending_s,
            self.cpu_s + other.cpu_s,
            self.late_ms + other.late_ms,
        )

    @property
    def achieved_over_offered(self) -> float:
        """Send rate achieved over send rate scheduled."""
        return self.scheduled_s / self.sending_s if self.sending_s else 0.0

    @property
    def cpu_share(self) -> float:
        return self.cpu_s / self.sending_s if self.sending_s else 0.0

    @property
    def late_p99_ms(self) -> float:
        """p99 of send time minus due time.  A guard on the instrument, not
        a reported latency, so the ten-samples-beyond rule does not apply:
        with under a thousand sends this is close to the worst one, which
        errs towards marking the run."""
        return float(np.percentile(self.late_ms, 99.0))


class LoadGenerator:
    """Drives one server over ``connections`` TCP connections.  Use as an
    async context manager; every request ever sent is in :attr:`log`."""

    def __init__(self, address: Tuple[str, int], connections: int = 2) -> None:
        self.address = address
        self.connections: List[_Connection] = []
        self._count = connections
        self.log: List[Sent] = []

    async def __aenter__(self) -> "LoadGenerator":
        loop = asyncio.get_running_loop()
        for _ in range(self._count):
            _, protocol = await loop.create_connection(_Connection, *self.address)
            sock = protocol.transport.get_extra_info("socket")
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connections.append(protocol)
        return self

    async def __aexit__(self, *exc_info) -> None:
        for connection in self.connections:
            connection.on_answer = None
            if connection.transport is not None:
                connection.transport.close()
        await asyncio.sleep(0)

    def _record(self, phase: str, index: int, due: float, sent: float) -> Sent:
        record = Sent(phase, index, len(self.log), due, sent)
        self.log.append(record)
        return record

    @staticmethod
    def framed(line: bytes, number: int) -> bytes:
        """``line`` (a JSON object, no newline) with the correlation id
        appended as its last key."""
        return line[:-1] + b', "id": %d}\n' % number

    async def closed(
        self, phase: str, indices: Sequence[int], lines: Sequence[bytes],
        in_flight: int = 16,
    ) -> float:
        """Send the list with ``in_flight`` outstanding per connection;
        returns the wall seconds from first send to last answer."""
        done = asyncio.get_running_loop().create_future()
        shares = [
            list(range(c, len(lines), len(self.connections)))
            for c in range(len(self.connections))
        ]
        cursors = [0] * len(shares)
        remaining = len(lines)

        def send_next(c: int) -> None:
            k = shares[c][cursors[c]]
            cursors[c] += 1
            now = time.perf_counter()
            record = self._record(phase, indices[k], now, now)
            self.connections[c].send(record, self.framed(lines[k], record.number))

        def on_answer(connection: _Connection) -> None:
            nonlocal remaining
            if done.done():
                return
            if connection.lost:
                done.set_exception(OSError("connection lost mid-pass"))
                return
            remaining -= 1
            c = self.connections.index(connection)
            if cursors[c] < len(shares[c]):
                send_next(c)
            elif remaining == 0:
                done.set_result(None)

        for connection in self.connections:
            connection.on_answer = on_answer
        started = time.perf_counter()
        try:
            for c in range(len(shares)):
                for _ in range(min(in_flight, len(shares[c]))):
                    send_next(c)
            await done
        finally:
            for connection in self.connections:
                connection.on_answer = None
        return time.perf_counter() - started

    async def open(
        self, phase: str, indices: Sequence[int], lines: Sequence[bytes],
        due: Sequence[float],
    ) -> OpenReport:
        """Send request ``k`` at ``due[k]`` seconds from the phase start,
        whatever is outstanding; wait for the stragglers afterwards.
        Requests due at the same instant (a burst) leave in one write per
        connection, back to back on the wire."""
        first = len(self.log)
        framed = [self.framed(line, first + k) for k, line in enumerate(lines)]
        width = len(self.connections)
        cpu_started = time.process_time()
        started = time.perf_counter() + 0.02
        streak = k = 0
        while k < len(framed):
            due_at = started + due[k]
            remaining = due_at - time.perf_counter()
            if remaining <= 0:
                streak += 1
                if streak >= YIELD_EVERY:
                    streak = 0
                    await asyncio.sleep(0)
            else:
                streak = 0
                while remaining > 0:
                    await asyncio.sleep(max(0.0, remaining - SPIN_S))
                    remaining = due_at - time.perf_counter()
            end = k + 1
            while end < len(framed) and due[end] == due[k]:
                end += 1
            now = time.perf_counter()
            records = [  # numbered in stream order, like the frames
                self._record(phase, indices[j], due_at, now) for j in range(k, end)
            ]
            for c, connection in enumerate(self.connections):
                share = range((c - k) % width, end - k, width)
                if share:
                    connection.sent.extend(records[j] for j in share)
                    connection.transport.write(
                        b"".join(framed[k + j] for j in share)
                    )
            k = end
        last_send = time.perf_counter()
        cpu_s = time.process_time() - cpu_started
        deadline = last_send + DRAIN_TIMEOUT_S
        while time.perf_counter() < deadline and any(
            c.answered < len(c.sent) and not c.lost for c in self.connections
        ):
            await asyncio.sleep(0.002)
        records = self.log[first:]
        return OpenReport(
            sent=len(records),
            scheduled_s=float(due[-1]),
            sending_s=last_send - started,
            cpu_s=cpu_s,
            late_ms=[(r.sent - r.due) * 1e3 for r in records],
        )


def server_environment(src_dir: Path) -> Dict[str, str]:
    """The child's environment: the repo's sources importable, and BLAS
    pinned to one thread — on two cores a second BLAS thread fights the
    generator for its core and roughly doubles server CPU per table."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def serve_command(bundle: Path, flags: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", "serve", str(bundle),
            "--listen", "127.0.0.1:0", *flags]
