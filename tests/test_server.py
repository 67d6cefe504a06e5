"""The asyncio socket server (repro.serving.server) and its CLI face.

The acceptance surface:

* a live TCP server serves **concurrent** clients over every admitted
  route (none, the model's name, its fingerprint) with answers
  byte-identical to direct ``engine.annotate`` output, in per-connection
  FIFO order;
* the admin plane works against the live server: ``health``/``stats``
  introspection and ``{"op": "shutdown"}`` draining the server
  gracefully, while ``register``/``repoint``/``unregister`` are refused
  with an error answer;
* errors (broken JSON, zero-column tables, routes naming other weights)
  are answers on the offending connection, never a dead server;
* `repro serve --listen` wires the same thing up end-to-end, and
  `repro stats` reads it back.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import EngineGate
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Doduo, DoduoConfig, DoduoTrainer, save_annotator
from repro.datasets import generate_wikitable_dataset
from repro.datasets.tables import Column, Table
from repro.encoding.cache import table_fingerprint
from repro.io import table_to_dict
from repro.nn import TransformerConfig
from repro.serving import (
    MODEL_NAME,
    AnnotationEngine,
    AnnotationOptions,
    AnnotationRequest,
    EngineWorker,
    FabricCache,
    QueueConfig,
    protocol,
)
from repro.serving.diskcache import encode_annotation, request_identity
from repro.serving.server import AnnotationServer, ServerThread
from repro.text import train_wordpiece


def _make_trainer(seed: int) -> DoduoTrainer:
    dataset = generate_wikitable_dataset(num_tables=14, seed=seed, max_rows=3)
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=500)
    encoder_config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_position=160,
        num_segments=8,
        dropout=0.0,
    )
    config = DoduoConfig(epochs=1, batch_size=4, keep_best_checkpoint=False)
    trainer = DoduoTrainer(dataset, tokenizer, encoder_config, config)
    trainer.train()
    return trainer


@pytest.fixture(scope="module")
def trainer_a():
    return _make_trainer(61)


@pytest.fixture(scope="module")
def trainer_b():
    return _make_trainer(73)


@pytest.fixture(scope="module")
def bundles(trainer_a, trainer_b, tmp_path_factory):
    root = tmp_path_factory.mktemp("server-bundles")
    save_annotator(Doduo(trainer_a), root / "a")
    save_annotator(Doduo(trainer_b), root / "b")
    return {"a": root / "a", "b": root / "b"}


def _expected(trainer, table, options=None, with_embeddings=False):
    """The direct single-engine answer, JSON-round-tripped like the wire."""
    from repro.serving import AnnotationRequest

    engine = AnnotationEngine(trainer)
    if options is None:
        result = engine.annotate(table)
    else:
        request = AnnotationRequest(table=table, options=options)
        result = engine.annotate_batch([request])[0]
    return json.loads(json.dumps(result.to_dict(with_embeddings=with_embeddings)))


class Client:
    """A minimal newline-delimited JSON protocol client."""

    def __init__(self, address, timeout=60.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.stream = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, record) -> None:
        if isinstance(record, str):
            self.stream.write(record if record.endswith("\n") else record + "\n")
        else:
            self.stream.write(json.dumps(record) + "\n")
        self.stream.flush()

    def recv_line(self) -> str:
        line = self.stream.readline()
        assert line, "server closed the connection unexpectedly"
        return line

    def recv(self):
        return json.loads(self.recv_line())

    def ask(self, record):
        self.send(record)
        return self.recv()

    def ask_line(self, table, record_id=None) -> str:
        """Send one table; the answer as the line it came as."""
        self.send(_routed_record(table, record_id=record_id))
        return self.recv_line()

    def close(self) -> None:
        self.stream.close()
        self.sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _routed_record(table, model=None, record_id=None):
    record = table_to_dict(table)
    if model is not None:
        record["model"] = model
    if record_id is not None:
        record["id"] = record_id
    return record


def _worker(trainer_a):
    return EngineWorker(AnnotationEngine(trainer_a))


@pytest.mark.smoke
class TestSocketServing:
    def test_single_client_routes_byte_identical(self, trainer_a):
        tables = trainer_a.dataset.tables[:4]
        worker = _worker(trainer_a)
        fingerprint = trainer_a.annotation_fingerprint()
        with worker, ServerThread(worker) as address, Client(address) as client:
            for i, table in enumerate(tables):
                client.send(_routed_record(table, model="default", record_id=2 * i))
                client.send(_routed_record(table, model=fingerprint,
                                           record_id=2 * i + 1))
            answers = [client.recv() for _ in range(2 * len(tables))]
        # Per-connection FIFO: ids come back in submission order.
        assert [a["id"] for a in answers] == list(range(2 * len(tables)))
        for i, table in enumerate(tables):
            want = _expected(trainer_a, table)
            by_name, by_fingerprint = dict(answers[2 * i]), dict(answers[2 * i + 1])
            assert by_name.pop("id") == 2 * i
            assert by_fingerprint.pop("id") == 2 * i + 1
            assert by_name == want
            assert by_fingerprint == want

    def test_concurrent_clients_interleaved_routing(self, trainer_a):
        """The acceptance bar: >= 2 concurrent clients, interleaved
        admitted routes, every answer byte-identical and in FIFO order per
        connection."""
        tables = trainer_a.dataset.tables[:4]
        worker = _worker(trainer_a)
        fingerprint = trainer_a.annotation_fingerprint()
        outcomes = {}

        def run_client(client_index, address):
            routes = [None, "default", fingerprint][client_index:] + [None, "default"]
            with Client(address) as client:
                sent = []
                for i, table in enumerate(tables):
                    route = routes[i % 2]
                    record_id = f"c{client_index}-{i}"
                    client.send(_routed_record(table, model=route, record_id=record_id))
                    sent.append((record_id, route, table))
                answers = [client.recv() for _ in sent]
            outcomes[client_index] = (sent, answers)

        with worker, ServerThread(worker) as address:
            threads = [
                threading.Thread(target=run_client, args=(i, address))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(outcomes) == 3
        for client_index, (sent, answers) in outcomes.items():
            assert [a["id"] for a in answers] == [rid for rid, _, _ in sent]
            for (record_id, route, table), answer in zip(sent, answers):
                got = dict(answer)
                got.pop("id")
                assert got == _expected(trainer_a, table), (
                    f"client {client_index} record {record_id} diverged"
                )

    def test_errors_are_answers_and_connection_survives(self, trainer_a, trainer_b):
        worker = EngineWorker(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[0]
        with worker, ServerThread(worker) as address, Client(address) as client:
            assert "error" in client.ask("this is not json")
            bad_table = client.ask({"kind": "table", "table_id": "e",
                                    "columns": [], "id": 1})
            assert "no columns" in bad_table["error"]
            assert bad_table["id"] == 1
            assert client.ask(_routed_record(table))["columns"]
            passes = worker.engine.stats.encoder_passes
            # A route naming neither the model nor its fingerprint — another
            # model's fingerprint included — is refused, at no encoder cost,
            # even though these weights have the table stored.
            for record_id, route in enumerate(
                ("nope", trainer_b.annotation_fingerprint()), start=2
            ):
                unknown = client.ask(_routed_record(table, model=route,
                                                    record_id=record_id))
                assert "no model registered" in unknown["error"]
                assert unknown["table_id"] == table.table_id
                assert unknown["id"] == record_id
            assert worker.engine.stats.encoder_passes == passes
            good = client.ask(_routed_record(table))
            assert good["columns"]  # still serving after four bad records

    def test_embeddings_toggle(self, trainer_a):
        worker = EngineWorker(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[0]
        with worker, ServerThread(worker, with_embeddings=True) as address:
            with Client(address) as client:
                answer = client.ask(table_to_dict(table))
        assert answer == _expected(trainer_a, table, with_embeddings=True)
        assert "embedding" in answer["columns"][0]

    def test_options_apply_server_side(self, trainer_a):
        worker = EngineWorker(AnnotationEngine(trainer_a))
        options = AnnotationOptions(top_k=1)
        table = trainer_a.dataset.tables[0]
        with worker, ServerThread(worker, options) as address:
            with Client(address) as client:
                answer = client.ask(table_to_dict(table))
        assert answer == _expected(trainer_a, table, options=options)
        assert all(len(c["type_scores"]) == 1 for c in answer["columns"])


@pytest.mark.smoke
class TestServerThreadPort:
    def test_port_property_reports_ephemeral_bind(self, trainer_a):
        worker = _worker(trainer_a)
        server = ServerThread(worker)  # port=0: ephemeral
        with pytest.raises(RuntimeError):
            server.port  # not started yet
        with worker:
            host, port = server.start()
            try:
                assert server.port == port > 0
                # The reported port is genuinely reachable.
                with Client((host, server.port)) as client:
                    answer = client.ask({"op": "health"})
                    assert answer["ok"]
            finally:
                server.stop()


class TestAdminPlaneLive:
    def test_health_stats_register_repoint_unregister(self, trainer_a, bundles):
        """Introspection answers; the ops that once loaded, swapped or
        dropped weights are error answers, and the connection keeps
        serving the one model."""
        worker = _worker(trainer_a)
        table = trainer_a.dataset.tables[0]
        with worker, ServerThread(worker) as address, Client(address) as client:
            health = client.ask({"op": "health", "id": "h1"})
            # Live before any table arrived: the model loads at startup.
            assert health["ok"] and health["models"] == ["default"]
            assert health["live"] == ["default"] and health["default"] == "default"
            assert health["id"] == "h1"
            assert dict(client.ask(_routed_record(table))) == _expected(
                trainer_a, table
            )

            for op in ("register", "repoint", "unregister"):
                refused = client.ask({"op": op, "name": "default",
                                      "path": str(bundles["b"]), "id": op})
                assert "unknown admin op" in refused["error"]
                assert refused["id"] == op
                assert dict(client.ask(_routed_record(table, model="default"))) == (
                    _expected(trainer_a, table)
                )

            stats = client.ask({"op": "stats"})
            assert stats["ok"] is True
            assert stats["registry"]["loads"] == 0  # in-memory: never loaded
            for zeroed in ("reloads", "evictions", "repoints"):
                assert stats["registry"][zeroed] == 0
            assert list(stats["gateway"]["models"]) == ["default"]
            assert stats["gateway"]["completed"] == 4

    def test_admin_disabled_server_refuses_ops(self, trainer_a):
        worker = EngineWorker(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[0]
        with worker, ServerThread(worker, admin=False) as address:
            with Client(address) as client:
                refused = client.ask({"op": "stats"})
                assert "not allowed" in refused["error"]
                assert client.ask(table_to_dict(table))["columns"]

    def test_stats_answer_carries_the_server_section(self, trainer_a):
        """Same key and fields as the pool's merged answer, so one reader
        serves both: ``ServerStats.to_dict()`` under ``"server"``."""
        worker = EngineWorker(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[0]
        with worker, ServerThread(worker) as address, Client(address) as client:
            assert client.ask(table_to_dict(table))["columns"]
            assert "error" in client.ask({"columns": "not a table"})
            stats = client.ask({"op": "stats", "id": "s"})
        assert stats["id"] == "s"
        assert set(stats["server"]) == {
            "connections", "requests", "admin_ops", "errors", "ready", "answered",
        }
        server = stats["server"]
        assert server["connections"] == 1
        assert server["requests"] == 1  # accepted table records
        assert server["errors"] == 1    # the malformed line's answer
        assert server["admin_ops"] == 1  # this very op, counted at accept
        assert server["answered"] == 2  # written before the stats answer is

    def test_shutdown_op_drains_and_stops(self, trainer_a):
        worker = EngineWorker(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[0]
        server = ServerThread(worker)
        with worker:
            address = server.start()
            with Client(address) as client:
                assert client.ask(table_to_dict(table))["columns"]
                assert client.ask({"op": "shutdown"}) == {
                    "ok": True, "op": "shutdown",
                }
            server.stop()  # joins the already-stopping thread
            with pytest.raises(OSError):
                socket.create_connection(address, timeout=0.5)


@pytest.mark.smoke
class TestCliListen:
    @staticmethod
    def _best_effort_shutdown(address):
        """Ask the server to stop; swallow errors (it may be down already)."""
        try:
            with Client(address, timeout=5.0) as client:
                client.ask({"op": "shutdown"})
        except OSError:
            pass

    def _start_cli(self, argv, monkeypatch):
        """Run `repro serve --listen ...` on a thread; return (thread,
        result holder, bound address) once the listener is up."""
        import io

        from repro.cli import main

        stderr = io.StringIO()
        monkeypatch.setattr("sys.stderr", stderr)
        outcome = {}

        def run():
            outcome["code"] = main(argv)

        # Daemon: a failing assertion must not leave a live server thread
        # blocking interpreter exit.
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.time() + 60
        address = None
        while time.time() < deadline:
            text = stderr.getvalue()
            if "listening on " in text:
                host, _, port = (
                    text.split("listening on ", 1)[1].split("\n", 1)[0]
                    .strip().rpartition(":")
                )
                address = (host, int(port))
                break
            if not thread.is_alive():
                break
            time.sleep(0.02)
        assert address is not None, f"server never came up: {stderr.getvalue()}"
        return thread, outcome, address, stderr

    def test_listen_end_to_end(self, bundles, trainer_a, monkeypatch):
        """`repro serve BUNDLE --listen` — a fingerprint route answered as
        the very first request, concurrent clients over the admitted
        routes, a refused model mutation, graceful client-initiated
        shutdown."""
        thread, outcome, address, stderr = self._start_cli(
            ["serve", str(bundles["a"]), "--listen", "127.0.0.1:0"],
            monkeypatch,
        )
        # `repro serve` answers with the CLI's default options
        # (embeddings off on the wire AND in the request).
        cli_options = AnnotationOptions(with_embeddings=False, top_k=3)
        try:
            tables = trainer_a.dataset.tables[:3]
            routes = ["default", trainer_a.annotation_fingerprint()]
            # The bundle loaded before `listening on`: the first request
            # the server ever sees may name the weights by fingerprint.
            with Client(address) as first:
                answer = dict(first.ask(_routed_record(
                    tables[0], model=routes[1], record_id="first")))
            assert answer.pop("id") == "first"
            assert answer == _expected(trainer_a, tables[0], options=cli_options)
            outcomes = {}

            def run_client(index):
                with Client(address) as client:
                    outcomes[index] = [
                        (table, client.ask(_routed_record(
                            table, model=routes[index], record_id=i)))
                        for i, table in enumerate(tables)
                    ]

            clients = [
                threading.Thread(target=run_client, args=(i,)) for i in range(2)
            ]
            for c in clients:
                c.start()
            for c in clients:
                c.join()
            assert len(outcomes) == 2
            for answers in outcomes.values():
                for expected_id, (table, answer) in enumerate(answers):
                    got = dict(answer)
                    assert got.pop("id") == expected_id
                    assert got == _expected(trainer_a, table,
                                            options=cli_options)

            with Client(address) as admin:
                refused = admin.ask({"op": "register", "name": "extra",
                                     "path": str(bundles["b"])})
                assert "unknown admin op" in refused["error"]
                routed = admin.ask(_routed_record(tables[0], model="extra"))
                assert "no model registered" in routed["error"]
                assert admin.ask({"op": "shutdown"})["ok"] is True
        finally:
            self._best_effort_shutdown(address)
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert outcome["code"] == 0
        assert "served" in stderr.getvalue()

    def test_repro_stats_client(self, bundles, trainer_a, monkeypatch, capsys):
        from repro.cli import main

        thread, outcome, address, _ = self._start_cli(
            ["serve", str(bundles["a"]), "--listen", "127.0.0.1:0"],
            monkeypatch,
        )
        try:
            with Client(address) as client:
                # Loaded at startup: live before any table arrives.
                health = client.ask({"op": "health"})
                assert health["live"] == health["models"] == ["default"]
                assert client.ask(table_to_dict(trainer_a.dataset.tables[0]))[
                    "columns"
                ]
            assert main(["stats", f"{address[0]}:{address[1]}"]) == 0
            printed = json.loads(capsys.readouterr().out)
            assert printed["ok"] is True
            assert printed["gateway"]["completed"] == 1
            assert printed["registry"]["registered"] == 1
            assert printed["registry"]["loads"] == 1
            with Client(address) as client:
                assert client.ask({"op": "shutdown"})["ok"] is True
        finally:
            self._best_effort_shutdown(address)
            thread.join(timeout=60)
        assert outcome["code"] == 0

    def test_stats_non_json_answer_errors_cleanly(self, capsys):
        """`repro stats` against something that is not a protocol server
        (or a server torn mid-write) exits 1, not with a traceback."""
        from repro.cli import main

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]

        def garbage_server():
            conn, _ = listener.accept()
            conn.recv(4096)
            conn.sendall(b"HTTP/1.1 400 Bad Request\r\n")
            conn.close()

        thread = threading.Thread(target=garbage_server, daemon=True)
        thread.start()
        try:
            assert main(["stats", f"{host}:{port}"]) == 1
            assert "non-JSON" in capsys.readouterr().err
        finally:
            listener.close()
            thread.join(timeout=10)

    def test_stats_unreachable_address_errors(self, capsys):
        from repro.cli import main

        # A port from the ephemeral range with (almost certainly) no
        # listener; connection is refused immediately.
        assert main(["stats", "127.0.0.1:1", "--timeout", "2"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_listen_rejects_corpus_argument(self, bundles, capsys):
        from repro.cli import main

        code = main([
            "serve", str(bundles["a"]), "corpus.jsonl",
            "--listen", "127.0.0.1:0",
        ])
        assert code == 1
        assert "drop the corpus" in capsys.readouterr().err

    def test_bad_listen_spec_errors(self, bundles, capsys):
        from repro.cli import main

        assert main(["serve", str(bundles["a"]), "--listen", "nope"]) == 1
        assert "HOST:PORT" in capsys.readouterr().err


@pytest.mark.smoke
class TestGracefulStop:
    def test_stop_drains_accepted_requests(self, trainer_a):
        """Requests accepted before stop() still get their answers."""
        import asyncio

        engine = AnnotationEngine(trainer_a)
        gate = EngineGate(engine)  # nothing is answered before stop() begins
        worker = EngineWorker(engine, QueueConfig(max_batch=4))
        tables = trainer_a.dataset.tables[:4]

        async def run():
            server = AnnotationServer(worker)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            for i, table in enumerate(tables):
                writer.write(
                    (json.dumps(_routed_record(table, record_id=i)) + "\n")
                    .encode()
                )
            await writer.drain()
            # Let the reader ACCEPT the records, then stop while every
            # annotation is provably still in flight (the gate is shut).
            while server.stats.requests < len(tables):
                await asyncio.sleep(0.005)
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0)  # stop() is under way
            gate.open()
            await stopping
            lines = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                lines.append(json.loads(line))
            writer.close()
            return lines

        with worker:
            answers = asyncio.run(run())
        assert [a["id"] for a in answers] == list(range(len(tables)))
        for table, answer in zip(tables, answers):
            got = dict(answer)
            got.pop("id")
            assert got == _expected(trainer_a, table)

    def test_stop_returns_with_an_idle_open_client(self, trainer_a):
        """stop() must not wait on clients that are merely connected.
        (Regression: Python >= 3.12.1 makes Server.wait_closed() wait for
        every connection handler, so awaiting it before cancelling the
        readers deadlocks on any open connection.)"""
        import asyncio

        worker = EngineWorker(AnnotationEngine(trainer_a))

        async def run():
            server = AnnotationServer(worker, shutdown_grace=2.0)
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            await asyncio.sleep(0.05)   # connected, idle, sends nothing
            await asyncio.wait_for(server.stop(), timeout=10)
            writer.close()
            # A stopped server cannot silently "restart" unbound.
            with pytest.raises(RuntimeError, match="stopped"):
                await server.start()

        with worker:
            asyncio.run(run())

    def test_stop_does_not_hang_on_a_stalled_client(self, trainer_a):
        """A client that pipelines requests and never reads its socket
        fills its TCP buffer; stop() must abort it after shutdown_grace
        instead of hanging on the blocked drain() forever."""
        worker = EngineWorker(AnnotationEngine(trainer_a))
        tables = trainer_a.dataset.tables[:2]
        server = ServerThread(worker, with_embeddings=True, shutdown_grace=0.5)
        with worker:
            host, port = server.start()
            # A tiny receive buffer + a flood of duplicate records (cheap
            # to answer: dedup + ~4 KB embedding payloads, ~6 MB total)
            # overflows kernel TCP autotuning (tcp_wmem max 4 MB) and the
            # transport's high-water mark, so drain() genuinely blocks.
            stalled = socket.socket()
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 2048)
            stalled.connect((host, port))
            stalled.settimeout(30)
            payload = b"".join(
                (json.dumps(_routed_record(t)) + "\n").encode()
                for t in tables for _ in range(750)
            )
            try:
                stalled.sendall(payload)
            except socket.timeout:
                pass  # every buffer is full — exactly the stall we want
            # Wait until answers are flowing, then stop without reading.
            deadline = time.time() + 30
            while server.server.stats.answered == 0 and time.time() < deadline:
                time.sleep(0.01)
            start = time.time()
            server.stop()
            elapsed = time.time() - start
            stalled.close()
        assert elapsed < 15, f"stop() took {elapsed:.1f}s against a stalled client"

    def test_result_embeddings_identical_over_wire(self, trainer_a):
        """Embedding floats survive the socket JSON round trip with the
        same 6-digit rendering the corpus serving mode writes."""
        worker = EngineWorker(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[1]
        with worker, ServerThread(worker, with_embeddings=True) as address:
            with Client(address) as client:
                answer = client.ask(table_to_dict(table))
        direct = AnnotationEngine(trainer_a).annotate(table)
        want = [
            [round(float(v), 6) for v in direct.colemb[c]]
            for c in range(direct.colemb.shape[0])
        ]
        got = [c["embedding"] for c in answer["columns"]]
        assert np.array_equal(np.asarray(got), np.asarray(want))


# ---------------------------------------------------------------------------
# Stored results answered where the frame is decoded
# ---------------------------------------------------------------------------
#
# A table record on an admitted route, over an engine with a result store,
# is hashed, probed and — on a hit — rendered and queued by the connection's reader:
# no task, no future, no worker wake.  Everything below drives that through
# the real socket.

#: What `repro serve` runs with by default; the loop-side path engages only
#: for requests that ask for no embeddings.
STORE_OPTIONS = AnnotationOptions(with_embeddings=False, top_k=3)


def _variant(table, tag):
    """``table`` with other content (a never-seen request) and name."""
    columns = [
        Column(values=[f"{value} {tag}" for value in column.values],
               header=column.header)
        for column in table.columns
    ]
    return Table(columns=columns, table_id=f"{table.table_id}/{tag}")


_REFERENCE_LINES = {}


def _reference_line(trainer, table, record_id=None, options=STORE_OPTIONS) -> str:
    """The wire line of the computing path for ``table`` (a store-less
    engine, ``encode_result``, ``encode_line``) — what any tier must send."""
    key = (id(trainer), table_fingerprint(table), table.table_id,
           tuple(c.header for c in table.columns), json.dumps(record_id), options)
    if key not in _REFERENCE_LINES:
        request = AnnotationRequest(table=table, options=options)
        result = AnnotationEngine(trainer).annotate_batch([request])[0]
        _REFERENCE_LINES[key] = protocol.encode_line(
            protocol.encode_result(result, record_id=record_id)
        )
    return _REFERENCE_LINES[key]


def _stored_entry(trainer, table, options=STORE_OPTIONS):
    """``(key, payload)`` under which a serving engine stores ``table``."""
    engine = AnnotationEngine(trainer)
    request = AnnotationRequest(table=table, options=options)
    result = engine.annotate_batch([request])[0]
    key = request_identity(engine.model_fingerprint, request).cache_key
    return key, encode_annotation(result)


@pytest.fixture()
def stored(trainer_a, tmp_path):
    """A one-model server over an engine with a result store attached; the
    (open) gate only records which requests reached the worker thread."""
    store = FabricCache(tmp_path / "store", refresh_interval=0.0)
    engine = AnnotationEngine(trainer_a, result_cache=store)
    gate = EngineGate(engine)
    gate.open()
    worker = EngineWorker(engine, QueueConfig(max_batch=4))
    thread = ServerThread(worker, STORE_OPTIONS)
    with worker:
        address = thread.start()
        try:
            with Client(address) as client:
                yield SimpleNamespace(
                    client=client, engine=engine, gate=gate, store=store,
                    worker=worker, address=address, directory=store.directory,
                )
        finally:
            thread.stop()
    store.close()


@pytest.mark.smoke
class TestStoredHits:
    def test_a_hit_is_the_computed_line_and_never_reaches_the_worker(
        self, stored, trainer_a
    ):
        table = trainer_a.dataset.tables[1]
        assert stored.client.ask_line(table, 1) == _reference_line(trainer_a, table, 1)
        assert stored.gate.drains == [[table.table_id]]  # the miss
        for record_id in (2, "again", None):
            assert stored.client.ask_line(table, record_id) == _reference_line(
                trainer_a, table, record_id
            )
        assert stored.gate.drains == [[table.table_id]]  # ...and nothing since

    def test_equal_content_under_another_name_gets_its_own_name_back(
        self, stored, trainer_a
    ):
        table = trainer_a.dataset.tables[2]
        twin = Table(columns=table.columns, table_id="the-twin")
        stored.client.ask_line(table)
        answer = stored.client.ask_line(twin, 9)
        assert answer == _reference_line(trainer_a, twin, 9)
        assert json.loads(answer)["table_id"] == "the-twin"
        assert len(stored.gate.drains) == 1  # the twin was a loop-side hit

    def test_missing_and_empty_headers_share_a_key_not_an_answer(
        self, stored, trainer_a
    ):
        """``table_fingerprint`` hashes ``header or ""``: one stored entry
        serves both, and each asker reads its own header back."""
        base = trainer_a.dataset.tables[3]
        bare = Table(
            columns=[Column(values=c.values, header=None) for c in base.columns],
            table_id="bare",
        )
        empty = Table(
            columns=[Column(values=c.values, header="") for c in base.columns],
            table_id="empty",
        )
        assert table_fingerprint(bare) == table_fingerprint(empty)
        first = json.loads(stored.client.ask_line(bare))
        second = stored.client.ask_line(empty)
        assert len(stored.gate.drains) == 1
        assert second == _reference_line(trainer_a, empty)
        assert [c["header"] for c in first["columns"]] == [None] * base.num_columns
        assert [c["header"] for c in json.loads(second)["columns"]] == (
            [""] * base.num_columns
        )

    def test_embedding_requests_take_the_decoded_path(self, trainer_a, tmp_path):
        """Their payloads carry vectors, which only the decoded path renders."""
        options = AnnotationOptions(with_embeddings=True, top_k=3)
        store = FabricCache(tmp_path / "store", refresh_interval=0.0)
        engine = AnnotationEngine(trainer_a, result_cache=store)
        gate = EngineGate(engine)
        gate.open()
        worker = EngineWorker(engine)
        table = trainer_a.dataset.tables[1]
        with worker, ServerThread(worker, options) as address:
            with Client(address) as client:
                first = client.ask_line(table)
                second = client.ask_line(table)
        store.close()
        assert first == second == _reference_line(trainer_a, table, options=options)
        assert "embedding_dim" in json.loads(second)
        assert len(gate.drains) == 2  # the hit went through the worker
        assert (engine.stats.disk_hits, store.stats.hits) == (1, 1)


@pytest.mark.smoke
class TestStoredHitCounts:
    """Call-count pins through the socket (see ``TestHashOnce`` for the
    in-process ones): what a hit and a miss are allowed to cost."""

    @pytest.fixture()
    def decodes(self, monkeypatch):
        from repro.serving import engine as engine_module

        calls = []
        inner = engine_module.decode_annotation

        def counting(request, payload):
            calls.append(request.table.table_id)
            return inner(request, payload)

        monkeypatch.setattr(engine_module, "decode_annotation", counting)
        return calls

    def test_a_hit_is_one_walk_no_object_graph_no_drain(
        self, stored, trainer_a, walks, decodes
    ):
        table = trainer_a.dataset.tables[1]
        stored.client.ask_line(table)
        del walks[:], stored.gate.drains[:]
        stored.client.ask_line(table, 5)
        assert len(walks) == 1
        assert decodes == []
        assert stored.gate.drains == []

    def test_a_miss_is_walked_once_and_counted_once(
        self, stored, trainer_a, walks, decodes
    ):
        table = trainer_a.dataset.tables[1]
        # Serialize it beforehand (store detached, so nothing is stored):
        # what is left of a miss is the hashing.
        store, stored.engine.result_cache = stored.engine.result_cache, None
        stored.engine.annotate(table)
        stored.engine.result_cache = store
        want = _reference_line(trainer_a, table)
        del walks[:], stored.gate.drains[:]
        misses = (stored.engine.stats.disk_misses, store.stats.misses)
        assert stored.client.ask_line(table) == want
        # The reader's hash rode into submit and on into the engine.
        assert len(walks) == 1
        assert stored.gate.drains == [[table.table_id]]
        assert (stored.engine.stats.disk_misses, store.stats.misses) == (
            misses[0] + 1, misses[1] + 1
        )
        assert decodes == []

    def test_a_siblings_entry_goes_through_the_worker_once(
        self, stored, trainer_a, decodes
    ):
        """The loop never scans: the worker's refresh finds the entry, and
        from then on it is in this handle's index."""
        table = trainer_a.dataset.tables[4]
        key, payload = _stored_entry(trainer_a, table)
        with FabricCache(stored.directory, writer="sibling") as sibling:
            sibling.put(key, payload)
        assert stored.client.ask_line(table, 1) == _reference_line(trainer_a, table, 1)
        assert (stored.gate.drains, decodes) == ([[table.table_id]], [table.table_id])
        assert stored.client.ask_line(table, 2) == _reference_line(trainer_a, table, 2)
        assert (stored.gate.drains, decodes) == ([[table.table_id]], [table.table_id])
        assert stored.engine.stats.encoder_passes == 0

    def test_the_loop_never_scans_the_directory(self, stored, trainer_a, monkeypatch):
        scans = []
        for name in ("refresh", "_segments_by_writer"):
            inner = getattr(FabricCache, name)

            def spy(self, *args, _inner=inner, **kwargs):
                scans.append(threading.current_thread().name)
                return _inner(self, *args, **kwargs)

            monkeypatch.setattr(FabricCache, name, spy)
        tables = trainer_a.dataset.tables[1:6]
        for table in tables:  # misses: each refreshes
            stored.client.ask_line(table)
        for table in tables:  # hits
            stored.client.ask_line(table)
        stored.client.ask_line(_variant(tables[0], "unseen"))
        assert scans and set(scans) == {"annotation-worker"}

    def test_every_counter_a_hit_moved_still_moves_once(self, stored, trainer_a):
        before = stored.client.ask({"op": "stats"})
        tables = trainer_a.dataset.tables[1:5]
        for table in tables:
            stored.client.ask_line(table)  # 4 misses
        for _ in range(3):
            for table in tables:
                stored.client.ask_line(table)  # 12 hits
        after = stored.client.ask({"op": "stats"})

        def moved(*path):
            a, b = after, before
            for key in path:
                a, b = a[key], b[key]
            return a - b

        name = MODEL_NAME
        assert moved("server", "requests") == 16
        assert moved("server", "ready") == 16 + 1  # + the first stats answer
        assert moved("server", "answered") == 16 + 1
        assert moved("gateway", "submitted") == 16
        assert moved("gateway", "completed") == 16
        assert moved("gateway", "batches") == 4  # hits are not drains
        assert moved("gateway", "engines", name, "requests") == 16
        assert moved("gateway", "disk_hits") == 12
        assert moved("gateway", "disk_misses") == 4
        assert moved("gateway", "disk_tiers", name, "hits") == 12
        assert moved("gateway", "disk_tiers", name, "misses") == 4
        # The misses; a stored hit never reaches the queue.
        assert moved("registry", "routed") == 4
        assert after["gateway"]["failed"] == after["server"]["errors"] == 0

    def test_counters_stay_consistent_under_concurrent_hits_and_misses(
        self, stored, trainer_a
    ):
        """More client threads than cores, a shortened switch interval, and
        a poller: no snapshot may show an answer before its submission, and
        no increment may be lost between the loop and the worker thread."""
        import sys

        hot = trainer_a.dataset.tables[1:4]
        for table in hot:
            stored.client.ask_line(table)
        clients, per_client = 4, 30
        # Planned and answered by the reference path up front: the trainer
        # behind it is the serving worker's too, and is not to be shared.
        plans = [
            [
                _variant(hot[0], f"c{slot}-{n}") if n % 3 == 2  # a miss
                else hot[(slot + n) % len(hot)]
                for n in range(per_client)
            ]
            for slot in range(clients)
        ]
        wanted = [
            [_reference_line(trainer_a, table, n) for n, table in enumerate(plan)]
            for plan in plans
        ]
        worker = stored.worker
        base = worker.stats_snapshot()
        engine_base = stored.engine.stats.copy()
        store_base = stored.store.stats.copy()
        violations, stop = [], threading.Event()

        def poll():
            last = base
            while not stop.is_set():
                snap = worker.stats_snapshot()
                if snap.completed + snap.failed > snap.submitted:
                    violations.append(("ahead", snap))
                if snap.submitted < last.submitted or snap.completed < last.completed:
                    violations.append(("backwards", snap))
                last = snap

        def drive(slot):
            with Client(stored.address) as client:
                for n, table in enumerate(plans[slot]):
                    if client.ask_line(table, n) != wanted[slot][n]:
                        violations.append(("bytes", slot, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            poller = threading.Thread(target=poll)
            drivers = [
                threading.Thread(target=drive, args=(slot,))
                for slot in range(clients)
            ]
            poller.start()
            for thread in drivers:
                thread.start()
            for thread in drivers:
                thread.join(timeout=120)
            stop.set()
            poller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not poller.is_alive() and not any(t.is_alive() for t in drivers)
        assert violations == []
        total, misses = clients * per_client, clients * (per_client // 3)
        final = worker.stats_snapshot()
        assert final.submitted - base.submitted == total
        assert final.completed - base.completed == total
        assert final.failed == base.failed
        engine_stats = stored.engine.stats
        assert engine_stats.requests - engine_base.requests == total
        assert engine_stats.disk_hits - engine_base.disk_hits == total - misses
        assert engine_stats.disk_misses - engine_base.disk_misses == misses
        assert stored.store.stats.hits - store_base.hits == total - misses
        assert stored.store.stats.misses - store_base.misses == misses


class _RecordingWriter:
    """The slice of ``StreamWriter`` ``_write_answers`` uses."""

    def __init__(self):
        self.writes = []

    def write(self, data) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        pass


@pytest.mark.smoke
class TestCoalescedWrites:
    def test_the_resolved_head_of_the_fifo_is_one_write(self, trainer_a):
        """Same bytes, same order as one write per answer — fewer writes."""
        import asyncio

        from repro.serving.server import _DONE, _Connection

        worker = EngineWorker(AnnotationEngine(trainer_a))
        hit = b'{"table_id": "hit"}\n'
        error = protocol.error_answer("broken", record_id=3)
        computed = {"table_id": "computed", "id": 4}
        late = {"table_id": "late", "id": 5}

        async def run():
            loop = asyncio.get_running_loop()
            server = AnnotationServer(worker)
            writer = _RecordingWriter()
            connection = _Connection(writer, window=8)
            done, pending = loop.create_future(), loop.create_future()
            done.set_result(computed)
            for item in (hit, error, done, pending, hit, error):
                await connection.room.acquire()
                connection.answers.put_nowait(item)
            task = asyncio.ensure_future(server._write_answers(connection))
            for _ in range(3):
                await asyncio.sleep(0)
            first = list(writer.writes)
            pending.set_result(late)
            connection.answers.put_nowait(_DONE)
            await task
            return first, writer.writes, connection, server

        with worker:
            first, writes, connection, server = asyncio.run(run())
        encode = lambda record: protocol.encode_line(record).encode("utf-8")
        assert first == [hit + encode(error) + encode(computed)]
        assert writes[1:] == [encode(late) + hit + encode(error)]
        assert (connection.retired, server.stats.answered) == (6, 6)
        assert not connection.room.locked()  # the whole window is back


# -- the property ----------------------------------------------------------

_HITS, _MISSES = 3, 3
_KINDS = ("hit", "hit", "hit", "miss", "bad", "stats", "health")
_BAD_LINES = (
    b"this is not json\n",
    b'{"kind": "table", "table_id": "hollow", "columns": [], "id": 7}\n',
)


@st.composite
def _traffic(draw):
    """``(connections, ops, cut)``: each op is ``(connection, kind, which
    table, record id)`` — ids and tables repeat on purpose — and ``cut`` is
    where ``stop()`` lands (``None``: the run ends normally)."""
    connections = draw(st.integers(1, 3))
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(0, connections - 1),
                st.sampled_from(_KINDS),
                st.integers(0, 2),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=18,
        )
    )
    cut = draw(st.one_of(st.none(), st.integers(0, len(ops))))
    return connections, ops, cut


class TestInterleavings:
    """Random interleavings of store hits, misses held on a gate, malformed
    lines, admin ops and repeated ids over one to three connections."""

    @pytest.fixture(scope="class")
    def hot_entries(self, trainer_a):
        tables = trainer_a.dataset.tables[:_HITS]
        return [(table, *_stored_entry(trainer_a, table)) for table in tables]

    def _line_and_answer(self, trainer, hot_entries, kind, which, record_id, run):
        """``(request line, expected answer)``; the answer of an admin op
        depends on the moment, so only its shape is known: a dict."""
        if kind == "bad":
            line = _BAD_LINES[which % len(_BAD_LINES)]
            with pytest.raises(protocol.ProtocolError) as info:
                protocol.decode_record(line, STORE_OPTIONS, admin=True)
            return line, protocol.encode_line(info.value.answer()).encode("utf-8")
        if kind in ("stats", "health"):
            line = json.dumps({"op": kind, "id": record_id}) + "\n"
            return line.encode("utf-8"), {"ok": True, "op": kind, "id": record_id}
        if kind == "hit":
            table = hot_entries[which][0]
        else:
            # Never seen by this run's (fresh) store; the same one may come
            # twice, and then joins the first one's flight.
            table = _variant(trainer.dataset.tables[5 + which], f"run{run}")
        line = json.dumps(_routed_record(table, record_id=record_id)) + "\n"
        want = _reference_line(trainer, table, record_id)
        return line.encode("utf-8"), want.encode("utf-8")

    _runs = 0

    @settings(max_examples=25, deadline=None)
    @given(_traffic())
    def test_one_answer_per_accepted_record_in_arrival_order(
        self, trainer_a, hot_entries, traffic
    ):
        import asyncio
        import tempfile

        connections, ops, cut = traffic
        type(self)._runs += 1
        scripts = [[] for _ in range(connections)]  # per connection, in order
        for conn, kind, which, record_id in ops:
            line, want = self._line_and_answer(
                trainer_a, hot_entries, kind, which, record_id, self._runs
            )
            scripts[conn].append((kind, line, want))
        first = ops if cut is None else ops[:cut]
        # Per connection: how many records precede its first held miss.
        sent = [0] * connections
        flushable = [None] * connections
        for conn, kind, _, _ in first:
            if kind == "miss" and flushable[conn] is None:
                flushable[conn] = sent[conn]
            sent[conn] += 1
        flushable = [
            sent[c] if flushable[c] is None else flushable[c]
            for c in range(connections)
        ]

        async def run(engine, worker, gate):
            server = AnnotationServer(worker, STORE_OPTIONS, shutdown_grace=5.0)
            await server.start()
            streams = [
                await asyncio.open_connection(*server.address)
                for _ in range(connections)
            ]
            cursor = [0] * connections

            def send(batch):
                for conn, _, _, _ in batch:
                    streams[conn][1].write(scripts[conn][cursor[conn]][1])
                    cursor[conn] += 1

            async def until(condition):
                for _ in range(20000):
                    if condition():
                        return
                    await asyncio.sleep(0.001)
                raise AssertionError("the server never got there")

            stats = server.stats
            send(first)
            await until(
                lambda: stats.requests + stats.admin_ops + stats.errors == len(first)
            )
            # Everything ahead of a connection's first held miss goes out;
            # nothing behind it does, hit or not.
            await until(lambda: stats.answered >= sum(flushable))
            for _ in range(5):
                await asyncio.sleep(0)
            assert stats.answered == sum(flushable)
            received = [b""] * connections
            if cut is None:
                gate.open()
                for conn, (reader, _) in enumerate(streams):
                    for _ in scripts[conn]:
                        received[conn] += await reader.readline()
                await server.stop()
            else:
                # The rest is in flight when stop() cancels the readers.
                send(ops[cut:])
                stopping = asyncio.ensure_future(server.stop())
                await asyncio.sleep(0)
                gate.open()
                await stopping
            for conn, (reader, writer) in enumerate(streams):
                received[conn] += await reader.read()  # to EOF
                writer.close()
            return received, server.stats

        with tempfile.TemporaryDirectory() as directory:
            store = FabricCache(directory, refresh_interval=0.0)
            for _, key, payload in hot_entries:
                store.put(key, payload)
            engine = AnnotationEngine(trainer_a, result_cache=store)
            gate = EngineGate(engine)
            worker = EngineWorker(engine, QueueConfig(max_batch=4))
            with worker:
                received, stats = asyncio.run(run(engine, worker, gate))
                snapshot = worker.stats_snapshot()
            store.close()

        answered = 0
        for conn, script in enumerate(scripts):
            lines = received[conn].splitlines(keepends=True)
            answered += len(lines)
            # Accepted before the cut: answered.  After it: maybe; but what
            # came back is a prefix of what was sent, in order.
            assert sent[conn] <= len(lines) <= len(script)
            for line, (kind, _, want) in zip(lines, script):
                if isinstance(want, bytes):
                    assert line == want  # coalesced or not, the same bytes
                else:
                    answer = json.loads(line)
                    assert {k: answer[k] for k in want} == want
        # Every accepted record was answered exactly once, stop() or not.
        assert answered == stats.answered == stats.ready
        assert stats.ready == stats.requests + stats.admin_ops + sum(
            kind == "bad"
            for conn, script in enumerate(scripts)
            for kind, _, _ in script[: len(received[conn].splitlines())]
        )
        assert snapshot.submitted == stats.requests
        assert snapshot.completed + snapshot.failed == snapshot.submitted
        assert snapshot.failed == 0
