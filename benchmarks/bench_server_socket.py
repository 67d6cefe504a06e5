"""Socket serving overhead: the TCP front door vs in-process submit().

Not a paper table — this measures the ISSUE-5 serving refactor: the
asyncio :class:`~repro.serving.AnnotationServer` speaking the
newline-delimited JSON protocol over a real socket, against the same
:class:`~repro.serving.EngineWorker` driven in-process through
``submit()`` futures.

The socket path pays for JSON encode/decode on both ends, TCP framing,
the event loop, and the per-connection answer FIFO; the in-process
baseline pays none of that but also cannot serve remote clients.  The
acceptance bar: pipelined socket throughput within 15% of in-process
``submit()`` at smoke scale.

Also asserts correctness on the way: every socket answer is exactly the
in-process answer's ``to_dict`` record for the same table (the shared
protocol layer at work), and per-connection FIFO order holds under a
fully pipelined client.
"""

import json
import socket
import time

from common import SMOKE, doduo_wikitable, print_block, print_table, wikitable_splits

from repro.io import table_to_dict
from repro.serving import AnnotationEngine, EngineConfig, EngineWorker, QueueConfig
from repro.serving.server import ServerThread

WORKLOAD = 40

# Forward passes dominate at paper scale; at CI smoke scale the model is
# deliberately tiny, so wire/serde overhead weighs more per pass and the
# bar is held a little looser (the full-scale bar is the acceptance
# criterion).
RELATIVE_THROUGHPUT_FLOOR = 0.70 if SMOKE else 0.85


def _worker(trainer):
    # cache_size=0: a private, disabled serialization cache per path so
    # neither inherits the other's warm serializations; max_batch=8 is
    # the serving default.
    engine = AnnotationEngine(trainer, EngineConfig(batch_size=8, cache_size=0))
    return EngineWorker(engine, QueueConfig(max_batch=8))


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_experiment():
    trainer = doduo_wikitable()
    # Distinct tables: with duplicates in flight the queue's single-flight
    # dedup would answer most of the workload without the engine, and this
    # would compare wire overhead to nothing instead of to forward passes.
    splits = wikitable_splits()
    tables = (splits.test.tables + splits.valid.tables + splits.train.tables)[
        :WORKLOAD
    ]

    # In-process baseline: futures through worker.submit, all in flight.
    inproc_results = []

    def run_inproc():
        futures = [inproc_worker.submit(table) for table in tables]
        inproc_results.extend(f.result() for f in futures)

    with _worker(trainer) as inproc_worker:
        inproc_seconds = _timed(run_inproc)
    inproc_records = [r.to_dict(with_embeddings=False) for r in inproc_results]

    # Socket path: a twin worker behind the TCP server, one pipelined
    # client connection writing every record before reading the answers
    # (the answer FIFO preserves order; TCP buffers absorb the burst).
    socket_answers = []
    socket_worker = _worker(trainer)

    def run_socket():
        with socket.create_connection(address, timeout=120) as sock:
            with sock.makefile("rw", encoding="utf-8", newline="\n") as stream:
                for i, table in enumerate(tables):
                    record = table_to_dict(table)
                    record["id"] = i
                    stream.write(json.dumps(record) + "\n")
                stream.flush()
                for _ in tables:
                    socket_answers.append(json.loads(stream.readline()))

    with socket_worker, ServerThread(socket_worker) as address:
        socket_seconds = _timed(run_socket)

    # Correctness ride-along: the wire changed nothing about the record.
    assert [a["id"] for a in socket_answers] == list(range(len(tables)))
    for answer, record in zip(socket_answers, inproc_records):
        got = dict(answer)
        got.pop("id")
        assert got == json.loads(json.dumps(record))

    relative = inproc_seconds / socket_seconds
    rows = [
        ("in-process submit()", f"{inproc_seconds:.3f}",
         f"{len(tables) / inproc_seconds:.1f}", "1.00"),
        ("TCP socket (pipelined client)", f"{socket_seconds:.3f}",
         f"{len(tables) / socket_seconds:.1f}", f"{relative:.2f}"),
    ]
    print_table(
        f"Socket serving ({len(tables)} requests, 1 connection)",
        ["Path", "Seconds", "Tables/s", "Relative"],
        rows,
    )

    summary = {
        "requests": len(tables),
        "inproc_seconds": round(inproc_seconds, 4),
        "socket_seconds": round(socket_seconds, 4),
        "relative_throughput": round(relative, 3),
    }
    print_block("server-socket-json: " + json.dumps(summary))
    return summary


def test_server_socket(benchmark):
    summary = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # The acceptance bar: the network face keeps pace with in-process
    # serving — the protocol and event loop must not become the engine.
    assert summary["relative_throughput"] >= RELATIVE_THROUGHPUT_FLOOR
