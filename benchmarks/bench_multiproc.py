"""Multi-process pool saturation: `repro serve --workers N` vs N=1.

Not a paper table — this measures the serving pool: the multi-process
front door (parent-placed connections, per-worker serving stacks, one
shared weight arena, cross-process cache fabric) against the
single-worker baseline, over a connections x workers grid.

Each cell serves the same corpus of *distinct* tables through a fresh
cold cache directory, so every request costs a real encoder pass — the
work the extra processes are supposed to parallelize.  The client runs
in its own process: work-stealing threads over pre-serialized request
bytes (write a pipelined batch, read the answers back), so it adds no
JSON encode cost inside the timed region, and it reports the CPU it
spent there (``client_cpu_seconds``) — on a small host the client
shares the cores the workers need.  Every cell also records how the
parent placed its connections: the per-worker ``connections`` and
``completed`` deltas of the pool's ``per_worker`` stats, read on one
admin connection held open across the cell.

The pool is launched through the real CLI (`repro serve --listen
127.0.0.1:0 --workers N`) in a subprocess with BLAS threading pinned to
one thread per worker — otherwise a multi-threaded BLAS lets the
1-worker baseline borrow every core and the comparison measures BLAS,
not the pool.

Acceptance bar: >= 1.7x throughput at ``--workers 2`` over
``--workers 1`` at the highest connection count (held slightly looser
at CI smoke scale, where tables are tiny and per-request wire overhead
weighs more).  One cell lasts a fraction of a second at smoke scale, and
on a shared small host a single 2-vs-1 ratio swings widely, so the
speed-up is the median ratio over ``SPEEDUP_PAIRS`` adjacent pairs of
fresh 1-worker and 2-worker cells, alternating which runs first; every
pair is published (``speedup_pairs``).  The bar only applies where it is physically reachable:
on a single-core host two processes time-share one CPU and the best
possible ratio is ~1.0x, so there the bench instead asserts the pool
does not *collapse* throughput (>= 0.75x — supervision and fabric
overhead stay in the noise) and tags the published summary
``cpu_limited`` so the artifact is not misread as a scaling failure.
In every cell the parent's round-robin placement must split the
connections across the workers within one of even.

A second experiment measures the shared weight arena, which every pool
maps, on a large random-init model where weights dominate worker memory:

* **per-extra-worker RSS** — private (non-COW, non-file-backed) RSS per
  worker from ``/proc/<pid>/smaps_rollup``.  All workers map the same
  parent-built arena file, so the weights are not in any worker's
  private memory.  Acceptance bar: a worker's private RSS is below half
  the weight payload (without the arena it would exceed all of it).
* **crash-restart** — SIGKILL the only worker of a 1-worker pool and
  time until a request is answered again.  The restarted worker's
  ``arena_remaps`` counter proves structurally that it re-attached the
  pre-built arena instead of re-parsing the bundle; the latency is
  reported (not asserted — wall-clock is host noise).

The committed ``multiproc_saturation.json`` is a smoke-mode run:
``REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest -q -s
benchmarks/bench_multiproc.py``.
"""

import collections
import json
import multiprocessing
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import SMOKE, print_block, print_table

from repro.core import Doduo, save_annotator
from repro.datasets import generate_wikitable_dataset
from repro.io import table_to_dict

WORKERS_GRID = [1, 2] if SMOKE else [1, 2, 4]
CONNECTIONS_GRID = [1, 2, 4] if SMOKE else [1, 2, 4, 8]
CORPUS_TABLES = 192 if SMOKE else 512
PIPELINE_DEPTH = 8
MULTI_CORE = len(os.sched_getaffinity(0)) >= 2
if MULTI_CORE:
    SPEEDUP_FLOOR = 1.5 if SMOKE else 1.7
else:
    SPEEDUP_FLOOR = 0.75  # single CPU: processes time-share one core
#: Adjacent 1-worker / 2-worker cell pairs whose median ratio is the
#: published speed-up (one pair read 1.19-2.28 on a shared 2-vCPU host).
SPEEDUP_PAIRS = 7
RESULTS_PATH = Path(__file__).parent / "multiproc_saturation.json"

#: The arena experiment's model: large enough that the weight payload
#: dominates a worker's private memory (the effect the arena removes),
#: small enough to random-init and save in seconds.  ~13M params ≈ 52 MB
#: of float32 weights at hidden 512 x 4 layers.
ARENA_HIDDEN = 512
ARENA_LAYERS = 4
ARENA_WORKERS = 2


def _serving_env():
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    # One BLAS thread per worker process: the pool's parallelism must
    # come from the workers, not from a thread pool the 1-worker
    # baseline would share.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_pool(bundle, cache_dir, workers, env):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(bundle),
            "--listen", "127.0.0.1:0", "--workers", str(workers),
            "--cache-dir", str(cache_dir),
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    banner = process.stderr.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", banner)
    assert match, f"pool did not start: {banner!r}"
    return process, (match.group(1), int(match.group(2)))


def _stats(stream):
    stream.write(json.dumps({"op": "stats"}) + "\n")
    stream.flush()
    return json.loads(stream.readline())


def _ask(address, record):
    with socket.create_connection(address, timeout=300) as sock:
        with sock.makefile("rw", encoding="utf-8", newline="\n") as stream:
            stream.write(json.dumps(record) + "\n")
            stream.flush()
            return json.loads(stream.readline())


def _warm_workers(address, workers, warmup_record):
    """Annotate a sacrificial table on every worker — one connection each,
    opened back to back, which the parent places round-robin — so the
    timed region measures serving, not first-request costs."""
    line = (json.dumps(warmup_record) + "\n").encode("utf-8")
    socks = [socket.create_connection(address, timeout=300) for _ in range(workers)]
    try:
        for sock in socks:
            sock.sendall(line)
        for sock in socks:
            with sock.makefile("rb") as stream:
                assert stream.readline(), "connection died during warm-up"
    finally:
        for sock in socks:
            sock.close()
    stats = _ask(address, {"op": "stats"})
    busy = [w for w in stats["pool"]["per_worker"] if w["completed"] > 0]
    assert len(busy) == workers, stats["pool"]["per_worker"]


def _client(address, work, errors):
    try:
        with socket.create_connection(address, timeout=300) as sock:
            stream = sock.makefile("rwb")
            while True:
                batch = []
                try:
                    for _ in range(PIPELINE_DEPTH):
                        batch.append(work.popleft())
                except IndexError:
                    pass
                if not batch:
                    break
                stream.write(b"".join(batch))
                stream.flush()
                for _ in batch:
                    assert stream.readline(), "connection died mid-corpus"
            stream.close()
    except Exception as error:  # noqa: BLE001 - surfaced by the main thread
        errors.append(error)


def _client_main(address, request_bytes, connections, results):
    """The load generator's process: ``connections`` client threads drain
    the corpus, then the timed window's wall and CPU seconds go back."""
    work = collections.deque(request_bytes)
    errors = []
    threads = [
        threading.Thread(target=_client, args=(address, work, errors))
        for _ in range(connections)
    ]
    cpu = time.process_time()
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    cpu = time.process_time() - cpu
    results.send((seconds, cpu, repr(errors[0]) if errors else None, len(work)))
    results.close()


def _run_cell(address, request_bytes, connections):
    """Run one cell's client in its own process: (wall seconds, client
    CPU seconds)."""
    context = multiprocessing.get_context("spawn")
    receive, send = context.Pipe(duplex=False)
    client = context.Process(
        target=_client_main, args=(address, request_bytes, connections, send)
    )
    client.start()
    send.close()
    try:
        seconds, cpu, error, left = receive.recv()
    finally:
        receive.close()
        client.join(timeout=60)
    assert error is None, error
    assert not left
    return seconds, cpu


def _per_worker(stats):
    return {w["worker"]: w for w in stats["pool"]["per_worker"]}


def _placement(before, after):
    """Per-worker ``connections`` and ``completed`` between two stats
    answers read on the same connection: exactly the cell's traffic."""
    before, after = _per_worker(before), _per_worker(after)
    assert set(before) == set(after), (before, after)
    return {
        key: [after[w][key] - before[w][key] for w in sorted(after)]
        for key in ("connections", "completed")
    }


def _private_rss_kb(pid):
    """Private RSS of a process in kB (``Private_Clean + Private_Dirty``
    from ``smaps_rollup``).

    Under the pool's fork start method, pages COW-shared with the parent
    and file-backed mappings (the arena) are excluded — what remains is
    exactly the marginal memory cost of one more worker.
    """
    private = 0
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                private += int(line.split()[1])
    return private


def _arena_bundle(tmp, corpus, tokenizer):
    """A bundle whose weights dominate worker memory, random-init.

    The arena experiment measures memory sharing and restart mechanics,
    neither of which cares about model quality — and training a model
    this size would dominate the bench's runtime.
    """
    from repro.core import DoduoConfig, DoduoTrainer
    from repro.nn import TransformerConfig

    trainer = DoduoTrainer(
        corpus,
        tokenizer,
        TransformerConfig(
            vocab_size=tokenizer.vocab_size, hidden_dim=ARENA_HIDDEN,
            num_layers=ARENA_LAYERS, num_heads=8, ffn_dim=4 * ARENA_HIDDEN,
            max_position=160, num_segments=8, dropout=0.0,
        ),
        DoduoConfig(epochs=1, batch_size=8, keep_best_checkpoint=False),
    )
    bundle = tmp / "bundle-arena"
    save_annotator(Doduo(trainer), bundle)
    return bundle, trainer.model.num_parameters()


def _measure_worker_rss(bundle, tmp, env, warmup_record):
    """Mean per-worker private RSS (kB) of a warm pool, and the merged
    ``arena_remaps`` counter proving which load path the workers took."""
    process, address = _start_pool(bundle, tmp / "cache-arena-mem", ARENA_WORKERS, env)
    try:
        _warm_workers(address, ARENA_WORKERS, warmup_record)
        stats = _ask(address, {"op": "stats"})
        pids = [worker["pid"] for worker in stats["pool"]["per_worker"]]
        private = [_private_rss_kb(pid) for pid in pids]
        remaps = stats["registry"].get("arena_remaps", 0)
    finally:
        process.terminate()
        process.wait(timeout=60)
    return sum(private) / len(private), remaps


def _measure_crash_restart(bundle, tmp, env, warmup_record):
    """SIGKILL the only worker and time until a request is answered.

    The timed region covers supervisor detection, respawn backoff, and
    the restarted worker's model load — the full outage a client sees.
    Returns the latency and the post-restart ``arena_remaps`` counter
    (the merged view only aggregates *live* workers, so a non-zero count
    can only come from the restarted worker's own load).
    """
    process, address = _start_pool(bundle, tmp / "cache-arena-restart", 1, env)
    try:
        _warm_workers(address, 1, warmup_record)
        pid = _ask(address, {"op": "stats"})["pool"]["per_worker"][0]["pid"]
        os.kill(pid, signal.SIGKILL)
        start = time.perf_counter()
        deadline = start + 120
        while True:
            # A connection waits in the listener backlog until the
            # replacement worker is ready (that wait IS the restart
            # latency), or is closed if it was handed off in the instant
            # of the death; retry until the pool answers again.
            try:
                _ask(address, warmup_record)
                break
            except (OSError, ValueError):
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.05)
        latency = time.perf_counter() - start
        remaps = _ask(address, {"op": "stats"})["registry"].get(
            "arena_remaps", 0
        )
    finally:
        process.terminate()
        process.wait(timeout=60)
    return latency, remaps


def _arena_experiment(tmp, env, corpus, tokenizer, warmup_record):
    bundle, params = _arena_bundle(tmp, corpus, tokenizer)
    rss, warm_remaps = _measure_worker_rss(bundle, tmp, env, warmup_record)
    restart, restart_remaps = _measure_crash_restart(
        bundle, tmp, env, warmup_record
    )
    weights_mb = params * 4 / 1e6
    print_table(
        f"Shared weight arena ({params / 1e6:.1f}M params, "
        f"{ARENA_WORKERS} workers)",
        ["Weights", "Private RSS/worker", "Crash-restart", "Arena remaps"],
        [(f"{weights_mb:.1f} MB", f"{rss / 1024:.1f} MB", f"{restart:.2f} s",
          str(warm_remaps))],
    )
    print_block(
        f"restart re-attached the arena: {restart_remaps} remap(s), "
        "0 bundle re-parses"
    )
    return {
        "model_params": params,
        "weights_mb": round(weights_mb, 1),
        "workers": ARENA_WORKERS,
        "worker_private_rss_mb": round(rss / 1024, 1),
        "warm_arena_remaps": warm_remaps,
        "restart_latency_seconds": round(restart, 3),
        "restart_arena_remaps": restart_remaps,
    }


def run_experiment():
    tmp = Path(tempfile.mkdtemp(prefix="bench-multiproc-"))
    bundle = tmp / "bundle"

    # A tiny self-contained model: the bench measures pool mechanics
    # (connection placement, process parallelism, fabric), which do not care
    # about model quality — only that every request costs a forward pass.
    # max_rows=8 keeps each encoder pass heavy enough (several ms) that
    # a cell's drain time is dominated by serving work, not by pool
    # startup or client scheduling noise.
    corpus = generate_wikitable_dataset(
        num_tables=CORPUS_TABLES + 1, seed=97, max_rows=8
    )
    from repro.core import DoduoConfig, DoduoTrainer
    from repro.nn import TransformerConfig
    from repro.text import train_wordpiece

    tokenizer = train_wordpiece(corpus.all_cell_text(), vocab_size=500)
    trainer = DoduoTrainer(
        corpus,
        tokenizer,
        TransformerConfig(
            vocab_size=tokenizer.vocab_size, hidden_dim=32, num_layers=2,
            num_heads=2, ffn_dim=64, max_position=160, num_segments=8,
            dropout=0.0,
        ),
        DoduoConfig(epochs=1, batch_size=8, keep_best_checkpoint=False),
    )
    trainer.train()
    save_annotator(Doduo(trainer), bundle)

    warmup_record = table_to_dict(corpus.tables[-1])
    request_bytes = []
    for i, table in enumerate(corpus.tables[:CORPUS_TABLES]):
        record = table_to_dict(table)
        record["id"] = i
        request_bytes.append((json.dumps(record) + "\n").encode("utf-8"))

    env = _serving_env()

    def measure(workers, connections, tag):
        cache_dir = tmp / f"cache-w{workers}-c{connections}-{tag}"  # cold
        process, address = _start_pool(bundle, cache_dir, workers, env)
        try:
            _warm_workers(address, workers, warmup_record)
            with socket.create_connection(address, timeout=300) as admin:
                with admin.makefile("rw", encoding="utf-8", newline="\n") as stream:
                    before = _stats(stream)
                    seconds, client_cpu = _run_cell(
                        address, request_bytes, connections
                    )
                    after = _stats(stream)
        finally:
            process.terminate()
            process.wait(timeout=60)
        placement = _placement(before, after)
        assert sum(placement["completed"]) == CORPUS_TABLES, placement
        return {
            "workers": workers,
            "connections": connections,
            "tables_per_second": round(CORPUS_TABLES / seconds, 2),
            "client_cpu_seconds": round(client_cpu, 3),
            "seconds": round(seconds, 3),
            "connections_per_worker": placement["connections"],
            "completed_per_worker": placement["completed"],
        }

    grid = {}
    cells = []
    rows = []
    for workers in WORKERS_GRID:
        for connections in CONNECTIONS_GRID:
            cell = measure(workers, connections, "grid")
            grid[(workers, connections)] = throughput = cell["tables_per_second"]
            cells.append(cell)
            rows.append((
                str(workers), str(connections), f"{cell['seconds']:.3f}",
                f"{throughput:.1f}",
                f"{throughput / grid[(1, connections)]:.2f}",
                "/".join(map(str, cell["connections_per_worker"])),
                f"{cell['client_cpu_seconds'] / cell['seconds']:.0%}",
            ))
    print_table(
        f"Pool saturation ({CORPUS_TABLES} distinct tables, cold cache)",
        ["Workers", "Connections", "Seconds", "Tables/s", "vs 1 worker",
         "Conns/worker", "Client CPU"],
        rows,
    )

    # The speed-up is the median over adjacent 1-worker / 2-worker pairs
    # at the top connection count, alternating which side runs first, so
    # drift in the shared host's speed between two cells cannot decide it.
    top = max(CONNECTIONS_GRID)
    pairs = []
    for round_ in range(SPEEDUP_PAIRS):
        order = (1, 2) if round_ % 2 == 0 else (2, 1)
        pair = {w: measure(w, top, f"pair{round_}") for w in order}
        pairs.append(pair)
    ratios = [
        pair[2]["tables_per_second"] / pair[1]["tables_per_second"]
        for pair in pairs
    ]
    print_block(
        f"2 vs 1 worker at {top} connections, {SPEEDUP_PAIRS} pairs: "
        + " ".join(f"{ratio:.2f}" for ratio in ratios)
    )

    arena = _arena_experiment(tmp, env, corpus, tokenizer, warmup_record)

    speedup_2w = statistics.median(ratios)
    summary = {
        "smoke": SMOKE,
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_limited": not MULTI_CORE,
        "corpus_tables": CORPUS_TABLES,
        "pipeline_depth": PIPELINE_DEPTH,
        "grid": cells,
        "speedup_pairs": [
            {
                "ratio": round(ratio, 3),
                "cells": [pair[1], pair[2]],
            }
            for ratio, pair in zip(ratios, pairs)
        ],
        "speedup_2_workers_at_max_connections": round(speedup_2w, 3),
        "speedup_floor": SPEEDUP_FLOOR,
        "arena": arena,
    }
    RESULTS_PATH.write_text(json.dumps(summary, indent=2) + "\n")
    print_block("multiproc-json: " + json.dumps(summary))
    return summary


def test_multiproc_saturation(benchmark):
    summary = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # The acceptance bar: a second worker process buys real throughput
    # on a cold cache — the pool parallelizes encoder passes, it does
    # not just shard the socket.  On a single-core host the floor drops
    # to a no-collapse check (see module docstring): two processes on
    # one CPU cannot beat 1.0x no matter how good the pool is.
    assert (
        summary["speedup_2_workers_at_max_connections"]
        >= summary["speedup_floor"]
    )
    # The parent places connections round-robin, so every cell splits
    # its connections across the workers within one of even.
    paired = [cell for pair in summary["speedup_pairs"] for cell in pair["cells"]]
    for cell in summary["grid"] + paired:
        split = cell["connections_per_worker"]
        assert sum(split) == cell["connections"], cell
        assert max(split) - min(split) <= 1, cell
    # The arena bars: a worker's private memory holds no copy of the
    # weights (below half the payload), every warm worker loaded through
    # the arena with no flag asking, and a crash-restarted worker
    # re-attached it (merged stats only aggregate live workers, so this
    # count can only come from the restarted process).
    arena = summary["arena"]
    assert arena["worker_private_rss_mb"] < 0.5 * arena["weights_mb"], arena
    assert arena["warm_arena_remaps"] == arena["workers"], arena
    assert arena["restart_arena_remaps"] >= 1, arena
