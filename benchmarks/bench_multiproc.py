"""Multi-process pool saturation: `repro serve --workers N` vs N=1.

Not a paper table — this measures the ISSUE-6 serving pool: the
multi-process front door (shared listener, per-worker serving stacks,
cross-process cache fabric) against the single-worker baseline, over a
connections x workers grid.

Each cell serves the same corpus of *distinct* tables through a fresh
cold cache directory, so every request costs a real encoder pass — the
work the extra processes are supposed to parallelize.  Clients are
work-stealing threads over pre-serialized request bytes (write a
pipelined batch, read the answers back), so the measuring process adds
no JSON encode cost inside the timed region and the bottleneck stays on
the serving side.

The pool is launched through the real CLI (`repro serve --listen
127.0.0.1:0 --workers N`) in a subprocess with BLAS threading pinned to
one thread per worker — otherwise a multi-threaded BLAS lets the
1-worker baseline borrow every core and the comparison measures BLAS,
not the pool.

Acceptance bar: >= 1.7x throughput at ``--workers 2`` over
``--workers 1`` at the highest connection count (held slightly looser
at CI smoke scale, where tables are tiny and per-request wire overhead
weighs more).  The bar only applies where it is physically reachable:
on a single-core host two processes time-share one CPU and the best
possible ratio is ~1.0x, so there the bench instead asserts the pool
does not *collapse* throughput (>= 0.75x — supervision and fabric
overhead stay in the noise) and tags the published summary
``cpu_limited`` so the artifact is not misread as a scaling failure.

A second experiment measures the shared weight arena (``--weight-arena``)
on a large random-init model where weights dominate worker memory:

* **per-extra-worker RSS** — private (non-COW, non-file-backed) RSS per
  worker from ``/proc/<pid>/smaps_rollup``, with and without the arena.
  Without it every worker deserializes its own private copy of
  ``weights.npz``; with it all workers map the same parent-built arena
  file, so the marginal cost of a worker drops by the weight payload.
  Acceptance bar: >= 50% reduction.
* **crash-restart** — SIGKILL the only worker of a 1-worker pool and
  time until a request is answered again.  The restarted worker's
  ``arena_remaps`` counter proves structurally that it re-attached the
  pre-built arena instead of re-parsing the bundle; the latencies for
  both modes are reported (not asserted — wall-clock is host noise).
"""

import collections
import json
import os
import re
import signal
import socket
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


def _start_pool(bundle, cache_dir, workers, env, extra=()):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(bundle),
            "--listen", "127.0.0.1:0", "--workers", str(workers),
            "--cache-dir", str(cache_dir), *extra,
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    banner = process.stderr.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", banner)
    assert match, f"pool did not start: {banner!r}"
    return process, (match.group(1), int(match.group(2)))


def _ask(address, record):
    with socket.create_connection(address, timeout=300) as sock:
        with sock.makefile("rw", encoding="utf-8", newline="\n") as stream:
            stream.write(json.dumps(record) + "\n")
            stream.flush()
            return json.loads(stream.readline())


def _warm_workers(address, workers, warmup_record):
    """Annotate a sacrificial table until every worker has loaded the
    model, so the timed region measures serving, not checkpoint loads."""
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        _ask(address, warmup_record)
        stats = _ask(address, {"op": "stats"})
        busy = [w for w in stats["pool"]["per_worker"] if w["completed"] > 0]
        if len(busy) >= workers:
            return
    raise AssertionError("not every worker came up warm")


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


def _run_cell(address, request_bytes, connections):
    work = collections.deque(request_bytes)
    errors = []
    threads = [
        threading.Thread(target=_client, args=(address, work, errors))
        for _ in range(connections)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    assert not errors, errors[0]
    assert not work
    return seconds


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


def _measure_worker_rss(bundle, tmp, env, arena, warmup_record):
    """Mean per-worker private RSS (kB) of a warm pool, and the merged
    ``arena_remaps`` counter proving which load path the workers took."""
    cache_dir = tmp / f"cache-arena-mem-{'on' if arena else 'off'}"
    extra = ("--weight-arena",) if arena else ()
    process, address = _start_pool(bundle, cache_dir, ARENA_WORKERS, env, extra)
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


def _measure_crash_restart(bundle, tmp, env, arena, warmup_record):
    """SIGKILL the only worker and time until a request is answered.

    The timed region covers supervisor detection, respawn backoff, and
    the restarted worker's model load — the full outage a client sees.
    Returns the latency and the post-restart ``arena_remaps`` counter
    (the merged view only aggregates *live* workers, so a non-zero count
    can only come from the restarted worker's own load).
    """
    cache_dir = tmp / f"cache-arena-restart-{'on' if arena else 'off'}"
    extra = ("--weight-arena",) if arena else ()
    process, address = _start_pool(bundle, cache_dir, 1, env, extra)
    try:
        _warm_workers(address, 1, warmup_record)
        pid = _ask(address, {"op": "stats"})["pool"]["per_worker"][0]["pid"]
        os.kill(pid, signal.SIGKILL)
        start = time.perf_counter()
        deadline = start + 120
        while True:
            # A connection may land in the listener backlog before the
            # replacement worker accepts (blocking until it does — that
            # wait IS the restart latency) or get reset mid-flight;
            # retry resets until the pool answers again.
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
    rss = {}
    warm_remaps = {}
    restart = {}
    restart_remaps = {}
    for arena in (False, True):
        mode = "arena" if arena else "plain"
        rss[mode], warm_remaps[mode] = _measure_worker_rss(
            bundle, tmp, env, arena, warmup_record
        )
        restart[mode], restart_remaps[mode] = _measure_crash_restart(
            bundle, tmp, env, arena, warmup_record
        )
    reduction = 1.0 - rss["arena"] / rss["plain"]
    print_table(
        f"Shared weight arena ({params / 1e6:.1f}M params, "
        f"{ARENA_WORKERS} workers)",
        ["Mode", "Private RSS/worker", "Crash-restart", "Arena remaps"],
        [
            (mode, f"{rss[mode] / 1024:.1f} MB", f"{restart[mode]:.2f} s",
             str(warm_remaps[mode]))
            for mode in ("plain", "arena")
        ],
    )
    print_block(
        f"arena per-extra-worker private RSS reduction: {reduction:.1%} "
        f"(restart re-attached the arena: "
        f"{restart_remaps['arena']} remap(s), 0 bundle re-parses)"
    )
    return {
        "model_params": params,
        "weights_mb": round(params * 4 / 1e6, 1),
        "workers": ARENA_WORKERS,
        "worker_private_rss_mb": {
            mode: round(rss[mode] / 1024, 1) for mode in rss
        },
        "per_extra_worker_rss_reduction": round(reduction, 3),
        "warm_arena_remaps": warm_remaps["arena"],
        "restart_latency_seconds": {
            mode: round(restart[mode], 3) for mode in restart
        },
        "restart_arena_remaps": restart_remaps["arena"],
    }


def run_experiment():
    tmp = Path(tempfile.mkdtemp(prefix="bench-multiproc-"))
    bundle = tmp / "bundle"

    # A tiny self-contained model: the bench measures pool mechanics
    # (socket sharding, process parallelism, fabric), which do not care
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
    grid = {}
    rows = []
    for workers in WORKERS_GRID:
        for connections in CONNECTIONS_GRID:
            cache_dir = tmp / f"cache-w{workers}-c{connections}"  # cold
            process, address = _start_pool(bundle, cache_dir, workers, env)
            try:
                _warm_workers(address, workers, warmup_record)
                seconds = _run_cell(address, request_bytes, connections)
                stats = _ask(address, {"op": "stats"})
            finally:
                process.terminate()
                process.wait(timeout=60)
            served = stats["gateway"]["completed"]
            assert served >= CORPUS_TABLES, (served, CORPUS_TABLES)
            throughput = CORPUS_TABLES / seconds
            grid[(workers, connections)] = throughput
            rows.append((
                str(workers), str(connections), f"{seconds:.3f}",
                f"{throughput:.1f}",
                f"{throughput / grid[(1, connections)]:.2f}",
            ))
    print_table(
        f"Pool saturation ({CORPUS_TABLES} distinct tables, cold cache)",
        ["Workers", "Connections", "Seconds", "Tables/s", "vs 1 worker"],
        rows,
    )

    arena = _arena_experiment(tmp, env, corpus, tokenizer, warmup_record)

    top = max(CONNECTIONS_GRID)
    speedup_2w = grid[(2, top)] / grid[(1, top)]
    summary = {
        "smoke": SMOKE,
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_limited": not MULTI_CORE,
        "corpus_tables": CORPUS_TABLES,
        "pipeline_depth": PIPELINE_DEPTH,
        "grid": [
            {
                "workers": workers,
                "connections": connections,
                "tables_per_second": round(throughput, 2),
            }
            for (workers, connections), throughput in sorted(grid.items())
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
    # The arena bars: sharing the parent-built weight arena must cut a
    # worker's private memory by at least half (the weight payload no
    # longer has a per-process copy), every warm worker must have loaded
    # through the arena path, and a crash-restarted worker must have
    # re-attached the arena (merged stats only aggregate live workers,
    # so this count can only come from the restarted process).
    arena = summary["arena"]
    assert arena["per_extra_worker_rss_reduction"] >= 0.5, arena
    assert arena["warm_arena_remaps"] == arena["workers"], arena
    assert arena["restart_arena_remaps"] >= 1, arena
