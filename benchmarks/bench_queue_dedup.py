"""Queue dedup + persistent cache: the PR-2 serving-tier benchmark.

Not a paper table — this measures the two new serving tiers on a workload
shaped like real traffic: 60 requests over 12 unique tables (every popular
table asked for five times, interleaved).

* **direct engine** — every request pays serialization + its share of a
  forward pass (the PR-1 baseline; the LRU only saves re-serialization);
* **queue dedup** — :class:`~repro.serving.AnnotationService` collapses
  content-identical requests that are in flight together onto one
  annotation, so encoder passes track *unique* tables;
* **warm disk cache** — a fresh engine pointed at a directory populated by
  a previous run: the whole workload is answered from disk with **zero**
  encoder passes (the cross-restart guarantee the regression tests pin).

Emits the usual fixed-width table plus a JSON summary line so downstream
tooling can track the dedup ratio and the warm-pass count.
"""

import json
import shutil
import tempfile
import threading
import time

from common import annotation_engine, doduo_wikitable, print_block, print_table, wikitable_splits

from repro.serving import AnnotationEngine, AnnotationService, EngineConfig, QueueConfig

UNIQUE_TABLES = 12
REPEATS = 5


def _workload():
    """60 requests over 12 unique tables, duplicates interleaved."""
    source = wikitable_splits().test.tables
    unique = [source[i % len(source)] for i in range(UNIQUE_TABLES)]
    return [unique[i % UNIQUE_TABLES] for i in range(UNIQUE_TABLES * REPEATS)]


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_experiment():
    trainer = doduo_wikitable()
    tables = _workload()

    # Baseline: the PR-1 engine, no dedup, no disk tier.
    direct_engine = annotation_engine(trainer, cache_size=0)
    direct_seconds = _timed(lambda: direct_engine.annotate_batch(tables))
    direct_passes = direct_engine.stats.encoder_passes

    # Queue dedup: concurrent duplicates share one annotation.
    dedup_engine = annotation_engine(trainer, cache_size=0)
    service = AnnotationService(dedup_engine, QueueConfig(max_batch=len(tables)))
    # Dedup is single-flight from submit until the answer exists, and the
    # worker starts the first request the moment it arrives: hold the
    # engine until the whole workload is in flight, so the hit count below
    # is the workload's duplicate count on any machine.
    in_flight = threading.Event()
    annotate_batch = dedup_engine.annotate_batch

    def held(*args, **kwargs):
        in_flight.wait()
        return annotate_batch(*args, **kwargs)

    dedup_engine.annotate_batch = held
    with service:
        futures = [service.submit(t) for t in tables]
        in_flight.set()
        dedup_seconds = _timed(lambda: [f.result() for f in futures])
    dedup_passes = dedup_engine.stats.encoder_passes
    dedup_hits = service.stats.dedup_hits

    # Disk tier: populate a cache directory, then serve the same workload
    # from a *fresh* engine (simulating a process restart).
    cache_dir = tempfile.mkdtemp(prefix="bench-anno-cache-")
    try:
        warm_engine = AnnotationEngine(
            trainer, EngineConfig(batch_size=8, cache_size=0, cache_dir=cache_dir)
        )
        warm_engine.annotate_batch(tables)  # populate
        restarted = AnnotationEngine(
            trainer, EngineConfig(batch_size=8, cache_size=0, cache_dir=cache_dir)
        )
        warm_seconds = _timed(lambda: restarted.annotate_batch(tables))
        warm_passes = restarted.stats.encoder_passes
        warm_disk_hits = restarted.stats.disk_hits
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    total = len(tables)

    def tps(seconds):
        return total / seconds

    rows = [
        ("direct engine", direct_passes, f"{direct_seconds:.3f}",
         f"{tps(direct_seconds):.1f}", "1.00"),
        (f"queue dedup ({dedup_hits} hits)", dedup_passes,
         f"{dedup_seconds:.3f}", f"{tps(dedup_seconds):.1f}",
         f"{direct_seconds / dedup_seconds:.2f}"),
        (f"warm disk cache ({warm_disk_hits} hits)", warm_passes,
         f"{warm_seconds:.3f}", f"{tps(warm_seconds):.1f}",
         f"{direct_seconds / warm_seconds:.2f}"),
    ]
    print_table(
        f"Dedup + disk cache ({total} requests, {UNIQUE_TABLES} unique tables)",
        ["Path", "Passes", "Seconds", "Tables/s", "Speedup"],
        rows,
    )

    summary = {
        "requests": total,
        "unique_tables": UNIQUE_TABLES,
        "direct_passes": direct_passes,
        "dedup_passes": dedup_passes,
        "dedup_hits": dedup_hits,
        "warm_passes": warm_passes,
        "warm_disk_hits": warm_disk_hits,
        "dedup_speedup": round(direct_seconds / dedup_seconds, 2),
        "warm_speedup": round(direct_seconds / warm_seconds, 2),
    }
    print_block("queue-dedup-json: " + json.dumps(summary))
    return summary


def test_queue_dedup(benchmark):
    summary = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Dedup must collapse the workload to its unique tables...
    assert summary["dedup_hits"] == summary["requests"] - summary["unique_tables"]
    assert summary["dedup_passes"] < summary["direct_passes"]
    # ...and a warm disk cache must answer a repeated corpus without
    # touching the encoder at all (the ISSUE-2 acceptance criterion).
    assert summary["warm_passes"] == 0
    assert summary["warm_disk_hits"] == summary["requests"]
