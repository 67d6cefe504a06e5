"""Padding waste: exact width buckets vs the PR-1 jointly-padded chunks.

Not a paper table — this benchmarks the unified encoding layer
(`repro.encoding`) on the same 50-table WikiTable workload as
``bench_serving_throughput``:

* **serving drain** — tokens wasted per drain under the PR-1 policy
  (sort by length, chunk, pad each chunk to its own maximum — simulated
  here) vs exact buckets at plan level
  and vs what the engine actually runs (padding-free ragged passes on the
  float fast path), which its own ``EngineStats`` token odometers confirm;
* **training epoch** — the padding accounting `TrainingHistory` now
  records for a fine-tuning run;
* **throughput** — batched annotation must be no slower than
  one-table-at-a-time serving (no wasted FLOPs, and results are
  byte-identical to sequential serving).

Emits the usual fixed-width table plus a JSON summary line.
"""

import json
import time

from common import (
    annotation_engine,
    doduo_wikitable,
    print_block,
    print_table,
    wikitable_splits,
)

from repro.encoding import BatchPlanner

WORKLOAD_SIZE = 50
BATCH_SIZE = 8


def _workload():
    source = wikitable_splits().test.tables
    return [source[i % len(source)] for i in range(WORKLOAD_SIZE)]


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_experiment():
    trainer = doduo_wikitable()
    tables = _workload()
    lengths = [trainer.encoding.encode_table(t).length for t in tables]
    planner = BatchPlanner(batch_size=BATCH_SIZE)

    # Plan-level accounting: the PR-1 policy vs exact buckets over one drain.
    by_length = sorted(range(len(lengths)), key=lengths.__getitem__)
    padded_plan = [
        by_length[k:k + BATCH_SIZE] for k in range(0, len(by_length), BATCH_SIZE)
    ]
    padded_report = BatchPlanner.report(lengths, padded_plan)
    exact_plan = planner.plan([(length,) for length in lengths])
    exact_report = BatchPlanner.report(lengths, exact_plan)

    # Engine-level confirmation: the running engine's token odometers.
    engine = annotation_engine(trainer, batch_size=BATCH_SIZE, cache_size=0)
    engine_seconds = _timed(lambda: engine.annotate_batch(tables))
    sequential = annotation_engine(trainer, cache_size=0)
    sequential_seconds = _timed(
        lambda: [sequential.annotate(t) for t in tables]
    )

    # Training-epoch accounting (the trainer pads its loss batches jointly;
    # the history records how much of that is padding).
    history = trainer.history

    rows = [
        ("serving drain, PR-1 padded chunks", padded_report.batches,
         padded_report.real_tokens, padded_report.padded_tokens,
         padded_report.wasted_tokens, f"{padded_report.waste_ratio:.4f}"),
        ("serving drain, exact buckets (plan)", exact_report.batches,
         exact_report.real_tokens, exact_report.padded_tokens,
         exact_report.wasted_tokens, f"{exact_report.waste_ratio:.4f}"),
        ("serving drain, ragged passes (engine)", engine.stats.batches,
         engine.stats.real_tokens, engine.stats.padded_tokens,
         engine.stats.padded_tokens - engine.stats.real_tokens,
         f"{engine.stats.padding_waste:.4f}"),
        ("fine-tuning run (TrainingHistory)", "-",
         history.real_tokens, history.padded_tokens,
         history.padded_tokens - history.real_tokens,
         f"{history.padding_waste:.4f}"),
    ]
    print_table(
        f"Padding waste ({WORKLOAD_SIZE} WikiTable tables, bs={BATCH_SIZE})",
        ["Path", "Batches", "Real tokens", "Alloc tokens", "Wasted", "Waste"],
        rows,
    )

    summary = {
        "workload_tables": WORKLOAD_SIZE,
        "padded_wasted_tokens": padded_report.wasted_tokens,
        "padded_waste_ratio": round(padded_report.waste_ratio, 4),
        "exact_wasted_tokens": exact_report.wasted_tokens,
        "engine_wasted_tokens": (
            engine.stats.padded_tokens - engine.stats.real_tokens
        ),
        "training_waste_ratio": round(history.padding_waste, 4),
        "batched_tables_per_sec": round(WORKLOAD_SIZE / engine_seconds, 2),
        "sequential_tables_per_sec": round(
            WORKLOAD_SIZE / sequential_seconds, 2
        ),
        "batched_vs_sequential": round(sequential_seconds / engine_seconds, 2),
    }
    print_block("padding-waste-json: " + json.dumps(summary))
    return summary


def test_padding_waste(benchmark):
    summary = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Exact buckets must waste strictly fewer tokens than the PR-1 padded
    # chunks (zero, in fact), per serving drain...
    assert summary["padded_wasted_tokens"] > 0
    assert summary["exact_wasted_tokens"] == 0
    assert summary["engine_wasted_tokens"] == 0
    # ...and batched serving must stay faster than one-table-at-a-time
    # (i.e., throughput no worse than PR 1, whose win was batching).
    assert summary["batched_vs_sequential"] >= 1.0
