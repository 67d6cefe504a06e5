"""Serving throughput: legacy loop vs. engine strategies.

Not a paper table — this benchmarks the serving stack on a 50-table
WikiTable workload:

* **legacy multi-pass** — the historical ``Doduo.annotate`` cost model
  (separate encoder passes for types, scores, the relation probe, and
  embeddings), reconstructed from the still-public ``predict_*`` entry
  points;
* **sequential engine** — one single-pass engine batch per table, float32
  fast kernels with their byte-identity proof gates.  This is the
  *float32 fast-kernel baseline* every later row is scored against;
* **batched engine** — drains of 8 and 16 tables, one padding-free
  token-major pass each whatever their widths (still float32, every
  sequence at the width it would have alone — the byte-identity contract).

Every engine cell is measured **cold** (``cache_size=0``, sessions
invalidated first): the timed region includes session build, and with it
the per-band proofs (when a pass calls for one) — the costs a fresh
serving process actually pays.

The summary also carries the sequential engine's type/relation micro-F1
over the workload.  It lands in the JSON summary, which is also written
to ``BENCH_serving.json`` (override with ``--json PATH``) so CI can track
the perf trajectory as an artifact.
"""

import json
import time
from pathlib import Path

import numpy as np

from common import (
    annotation_engine,
    doduo_wikitable,
    print_block,
    print_table,
    wikitable_splits,
)

from repro.core.trainer import default_relation_pairs
from repro.evaluation.metrics import multilabel_micro_prf

WORKLOAD_SIZE = 50

RESULTS_PATH = Path(__file__).resolve().parent / "BENCH_serving.json"


def _workload():
    """A 50-table workload cycled from the held-out split.

    Cycling repeats content when the split is smaller than the workload,
    which is why every engine below runs with the serialization cache
    disabled — repeated content must not inflate throughput.
    """
    source = wikitable_splits().test.tables
    return [source[i % len(source)] for i in range(WORKLOAD_SIZE)]


def _legacy_multi_pass(trainer, table):
    """The pre-engine annotate cost: four separate encoder passes."""
    trainer.predict_types([table])
    encoded = [trainer.serializer.serialize_table(table)]
    trainer.model.predict_type_probs(encoded, trainer.config.multi_label)
    pairs = default_relation_pairs(table)
    if trainer.model.relation_head is not None and pairs:
        trainer.model.predict_relation_probs(
            encoded, [(0, i, j) for i, j in pairs], trainer.config.multi_label
        )
    trainer.column_embeddings(table)


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _micro_f1(results, tables, dataset):
    """Type/relation micro-F1 of engine results against dataset labels.

    ``trainer.evaluate`` runs through the trainer's own float session, so
    it cannot score what a differently-configured *engine* actually
    served; this recomputes the same micro-PRF from the annotation
    results themselves.  Gold pairs the engine did not probe count as
    misses.
    """
    type_true, type_pred = [], []
    rel_true, rel_pred = [], []
    for table, result in zip(tables, results):
        annotated = result.annotated
        for c, column in enumerate(table.columns):
            true_row = np.zeros(dataset.num_types, dtype=bool)
            for name in column.type_labels:
                true_row[dataset.type_id(name)] = True
            pred_row = np.zeros(dataset.num_types, dtype=bool)
            for name in annotated.coltypes[c]:
                pred_row[dataset.type_id(name)] = True
            type_true.append(true_row)
            type_pred.append(pred_row)
        for pair in sorted(table.relation_labels):
            true_row = np.zeros(dataset.num_relations, dtype=bool)
            for name in table.relation_labels[pair]:
                true_row[dataset.relation_id(name)] = True
            pred_row = np.zeros(dataset.num_relations, dtype=bool)
            for name in annotated.colrels.get(pair, []):
                pred_row[dataset.relation_id(name)] = True
            rel_true.append(true_row)
            rel_pred.append(pred_row)
    type_f1 = multilabel_micro_prf(np.stack(type_true), np.stack(type_pred)).f1
    relation_f1 = (
        multilabel_micro_prf(np.stack(rel_true), np.stack(rel_pred)).f1
        if rel_true
        else 1.0
    )
    return type_f1, relation_f1


def run_experiment(json_path=None):
    trainer = doduo_wikitable()
    tables = _workload()

    passes_before = trainer.model.encode_calls
    legacy_seconds, _ = _timed(
        lambda: [_legacy_multi_pass(trainer, t) for t in tables]
    )
    legacy_passes = trainer.model.encode_calls - passes_before

    # Cold float32 fast-kernel baseline: a fresh session, whose workspace
    # buffers start empty.  ``invalidate_sessions`` keeps the model's
    # bitwise verdicts, and a band without one runs the reference form
    # alone: nothing in the timed region is computed twice.
    trainer.model.invalidate_sessions()
    sequential_engine = annotation_engine(trainer, cache_size=0)
    sequential_seconds, sequential_results = _timed(
        lambda: [sequential_engine.annotate(t) for t in tables]
    )
    sequential_passes = sequential_engine.stats.encoder_passes

    batched = {}
    for batch_size in (8, 16):
        trainer.model.invalidate_sessions()
        engine = annotation_engine(trainer, batch_size=batch_size, cache_size=0)
        seconds, _ = _timed(lambda: engine.annotate_batch(tables))
        batched[batch_size] = {
            "seconds": seconds,
            "passes": engine.stats.encoder_passes,
        }

    type_f1_f32, rel_f1_f32 = _micro_f1(sequential_results, tables, trainer.dataset)

    def tps(seconds):
        return WORKLOAD_SIZE / seconds

    rows = [
        ("legacy multi-pass loop", legacy_passes,
         f"{legacy_seconds:.3f}", f"{tps(legacy_seconds):.1f}", "1.00"),
        ("float32 engine (sequential)", sequential_passes,
         f"{sequential_seconds:.3f}", f"{tps(sequential_seconds):.1f}",
         f"{legacy_seconds / sequential_seconds:.2f}"),
    ]
    for batch_size, stats in batched.items():
        rows.append((
            f"float32 engine (bs={batch_size})", stats["passes"],
            f"{stats['seconds']:.3f}", f"{tps(stats['seconds']):.1f}",
            f"{legacy_seconds / stats['seconds']:.2f}",
        ))
    print_table(
        f"Serving throughput ({WORKLOAD_SIZE} WikiTable tables, cold)",
        ["Path", "Passes", "Seconds", "Tables/s", "Speedup"],
        rows,
    )

    best_batch = min(batched.values(), key=lambda s: s["seconds"])
    summary = {
        "workload_tables": WORKLOAD_SIZE,
        "legacy_tables_per_sec": round(tps(legacy_seconds), 2),
        "sequential_tables_per_sec": round(tps(sequential_seconds), 2),
        "batched_tables_per_sec": round(tps(best_batch["seconds"]), 2),
        # The before/after ratio for PR-1: the seed's annotate_many was a
        # sequential multi-pass Python loop; the engine batches and
        # single-passes it.
        "batched_vs_legacy_loop": round(legacy_seconds / best_batch["seconds"], 2),
        "batched_vs_sequential_engine": round(
            sequential_seconds / best_batch["seconds"], 2
        ),
        "legacy_passes": legacy_passes,
        "sequential_passes": sequential_passes,
        "batched_passes": best_batch["passes"],
        "type_f1_float32": round(type_f1_f32, 4),
        "relation_f1_float32": round(rel_f1_f32, 4),
    }
    print_block("serving-throughput-json: " + json.dumps(summary))
    target = Path(json_path) if json_path is not None else RESULTS_PATH
    target.write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def test_serving_throughput(benchmark):
    summary = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # The single-pass engine must do >= 2x fewer encoder passes than the
    # legacy path, and padded batching must beat the seed's sequential
    # multi-pass loop by a clear margin.
    assert summary["legacy_passes"] >= 2 * summary["sequential_passes"]
    assert summary["batched_passes"] < summary["sequential_passes"]
    assert summary["batched_vs_legacy_loop"] >= 1.5


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help=f"where to write the JSON summary (default: {RESULTS_PATH})",
    )
    args = parser.parse_args()
    run_experiment(json_path=args.json)
