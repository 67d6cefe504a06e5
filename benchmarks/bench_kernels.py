"""Kernel microbenchmarks: GEMM fusion and column-cache hit rates.

Not a paper table — this pins the PR-7 optimization layer:

* **fused QKV** — the form serving runs (one packed GEMM over the flat
  token-major matrix, into a reused buffer) vs three split projections
  on serving-shaped activations;
* **in-place kernel chain** — softmax/layernorm/gelu through preallocated
  workspace buffers vs the allocating reference forms;
* **column cache** — a single-column engine over a workload with realistic
  column repetition: cold pass vs warm pass, with the hit-rate and
  encoder-token counters that :class:`~repro.serving.EngineStats` exports;
* **last block** — the encoder pass whose last block computes only the
  ``[CLS]`` rows the heads read vs the pass that computes every row, on a
  single-column pair batch and a table-wise drain: states ``==``, and the
  ratio the two pruning verdicts paid for.

Every optimized path here is proof-gated or content-addressed — the
correctness side lives in ``tests/test_kernel_identity.py`` and
``tests/test_column_cache.py``; this file measures what the proofs paid for.
"""

import json
import time

import numpy as np

from common import SMOKE, print_block, print_table

from repro.nn.kernels import (
    Workspace,
    gelu_,
    layer_norm_,
    proof_rows,
    query_stable_key,
    softmax_,
)

REPEATS = 50 if SMOKE else 400
BATCH, SEQ, DIM = (8, 64, 64) if SMOKE else (16, 128, 128)


def _timed(fn, repeats):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def _bench_fused_qkv():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((BATCH * SEQ, DIM)).astype(np.float32)
    w = [rng.standard_normal((DIM, DIM)).astype(np.float32) for _ in range(3)]
    b = [rng.standard_normal(DIM).astype(np.float32) for _ in range(3)]
    w_qkv = np.concatenate(w, axis=1)
    b_qkv = np.concatenate(b)

    def split():
        return (x @ w[0] + b[0], x @ w[1] + b[1], x @ w[2] + b[2])

    qkv = np.empty((BATCH * SEQ, 3 * DIM), dtype=np.float32)

    def fused():
        np.matmul(x, w_qkv, out=qkv)
        np.add(qkv, b_qkv, out=qkv)
        return qkv[:, :DIM], qkv[:, DIM : 2 * DIM], qkv[:, 2 * DIM :]

    split_seconds = _timed(split, REPEATS)
    fused_seconds = _timed(fused, REPEATS)
    return {
        "split_us": split_seconds * 1e6,
        "fused_us": fused_seconds * 1e6,
        "speedup": split_seconds / fused_seconds,
    }


def _bench_inplace_chain():
    rng = np.random.default_rng(1)
    base = rng.standard_normal((BATCH, SEQ, DIM)).astype(np.float32)
    gamma = np.ones(DIM, dtype=np.float32)
    beta = np.zeros(DIM, dtype=np.float32)

    def reference():
        x = base - base.max(axis=-1, keepdims=True)
        e = np.exp(x)
        s = e / e.sum(axis=-1, keepdims=True)
        mu = s.mean(axis=-1, keepdims=True)
        centered = s - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        n = centered * (1.0 / np.sqrt(var + 1e-5)) * gamma + beta
        inner = np.float32(0.7978845608) * (n + 0.044715 * ((n * n) * n))
        return 0.5 * n * (1.0 + np.tanh(inner))

    ws = Workspace()
    scratch = np.empty_like(base)

    def inplace():
        np.copyto(scratch, base)
        softmax_(scratch)
        layer_norm_(scratch, gamma, beta, 1e-5, ws)
        gelu_(scratch, ws)
        return scratch

    return {
        "reference_us": _timed(reference, REPEATS) * 1e6,
        "inplace_us": _timed(inplace, REPEATS) * 1e6,
        "workspace_bytes": ws.allocated_bytes,
    }


def _bench_column_cache():
    from common import dosolo_scol_wikitable, wikitable_splits

    from repro.serving import AnnotationEngine, EngineConfig

    trainer = dosolo_scol_wikitable()
    source = wikitable_splits().test.tables
    workload = [source[i % len(source)] for i in range(24 if SMOKE else 100)]

    def run(engine, tables):
        start = time.perf_counter()
        engine.annotate_batch(tables)
        return time.perf_counter() - start

    uncached = AnnotationEngine(
        trainer, EngineConfig(cache_size=0, column_cache_size=0)
    )
    uncached_seconds = run(uncached, workload)

    cached = AnnotationEngine(
        trainer, EngineConfig(cache_size=0, column_cache_size=4096)
    )
    cold_seconds = run(cached, workload)
    cold_hits = cached.stats.column_hits
    warm_seconds = run(cached, workload)
    stats = cached.stats
    return {
        "workload_tables": len(workload),
        "uncached_seconds": uncached_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cold_hits": cold_hits,
        "hit_rate": stats.column_hit_rate,
        "warm_speedup": uncached_seconds / warm_seconds,
    }


def _bench_last_block():
    """Pruned vs whole last block, same weights, on serving-shaped passes:
    96 two-column pair sequences of width 35 (a ``wide_planned`` pair
    pass) and a drain of 8 table-wise tables of 2-4 columns."""
    from repro.core.model import DoduoModel
    from repro.core.serialization import EncodedTable
    from repro.nn import TransformerConfig

    config = TransformerConfig(
        vocab_size=512, hidden_dim=96, num_layers=3, num_heads=4, ffn_dim=192,
        max_position=256, num_segments=12, dropout=0.0,
    )

    def model(prunes: bool) -> DoduoModel:
        built = DoduoModel(
            config, num_types=8, num_relations=4, rng=np.random.default_rng(3)
        )
        built.eval()
        if not prunes:  # a hydrated disproof: every block runs whole
            proofs = built.inference_session().workspace.proofs
            for band in (64, 128, 256):
                key = query_stable_key(
                    config.hidden_dim // config.num_heads, np.float32, band
                )
                proofs.record(key, False)
        return built

    def sequence(rng, columns) -> EncodedTable:
        tokens, ids, cls = [], [], []
        for index, length in enumerate(columns):
            cls.append(len(tokens))
            tokens += [2] + rng.integers(5, 512, size=length).tolist()
            ids += [index] * (length + 1)
        return EncodedTable(
            token_ids=np.asarray(tokens + [3]), cls_positions=np.asarray(cls),
            column_ids=np.asarray(ids + [-1]),
        )

    rng = np.random.default_rng(4)
    # The mixed-width drain first: it makes both models prove row
    # stability, so the pair pass's projections are flat on both sides and
    # the ratio is the last block's alone.
    batches = {
        "tables": [
            sequence(rng, rng.integers(3, 15, size=rng.integers(2, 5)).tolist())
            for _ in range(8)
        ],
        "pairs": [sequence(rng, [16, 16]) for _ in range(96)],
    }
    pruning, whole = model(True), model(False)

    def last_block_rows(built, batch, widths):
        before = built.last_block_rows
        states = built.encode_states(batch, widths)[0]
        return states, built.last_block_rows - before

    results = {}
    for name, batch in batches.items():
        widths = [item.length for item in batch]
        results[f"{name}_rows"] = rows = sum(widths)
        # The gate is deferred until the rows it would have saved exceed
        # the proofs' own: pass until it has decided.
        for _ in range(1 + proof_rows(256) // rows):
            if last_block_rows(pruning, batch, widths)[1] < rows:
                break
        pruned, results[f"{name}_pruned_rows"] = last_block_rows(
            pruning, batch, widths
        )
        unpruned, whole_rows = last_block_rows(whole, batch, widths)
        assert (pruned == unpruned).all() and whole_rows == rows
        for label, built in (("pruned", pruning), ("whole", whole)):
            results[f"{name}_{label}_us"] = 1e6 * _timed(
                lambda: built.encode_states(batch, widths), max(2, REPEATS // 20)
            )
    proofs = pruning.inference_session().workspace.proofs
    results["proven"] = proofs.proofs_failed == 0
    return results


def run_experiment():
    qkv = _bench_fused_qkv()
    chain = _bench_inplace_chain()
    colcache = _bench_column_cache()
    last = _bench_last_block()

    print_table(
        f"Fused QKV GEMM ({BATCH * SEQ}x{DIM} float32)",
        ["Path", "us/call", "Speedup"],
        [
            ("three split GEMMs", f"{qkv['split_us']:.1f}", "1.00"),
            ("one flat fused GEMM", f"{qkv['fused_us']:.1f}",
             f"{qkv['speedup']:.2f}"),
        ],
    )
    print_table(
        "In-place kernel chain (softmax+layernorm+gelu)",
        ["Path", "us/call"],
        [
            ("allocating reference", f"{chain['reference_us']:.1f}"),
            ("in-place workspace", f"{chain['inplace_us']:.1f}"),
        ],
    )
    print_table(
        f"Column cache ({colcache['workload_tables']} single-column tables)",
        ["Pass", "Seconds", "Hit rate"],
        [
            ("no cache", f"{colcache['uncached_seconds']:.3f}", "-"),
            ("cold", f"{colcache['cold_seconds']:.3f}",
             f"{colcache['cold_hits']} hits"),
            ("warm", f"{colcache['warm_seconds']:.3f}",
             f"{colcache['hit_rate']:.2f}"),
        ],
    )
    print_table(
        "Last encoder block: only the [CLS] rows (3 blocks, dim 96, float32)"
        + ("" if last["proven"] else " - pruning DISPROVEN on this BLAS"),
        ["Pass", "Rows", "Last-block rows", "Whole us", "Pruned us", "Ratio"],
        [
            (
                label, last[f"{name}_rows"], last[f"{name}_pruned_rows"],
                f"{last[f'{name}_whole_us']:.0f}",
                f"{last[f'{name}_pruned_us']:.0f}",
                f"{last[f'{name}_pruned_us'] / last[f'{name}_whole_us']:.2f}",
            )
            for name, label in (
                ("pairs", "96 pair sequences, width 35"),
                ("tables", "8 table-wise tables"),
            )
        ],
    )
    summary = {
        "fused_qkv_speedup": round(qkv["speedup"], 2),
        "inplace_vs_reference": round(
            chain["reference_us"] / chain["inplace_us"], 2
        ),
        "column_cache_hit_rate": round(colcache["hit_rate"], 3),
        "column_cache_warm_speedup": round(colcache["warm_speedup"], 2),
        "last_block_pruning_proven": last["proven"],
        "last_block_pairs_ratio": round(
            last["pairs_pruned_us"] / last["pairs_whole_us"], 2
        ),
        "last_block_tables_ratio": round(
            last["tables_pruned_us"] / last["tables_whole_us"], 2
        ),
    }
    print_block("kernels-json: " + json.dumps(summary))
    return summary


def test_kernels(benchmark):
    summary = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # The warm column cache must beat the uncached engine, and repetition
    # must register.
    # cold pass misses everything, warm pass hits everything: >= 1/2
    assert summary["column_cache_hit_rate"] >= 0.5
    assert summary["column_cache_warm_speedup"] > 1.0


if __name__ == "__main__":
    run_experiment()
