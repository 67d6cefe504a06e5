"""Column-level content addressing (repro.serving.colcache + engine wiring).

The contract under test:

* a column seen in *any* prior table (any position, any neighbours) skips
  its encoder pass in single-column mode, and the annotation bytes are
  identical to an uncached engine's;
* duplicate columns inside one batch encode once (in-batch dedup by
  content fingerprint);
* entries are keyed by model fingerprint × content hash × padded width —
  weight updates orphan stale states instead of serving them;
* the store's array codec round-trips states byte-exactly;
* table-wise engines never construct the cache (cross-column attention
  makes per-column states context-dependent);
* cold vs warm equivalence holds through the worker path, and the
  worker's stats section reports ``column_hit_rate``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DoduoConfig, DoduoTrainer
from repro.datasets import Column, Table, generate_wikitable_dataset
from repro.nn import TransformerConfig
from repro.serving import (
    AnnotationEngine,
    AnnotationOptions,
    ColumnCache,
    EngineConfig,
)
from repro.serving.diskcache import decode_array, encode_array
from repro.text import train_wordpiece


@pytest.fixture(scope="module")
def dataset():
    return generate_wikitable_dataset(num_tables=20, seed=3, max_rows=4)


def _train(dataset, **config_overrides):
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=600)
    encoder = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=32,
        num_layers=2,
        num_heads=2,
        ffn_dim=64,
        max_position=160,
        num_segments=8,
        dropout=0.0,
    )
    config = DoduoConfig(
        epochs=1, batch_size=8, keep_best_checkpoint=False, **config_overrides
    )
    trainer = DoduoTrainer(dataset, tokenizer, encoder, config)
    trainer.train()
    return trainer


@pytest.fixture(scope="module")
def sc_trainer(dataset):
    """Single-column (DosoloSCol) model — the mode the cache serves."""
    return _train(dataset, single_column=True)


@pytest.fixture(scope="module")
def tw_trainer(dataset):
    """Table-wise model — the mode the cache must stay out of."""
    return _train(dataset)


def _tables():
    shared = Column(values=["tokyo", "osaka", "kyoto"], header="city")
    t1 = Table(
        columns=[shared, Column(values=["1", "2", "3"], header="rank")],
        table_id="t1",
    )
    t2 = Table(
        columns=[
            Column(values=["japan", "japan", "japan"], header="country"),
            shared,  # same content, different table, different position
        ],
        table_id="t2",
    )
    return t1, t2


def _payload(result):
    a = result.annotated
    return (a.coltypes, a.type_scores, a.colrels, a.colemb)


def _assert_same(p, q):
    assert p[0] == q[0]
    assert p[1] == q[1]
    assert p[2] == q[2]
    if p[3] is None or q[3] is None:
        assert p[3] is None and q[3] is None
    else:
        assert (p[3] == q[3]).all()


OPTIONS = AnnotationOptions(with_embeddings=True)


# ---------------------------------------------------------------------------
# ColumnCache unit behaviour
# ---------------------------------------------------------------------------


class TestColumnCacheUnit:
    def test_lookup_store_and_counters(self):
        cache = ColumnCache(8, model_key="m")
        state = np.arange(6, dtype=np.float32)
        assert cache.lookup("fp", 10) is None
        cache.store("fp", 10, state)
        assert (cache.lookup("fp", 10) == state).all()
        assert cache.lookup("fp", 12) is None  # width is part of the key
        assert (cache.hits, cache.misses) == (1, 2)

    def test_model_key_rekeys_everything(self):
        cache = ColumnCache(8, model_key="before")
        cache.store("fp", 10, np.zeros(4, dtype=np.float32))
        cache.model_key = "after"  # weights changed
        assert cache.lookup("fp", 10) is None
        cache.model_key = "before"
        assert cache.lookup("fp", 10) is not None

    def test_capacity_evicts_lru(self):
        cache = ColumnCache(2)
        for n in range(3):
            cache.store(f"fp{n}", 8, np.full(2, n, dtype=np.float32))
        assert cache.lookup("fp0", 8) is None  # evicted
        assert cache.lookup("fp2", 8) is not None
        assert len(cache) == 2

    @pytest.mark.parametrize("dtype", ("float32", "float64"))
    def test_payload_round_trip_byte_exact(self, dtype):
        """The store's one array codec (column states here, embeddings in
        annotation payloads) rebuilds every bit."""
        rng = np.random.default_rng(5)
        state = rng.standard_normal(32).astype(dtype)
        decoded = decode_array(json.loads(json.dumps(encode_array(state))))
        assert decoded.dtype == state.dtype
        assert (decoded == state).all()

    def test_array_payload_layout_is_pinned(self):
        """Stored records must not change a byte, key order included."""
        f32 = np.array([0.1, -2.5, 1 / 3], dtype=np.float32)
        f64 = np.array([[0.1, 1e-300], [-0.0, 2 / 3]], dtype=np.float64)
        assert json.dumps(encode_array(f32)) == (
            '{"dtype": "float32", "shape": [3], '
            '"data": [0.10000000149011612, -2.5, 0.3333333432674408]}'
        )
        assert json.dumps(encode_array(f64)) == (
            '{"dtype": "float64", "shape": [2, 2], '
            '"data": [0.1, 1e-300, -0.0, 0.6666666666666666]}'
        )

    def test_clear_drops_entries_and_counters(self):
        cache = ColumnCache(8, model_key="m")
        cache.store("fp", 10, np.ones(4, dtype=np.float32))
        assert cache.lookup("fp", 10) is not None
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        assert cache.lookup("fp", 10) is None


# ---------------------------------------------------------------------------
# Engine integration: cross-table reuse with byte parity
# ---------------------------------------------------------------------------


class TestEngineColumnCache:
    def test_cross_table_hit_with_identical_bytes(self, sc_trainer):
        t1, t2 = _tables()
        reference = AnnotationEngine(
            sc_trainer, EngineConfig(cache_size=0, column_cache_size=0)
        )
        cached = AnnotationEngine(
            sc_trainer, EngineConfig(cache_size=0, column_cache_size=64)
        )
        ref1 = reference.annotate_batch([t1], OPTIONS)[0]
        ref2 = reference.annotate_batch([t2], OPTIONS)[0]
        got1 = cached.annotate_batch([t1], OPTIONS)[0]
        assert cached.stats.column_hits == 0  # cold
        tokens_before = sc_trainer.model.real_tokens
        got2 = cached.annotate_batch([t2], OPTIONS)[0]
        cached_tokens = sc_trainer.model.real_tokens - tokens_before
        _assert_same(_payload(got1), _payload(ref1))
        _assert_same(_payload(got2), _payload(ref2))
        assert cached.stats.column_hits >= 1  # "city" reused across tables
        assert 0.0 < cached.stats.column_hit_rate < 1.0
        # the hit skipped real encoder work: t2 encoded fewer column tokens
        # than the uncached engine spent on it
        tokens_before = sc_trainer.model.real_tokens
        AnnotationEngine(
            sc_trainer, EngineConfig(cache_size=0, column_cache_size=0)
        ).annotate_batch([t2], OPTIONS)
        uncached_tokens = sc_trainer.model.real_tokens - tokens_before
        assert cached_tokens < uncached_tokens

    def test_in_batch_duplicate_columns_encode_once(self, sc_trainer):
        t1, t2 = _tables()
        reference = AnnotationEngine(
            sc_trainer, EngineConfig(cache_size=0, column_cache_size=0)
        )
        cached = AnnotationEngine(
            sc_trainer, EngineConfig(cache_size=0, column_cache_size=64)
        )
        expected = [
            _payload(r) for r in reference.annotate_batch([t1, t2], OPTIONS)
        ]
        tokens_before = sc_trainer.model.real_tokens
        got = [_payload(r) for r in cached.annotate_batch([t1, t2], OPTIONS)]
        spent = sc_trainer.model.real_tokens - tokens_before
        for p, q in zip(got, expected):
            _assert_same(p, q)
        # 4 columns, 3 unique: the duplicate encodes zero tokens
        tokens_before = sc_trainer.model.real_tokens
        reference.annotate_batch([t1, t2], OPTIONS)
        assert spent < sc_trainer.model.real_tokens - tokens_before

    def test_warm_repeat_is_all_hits(self, sc_trainer):
        t1, t2 = _tables()
        engine = AnnotationEngine(
            sc_trainer, EngineConfig(cache_size=0, column_cache_size=64)
        )
        first = [_payload(r) for r in engine.annotate_batch([t1, t2], OPTIONS)]
        misses_after_cold = engine.stats.column_misses
        second = [_payload(r) for r in engine.annotate_batch([t1, t2], OPTIONS)]
        for p, q in zip(first, second):
            _assert_same(p, q)
        assert engine.stats.column_misses == misses_after_cold  # no new misses

    def test_weight_update_invalidates(self, sc_trainer, dataset):
        """After a weight change the fingerprint re-keys the cache: warm
        entries for the old weights must not leak into new answers."""
        t1, t2 = _tables()
        engine = AnnotationEngine(
            sc_trainer, EngineConfig(cache_size=0, column_cache_size=64)
        )
        engine.annotate_batch([t1], OPTIONS)  # warm under the old weights
        old_key = engine.model_fingerprint
        state = sc_trainer.model.state_dict()
        try:
            perturbed = dict(state)
            name, value = next(iter(state.items()))
            perturbed[name] = value + np.float32(0.25)
            sc_trainer.model.load_state_dict(perturbed)
            sc_trainer.invalidate_fingerprint()
            assert engine.model_fingerprint != old_key
            fresh = AnnotationEngine(
                sc_trainer, EngineConfig(cache_size=0, column_cache_size=0)
            )
            expected = [_payload(r) for r in fresh.annotate_batch([t2], OPTIONS)]
            got = [_payload(r) for r in engine.annotate_batch([t2], OPTIONS)]
            for p, q in zip(got, expected):
                _assert_same(p, q)
        finally:
            sc_trainer.model.load_state_dict(state)
            sc_trainer.invalidate_fingerprint()

    def test_table_wise_engines_do_not_build_the_cache(self, tw_trainer):
        engine = AnnotationEngine(
            tw_trainer, EngineConfig(cache_size=0, column_cache_size=64)
        )
        assert engine.column_cache is None
        t1, _ = _tables()
        engine.annotate_batch([t1], OPTIONS)
        assert engine.stats.column_hits == 0
        assert engine.stats.column_misses == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(kernels="blas")
        with pytest.raises(ValueError):
            EngineConfig(column_cache_size=-1)


# ---------------------------------------------------------------------------
# Worker path: cold vs warm equivalence + stats surface
# ---------------------------------------------------------------------------


class TestGatewayColumnCache:
    def test_cold_vs_warm_through_gateway(self, sc_trainer):
        from repro.serving import EngineWorker

        t1, t2 = _tables()
        engine = AnnotationEngine(
            sc_trainer, EngineConfig(cache_size=0, column_cache_size=64)
        )
        with EngineWorker(engine) as worker:
            cold = [
                worker.submit(t, options=OPTIONS).result(timeout=60)
                for t in (t1, t2)
            ]
            warm = [
                worker.submit(t, options=OPTIONS).result(timeout=60)
                for t in (t1, t2)
            ]
            for c, w in zip(cold, warm):
                _assert_same(_payload(c), _payload(w))
            stats = worker.stats_sections()["gateway"].to_dict()
        engine_stats = stats["engines"]["default"]
        assert "column_hit_rate" in engine_stats
        assert engine_stats["column_hits"] >= 1
        assert 0.0 <= engine_stats["column_hit_rate"] <= 1.0


# ---------------------------------------------------------------------------
# One walk over the cells per request
# ---------------------------------------------------------------------------


class TestHashOnce:
    """The queue hashes a request at submit and the engine, the encoding
    pipeline, the probe planner and the pair cache reuse that digest.

    Counted at ``repro.encoding.cache.content_digest`` (the ``walks``
    fixture of ``conftest.py``).  A warm repeat isolates the table walks —
    no serialization work is left to hide behind.
    """

    def test_narrow_path(self, tw_trainer, walks):
        from repro.serving import EngineWorker

        table = _tables()[0]
        engine = AnnotationEngine(tw_trainer, EngineConfig(cache_size=16))
        with EngineWorker(engine) as worker:
            worker.annotate(table)
            # Cold: the table once, plus one segment key per column.
            assert len(walks) == 1 + table.num_columns
            del walks[:]
            worker.annotate(table)
        assert len(walks) == 1
        del walks[:]
        engine.annotate(table)  # the queue-less path hashes once too
        assert len(walks) == 1

    def test_planned_wide_path(self, sc_trainer, walks):
        from repro.serving import EngineWorker

        wide = Table(
            columns=[
                Column(values=[f"v{c}a", f"v{c}b"], header=f"h{c}")
                for c in range(6)
            ],
            table_id="wide",
        )
        engine = AnnotationEngine(
            sc_trainer,
            EngineConfig(cache_size=64, probe_mode="planned", probe_budget=12),
        )
        with EngineWorker(engine) as worker:
            first = worker.annotate(wide)
            assert len(first.annotated.requested_pairs) > 1  # pairs were encoded
            # Cold: the table once and each column once — the segment cache,
            # the planner's profiles, the column-state cache and both sides
            # of every pair encode all key on that one digest per column
            # (they used to re-hash: ~5 walks per column plus 2 per pair).
            assert len(walks) == 1 + wide.num_columns
            del walks[:]
            worker.annotate(wide)
        # Warm: the table once (it used to be once per tier and once per
        # planned pair), plus the column-state cache's per-column keys.
        assert len(walks) == 1 + wide.num_columns
