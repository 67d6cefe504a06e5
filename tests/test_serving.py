"""The serving subsystem: AnnotationEngine, requests, cache, streaming.

The load-bearing guarantees:

* ``Doduo.annotate`` (single-pass wrapper) is **byte-identical** to the
  legacy four-pass implementation, reconstructed inline from the still-public
  ``predict_*`` entry points — the regression test for the historical double
  forward pass.
* Batched engine annotation is equivalent to sequential annotation on both
  WikiTable-style (multi-label, with relations) and VizNet-style
  (single-label, type-only) models, in table-wise and single-column modes.
* The LRU serialization cache hits on repeated content; ``annotate_stream``
  consumes generators lazily and preserves input order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Doduo, DoduoConfig, DoduoTrainer
from repro.core.trainer import default_relation_pairs
from repro.datasets import Column, Table, generate_viznet_dataset, generate_wikitable_dataset
from repro.nn import TransformerConfig
from repro.serving import (
    AnnotationEngine,
    AnnotationOptions,
    AnnotationRequest,
    EngineConfig,
    LRUCache,
    table_fingerprint,
)
from repro.text import train_wordpiece


def _tiny_encoder_config(vocab_size: int) -> TransformerConfig:
    return TransformerConfig(
        vocab_size=vocab_size,
        hidden_dim=32,
        num_layers=2,
        num_heads=2,
        ffn_dim=64,
        max_position=160,
        num_segments=8,
        dropout=0.0,
    )


def _train(dataset, config: DoduoConfig) -> DoduoTrainer:
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=700)
    trainer = DoduoTrainer(
        dataset, tokenizer, _tiny_encoder_config(tokenizer.vocab_size), config
    )
    trainer.train()
    return trainer


@pytest.fixture(scope="module")
def wikitable_dataset():
    return generate_wikitable_dataset(num_tables=24, seed=5, max_rows=4)


@pytest.fixture(scope="module")
def viznet_dataset():
    return generate_viznet_dataset(num_tables=30, seed=9)


@pytest.fixture(scope="module")
def wikitable_trainer(wikitable_dataset):
    """Table-wise, multi-label, with relations (the DODUO configuration)."""
    return _train(
        wikitable_dataset,
        DoduoConfig(epochs=1, batch_size=8, keep_best_checkpoint=False),
    )


@pytest.fixture(scope="module")
def viznet_trainer(viznet_dataset):
    """Table-wise, single-label, type task only (the VizNet configuration)."""
    return _train(
        viznet_dataset,
        DoduoConfig(tasks=("type",), multi_label=False, epochs=1,
                    batch_size=8, keep_best_checkpoint=False),
    )


@pytest.fixture(scope="module")
def single_column_trainer(wikitable_dataset):
    """Single-column (DosoloSCol) multi-label model, with relations."""
    return _train(
        wikitable_dataset,
        DoduoConfig(epochs=1, batch_size=8, single_column=True,
                    keep_best_checkpoint=False),
    )


@pytest.fixture(scope="module")
def single_column_viznet_trainer(viznet_dataset):
    """Single-column single-label model (VizNet DosoloSCol)."""
    return _train(
        viznet_dataset,
        DoduoConfig(tasks=("type",), multi_label=False, epochs=1, batch_size=8,
                    single_column=True, keep_best_checkpoint=False),
    )


# ---------------------------------------------------------------------------
# Legacy multi-pass reference (the pre-engine Doduo.annotate, verbatim logic)
# ---------------------------------------------------------------------------

def legacy_annotate(trainer: DoduoTrainer, table: Table):
    """The historical four-pass annotate path, for byte-parity regression."""
    dataset = trainer.dataset
    type_predictions = trainer.predict_types([table])[0]
    if trainer.config.multi_label:
        coltypes = [
            [dataset.type_vocab[k] for k in np.flatnonzero(row)]
            for row in type_predictions
        ]
    else:
        coltypes = [[dataset.type_vocab[int(k)]] for k in type_predictions]

    if trainer.config.single_column:
        encoded = [
            trainer.serializer.serialize_column(table, c)
            for c in range(table.num_columns)
        ]
    else:
        encoded = [trainer.serializer.serialize_table(table)]
    probs = trainer.model.predict_type_probs(encoded, trainer.config.multi_label)
    type_scores = [
        {name: float(probs[c, k]) for k, name in enumerate(dataset.type_vocab)}
        for c in range(table.num_columns)
    ]

    colrels = {}
    if trainer.model.relation_head is not None and table.num_columns > 1:
        pairs = default_relation_pairs(table)
        if trainer.config.single_column:
            pair_encoded = [
                trainer.serializer.serialize_column_pair(table, i, j)
                for i, j in pairs
            ]
            index_pairs = [(b, 0, 1) for b in range(len(pairs))]
        else:
            pair_encoded = [trainer.serializer.serialize_table(table)]
            index_pairs = [(0, i, j) for i, j in pairs]
        rel_probs = trainer.model.predict_relation_probs(
            pair_encoded, index_pairs, trainer.config.multi_label
        )
        for row, pair in enumerate(pairs):
            if trainer.config.multi_label:
                mask = rel_probs[row] >= 0.5
                if not mask.any():
                    mask[rel_probs[row].argmax()] = True
                colrels[pair] = [
                    dataset.relation_vocab[k] for k in np.flatnonzero(mask)
                ]
            else:
                colrels[pair] = [
                    dataset.relation_vocab[int(rel_probs[row].argmax())]
                ]

    embeddings = trainer.column_embeddings(table)
    return coltypes, type_scores, colrels, embeddings


ALL_TRAINERS = [
    "wikitable_trainer",
    "viznet_trainer",
    "single_column_trainer",
    "single_column_viznet_trainer",
]


@pytest.mark.smoke
class TestLegacyParity:
    """Doduo.annotate must reproduce the four-pass outputs bitwise."""

    @pytest.mark.parametrize("trainer_fixture", ALL_TRAINERS)
    def test_annotate_byte_identical(self, trainer_fixture, request):
        trainer = request.getfixturevalue(trainer_fixture)
        annotator = Doduo(trainer)
        for table in trainer.dataset.tables[:5]:
            expected_types, expected_scores, expected_rels, expected_emb = (
                legacy_annotate(trainer, table)
            )
            annotated = annotator.annotate(table)
            assert annotated.coltypes == expected_types
            assert annotated.type_scores == expected_scores
            assert annotated.colrels == expected_rels
            assert np.array_equal(annotated.colemb, expected_emb)

    def test_single_pass_replaces_four(self, wikitable_trainer):
        annotator = Doduo(wikitable_trainer)
        table = wikitable_trainer.dataset.tables[0]
        annotator.annotate(table)  # warm the lazy engine + cache
        before = wikitable_trainer.model.encode_calls
        annotator.annotate(table)
        assert wikitable_trainer.model.encode_calls - before == 1

    def test_coltypes_derived_from_type_scores(self, wikitable_trainer):
        """Regression for the historical double forward pass: the argmax /
        thresholding of ``type_scores`` must be exactly ``coltypes``."""
        annotator = Doduo(wikitable_trainer)
        vocab = list(wikitable_trainer.dataset.type_vocab)
        for table in wikitable_trainer.dataset.tables[:5]:
            annotated = annotator.annotate(table, with_embeddings=False)
            for c, scores in enumerate(annotated.type_scores):
                row = np.array([scores[name] for name in vocab])
                mask = row >= 0.5
                mask[row.argmax()] = True
                derived = [vocab[k] for k in np.flatnonzero(mask)]
                assert annotated.coltypes[c] == derived

    def test_annotate_many_matches_annotate(self, wikitable_trainer):
        annotator = Doduo(wikitable_trainer)
        tables = wikitable_trainer.dataset.tables[:4]
        many = annotator.annotate_many(tables)
        for table, from_many in zip(tables, many):
            single = annotator.annotate(table)
            assert from_many.coltypes == single.coltypes
            assert from_many.type_scores == single.type_scores
            assert from_many.colrels == single.colrels
            assert np.array_equal(from_many.colemb, single.colemb)


@pytest.mark.smoke
class TestBatchedEquivalence:
    """annotate_batch is BYTE-IDENTICAL to sequential annotate across modes
    and label regimes: no sequence is ever padded beyond the width it would
    use alone, so there is no tolerance."""

    @pytest.mark.parametrize("trainer_fixture", ALL_TRAINERS)
    def test_batched_vs_sequential_byte_identical(self, trainer_fixture, request):
        trainer = request.getfixturevalue(trainer_fixture)
        engine = AnnotationEngine(trainer, EngineConfig(batch_size=4))
        tables = trainer.dataset.tables[:10]
        batched = engine.annotate_batch(tables)
        assert [r.table.table_id for r in batched] == [t.table_id for t in tables]
        for table, result in zip(tables, batched):
            sequential = AnnotationEngine(trainer).annotate(table)
            assert result.coltypes == sequential.coltypes
            assert result.colrels == sequential.colrels
            assert result.annotated.requested_pairs == (
                sequential.annotated.requested_pairs
            )
            assert result.type_scores == sequential.type_scores  # exact floats
            assert np.array_equal(result.colemb, sequential.colemb)

    @pytest.mark.parametrize("path", ["fast", "reference"])
    def test_passes_per_drain(self, wikitable_trainer, path):
        """A session runs one padding-free pass per chunk of ``batch_size``
        whatever the widths; the reference path, which pads a batch to one width, runs one per
        exact width bucket of each chunk.  Either way results come back in
        request order and no slot is cross-request padding."""
        config = {
            "fast": EngineConfig(batch_size=3),
            "reference": EngineConfig(batch_size=3, kernels="reference"),
        }[path]
        engine = AnnotationEngine(wikitable_trainer, config)
        tables = wikitable_trainer.dataset.tables[:8]
        lengths = [
            wikitable_trainer.serializer.serialize_table(t).length for t in tables
        ]
        chunks = [lengths[k:k + 3] for k in range(0, len(lengths), 3)]
        assert any(len(set(chunk)) > 1 for chunk in chunks)  # or this pins nothing
        expected = len(chunks)
        if path == "reference":
            expected = sum(len(set(chunk)) for chunk in chunks)
        before = wikitable_trainer.model.encode_calls
        results = engine.annotate_batch(tables)
        assert [r.table.table_id for r in results] == [t.table_id for t in tables]
        assert wikitable_trainer.model.encode_calls - before == expected
        assert engine.stats.encoder_passes == expected
        assert engine.stats.batches == len(chunks)
        assert engine.stats.padded_tokens == engine.stats.real_tokens

    def test_empty_batch(self, wikitable_trainer):
        assert AnnotationEngine(wikitable_trainer).annotate_batch([]) == []


@pytest.mark.smoke
class TestEngineOptions:
    def test_top_k_truncates_scores(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer)
        table = wikitable_trainer.dataset.tables[0]
        result = engine.annotate(table, top_k=2)
        assert all(len(scores) == 2 for scores in result.type_scores)
        full = engine.annotate(table)
        for trimmed, scores in zip(result.type_scores, full.type_scores):
            expected = dict(
                sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
            )
            assert trimmed == expected

    def test_with_flags_disable_products(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer)
        table = wikitable_trainer.dataset.tables[0]
        result = engine.annotate(table, with_embeddings=False, with_relations=False)
        assert result.colemb is None
        assert result.colrels == {}
        assert result.annotated.requested_pairs == []

    def test_score_threshold_changes_decision(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer)
        table = wikitable_trainer.dataset.tables[0]
        strict = engine.annotate(table, score_threshold=1.0)
        # With an impossible threshold only the argmax survives.
        assert all(len(names) == 1 for names in strict.coltypes)

    def test_explicit_pairs(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer)
        table = next(
            t for t in wikitable_trainer.dataset.tables if t.num_columns >= 3
        )
        result = engine.annotate(table, pairs=[(0, 2)])
        assert list(result.colrels) == [(0, 2)]
        assert result.annotated.requested_pairs == [(0, 2)]

    def test_out_of_range_pair_rejected(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer)
        table = wikitable_trainer.dataset.tables[0]
        with pytest.raises(ValueError, match="out of range"):
            engine.annotate(table, pairs=[(0, table.num_columns)])

    def test_explicit_pairs_without_relation_head_fail_loudly(
        self, viznet_trainer
    ):
        engine = AnnotationEngine(viznet_trainer)  # type-only model
        table = viznet_trainer.dataset.tables[0]
        with pytest.raises(RuntimeError, match="without a relation head"):
            engine.annotate(table, pairs=[(0, 1)])
        # The default (no explicit pairs) still degrades gracefully.
        assert engine.annotate(table).colrels == {}

    def test_stream_rejects_zero_batch_size(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer)
        with pytest.raises(ValueError, match="batch_size"):
            next(engine.annotate_stream(wikitable_trainer.dataset.tables[:2],
                                        batch_size=0))

    def test_annotate_does_not_mutate_caller_request(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer)
        request = AnnotationRequest(table=wikitable_trainer.dataset.tables[0])
        first = engine.annotate(request, with_relations=False, top_k=1)
        assert first.colrels == {}
        # The caller's request object must be untouched by the overrides.
        assert request.options == AnnotationOptions()
        assert request.pairs is None
        second = engine.annotate(request)
        assert second.colrels != {}
        assert len(next(iter(second.type_scores))) > 1

    def test_score_threshold_rejected_for_single_label(self, viznet_trainer):
        engine = AnnotationEngine(viznet_trainer)
        table = viznet_trainer.dataset.tables[0]
        with pytest.raises(ValueError, match="multi-label"):
            engine.annotate(table, score_threshold=0.9)

    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError, match="top_k"):
            AnnotationOptions(top_k=0)
        with pytest.raises(ValueError, match="score_threshold"):
            AnnotationOptions(score_threshold=1.5)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="no columns"):
            AnnotationRequest(table=Table(columns=[], table_id="empty"))


@pytest.mark.smoke
class TestSerializationCache:
    def test_repeat_content_hits(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer, EngineConfig(cache_size=16))
        table = wikitable_trainer.dataset.tables[0]
        first = engine.annotate(table)
        assert not first.from_cache
        assert engine.stats.cache_misses == 1
        second = engine.annotate(table)
        assert second.from_cache
        assert engine.stats.cache_hits == 1
        assert second.coltypes == first.coltypes
        assert np.array_equal(second.colemb, first.colemb)

    def test_fingerprint_is_content_based(self):
        table_a = Table(
            columns=[Column(values=["x", "y"], header="h")], table_id="a"
        )
        table_b = Table(
            columns=[Column(values=["x", "y"], header="h")], table_id="b"
        )
        assert table_fingerprint(table_a) == table_fingerprint(table_b)
        table_c = Table(
            columns=[Column(values=["xy", ""], header="h")], table_id="c"
        )
        assert table_fingerprint(table_a) != table_fingerprint(table_c)

    def test_capacity_eviction(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer, EngineConfig(cache_size=2))
        tables = wikitable_trainer.dataset.tables[:3]
        engine.annotate_batch(tables)
        assert engine.cache_size == 2  # oldest entry evicted

    def test_cache_disabled(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer, EngineConfig(cache_size=0))
        table = wikitable_trainer.dataset.tables[0]
        engine.annotate(table)
        second = engine.annotate(table)
        assert not second.from_cache
        assert engine.cache_size == 0
        # No cache -> nothing to hit or miss.
        assert (engine.stats.cache_hits, engine.stats.cache_misses) == (0, 0)

    def test_clear_cache_resets_counters(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer, EngineConfig(cache_size=8))
        table = wikitable_trainer.dataset.tables[0]
        engine.annotate(table)
        engine.annotate(table)
        assert engine.stats.cache_hits == 1
        engine.clear_cache()
        assert engine.cache_size == 0
        assert (engine.stats.cache_hits, engine.stats.cache_misses) == (0, 0)
        assert not engine.annotate(table).from_cache

    def test_lru_unit(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert (cache.hits, cache.misses) == (3, 1)


@pytest.mark.smoke
class TestStreaming:
    def test_stream_matches_batch_over_generator(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer, EngineConfig(batch_size=4))
        tables = wikitable_trainer.dataset.tables[:10]
        streamed = list(engine.annotate_stream(iter(tables)))
        assert [r.table.table_id for r in streamed] == [
            t.table_id for t in tables
        ]
        batch_reference = AnnotationEngine(
            wikitable_trainer, EngineConfig(batch_size=4)
        ).annotate_batch(tables)
        for got, want in zip(streamed, batch_reference):
            assert got.coltypes == want.coltypes
            assert got.colrels == want.colrels

    def test_stream_is_lazy(self, wikitable_trainer):
        engine = AnnotationEngine(wikitable_trainer, EngineConfig(batch_size=2))
        pulled = []

        def source():
            for table in wikitable_trainer.dataset.tables[:6]:
                pulled.append(table.table_id)
                yield table

        stream = engine.annotate_stream(source())
        assert pulled == []  # nothing consumed before iteration
        next(stream)
        assert len(pulled) == 2  # exactly one chunk pulled
        assert sum(1 for _ in stream) == 5

    def test_stream_partial_final_chunk(self, viznet_trainer):
        engine = AnnotationEngine(viznet_trainer, EngineConfig(batch_size=4))
        tables = viznet_trainer.dataset.tables[:5]
        results = list(engine.annotate_stream(tables))
        assert len(results) == 5
        # Two drains (4 + 1 tables), one padding-free pass each whatever
        # the serialized lengths.
        assert engine.stats.batches == 2
        assert engine.stats.encoder_passes == 2
        assert engine.stats.padding_waste == 0.0


@pytest.mark.smoke
class TestAnnotatedTableContract:
    def test_top_types_out_of_range(self, wikitable_trainer):
        annotated = Doduo(wikitable_trainer).annotate(
            wikitable_trainer.dataset.tables[0]
        )
        with pytest.raises(IndexError, match="out of range"):
            annotated.top_types(annotated.table.num_columns + 3)
        with pytest.raises(IndexError, match="out of range"):
            annotated.top_types(-1)

    def test_requested_pairs_exposed(self, wikitable_trainer):
        annotator = Doduo(wikitable_trainer)
        for table in wikitable_trainer.dataset.tables[:4]:
            annotated = annotator.annotate(table)
            assert annotated.requested_pairs == default_relation_pairs(table)
            assert sorted(annotated.colrels) == sorted(annotated.requested_pairs)

    def test_unlabeled_table_probes_subject_pairs(self, wikitable_trainer):
        source = wikitable_trainer.dataset.tables[0]
        bare = Table(columns=source.columns, table_id="bare")
        annotated = Doduo(wikitable_trainer).annotate(bare)
        expected = [(0, j) for j in range(1, bare.num_columns)]
        assert annotated.requested_pairs == expected


@pytest.mark.smoke
class TestCacheShimRemoved:
    def test_shim_module_is_gone(self):
        """The deprecated repro.serving.cache shim (PR-3's compatibility
        alias, warned since PR-4 with zero in-repo importers) is deleted;
        the promoted objects live in repro.encoding and stay re-exported
        from repro.serving for convenience."""
        import importlib
        import sys

        sys.modules.pop("repro.serving.cache", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serving.cache")
        from repro.encoding.cache import LRUCache, table_fingerprint
        from repro.serving import LRUCache as served_lru
        from repro.serving import table_fingerprint as served_fingerprint

        assert served_lru is LRUCache
        assert served_fingerprint is table_fingerprint
