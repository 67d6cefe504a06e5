"""The persistent result-cache tier: what is stored + engine integration.

(The store itself — segments, reopen, torn writes, compaction — is
``tests/test_fabric.py``.)  The load-bearing guarantees:

* a disk hit reproduces the producing pass **byte-identically** (floats
  survive the JSON round trip exactly, embeddings keep dtype and shape);
* a fresh engine over a warmed cache directory answers a repeated corpus
  with **zero** encoder passes — the cross-restart guarantee;
* entries are invalidated (clean misses, no stale bytes) when the model
  fingerprint or the request options change;
* corrupt segment lines are skipped and counted, never fatal.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DoduoConfig, DoduoTrainer
from repro.datasets import generate_wikitable_dataset
from repro.nn import TransformerConfig
from repro.serving import (
    AnnotationEngine,
    AnnotationOptions,
    AnnotationRequest,
    EngineConfig,
    result_cache_key,
)
from repro.text import train_wordpiece


def _train(dataset, **config_overrides) -> DoduoTrainer:
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=600)
    encoder_config = TransformerConfig(
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
    trainer = DoduoTrainer(dataset, tokenizer, encoder_config, config)
    trainer.train()
    return trainer


@pytest.fixture(scope="module")
def dataset():
    return generate_wikitable_dataset(num_tables=20, seed=11, max_rows=4)


@pytest.fixture(scope="module")
def trainer(dataset):
    return _train(dataset)


@pytest.mark.smoke
class TestEngineDiskTier:
    """The engine's persistent tier: hit/miss, restarts, invalidation."""

    def test_hit_is_byte_identical_and_skips_encoder(self, trainer, tmp_path):
        engine = AnnotationEngine(trainer, EngineConfig(cache_dir=str(tmp_path)))
        table = trainer.dataset.tables[0]
        cold = engine.annotate(table)
        assert not cold.from_disk
        passes_before = trainer.model.encode_calls
        warm = engine.annotate(table)
        assert warm.from_disk
        assert trainer.model.encode_calls == passes_before  # no forward pass
        assert warm.coltypes == cold.coltypes
        assert warm.type_scores == cold.type_scores  # exact floats
        assert warm.colrels == cold.colrels
        assert warm.annotated.requested_pairs == cold.annotated.requested_pairs
        assert np.array_equal(warm.colemb, cold.colemb)
        assert warm.colemb.dtype == cold.colemb.dtype

    def test_warm_restart_zero_passes(self, trainer, tmp_path):
        tables = trainer.dataset.tables[:6]
        AnnotationEngine(
            trainer, EngineConfig(cache_dir=str(tmp_path))
        ).annotate_batch(tables)
        restarted = AnnotationEngine(trainer, EngineConfig(cache_dir=str(tmp_path)))
        passes_before = trainer.model.encode_calls
        results = restarted.annotate_batch(tables)
        assert trainer.model.encode_calls == passes_before
        assert restarted.stats.disk_hits == len(tables)
        assert all(r.from_disk for r in results)

    def test_partial_hit_batch(self, trainer, tmp_path):
        engine = AnnotationEngine(trainer, EngineConfig(cache_dir=str(tmp_path)))
        tables = trainer.dataset.tables[:4]
        engine.annotate_batch(tables[:2])
        results = engine.annotate_batch(tables)  # 2 hits + 2 misses
        assert [r.from_disk for r in results] == [True, True, False, False]
        assert [r.table.table_id for r in results] == [t.table_id for t in tables]
        # The two misses are now cached too.
        again = engine.annotate_batch(tables)
        assert all(r.from_disk for r in again)

    def test_options_change_misses(self, trainer, tmp_path):
        engine = AnnotationEngine(trainer, EngineConfig(cache_dir=str(tmp_path)))
        table = trainer.dataset.tables[0]
        full = engine.annotate(table)
        trimmed = engine.annotate(table, top_k=2)
        assert not trimmed.from_disk  # different options -> different key
        assert all(len(scores) == 2 for scores in trimmed.type_scores)
        assert len(full.type_scores[0]) == trainer.dataset.num_types
        # Both variants now hit independently.
        assert engine.annotate(table).from_disk
        assert engine.annotate(table, top_k=2).from_disk

    def test_model_change_invalidates(self, dataset, tmp_path):
        trainer_a = _train(dataset)
        engine_a = AnnotationEngine(trainer_a, EngineConfig(cache_dir=str(tmp_path)))
        table = dataset.tables[0]
        engine_a.annotate(table)
        # Same data, differently-seeded weights: must not share entries.
        trainer_b = _train(dataset, seed=123)
        assert trainer_a.annotation_fingerprint() != trainer_b.annotation_fingerprint()
        engine_b = AnnotationEngine(trainer_b, EngineConfig(cache_dir=str(tmp_path)))
        result = engine_b.annotate(table)
        assert not result.from_disk
        assert engine_b.stats.disk_misses == 1

    def test_weight_mutation_changes_fingerprint(self, dataset):
        trainer = _train(dataset)
        before = trainer.model.fingerprint()
        param = trainer.model.parameters()[0]
        param.data = param.data + 1e-3
        assert trainer.model.fingerprint() != before

    def test_fingerprint_stable_across_save_load(self, trainer, tmp_path):
        from repro.core import Doduo, save_annotator
        from repro.core.persistence import load_annotator

        save_annotator(Doduo(trainer), tmp_path / "bundle")
        loaded = load_annotator(tmp_path / "bundle")
        assert (
            loaded.trainer.annotation_fingerprint()
            == trainer.annotation_fingerprint()
        )

    def test_key_ignores_table_id_but_not_content(self, trainer):
        from repro.datasets import Column, Table

        fingerprint = trainer.annotation_fingerprint()
        table_a = Table(columns=[Column(values=["x", "y"], header="h")], table_id="a")
        table_b = Table(columns=[Column(values=["x", "y"], header="h")], table_id="b")
        table_c = Table(columns=[Column(values=["x", "z"], header="h")], table_id="a")
        key = lambda t, **kw: result_cache_key(
            fingerprint, AnnotationRequest(table=t, **kw)
        )
        assert key(table_a) == key(table_b)
        assert key(table_a) != key(table_c)
        assert key(table_a) != key(
            table_a, options=AnnotationOptions(with_embeddings=False)
        )
        assert key(table_a) != key(table_a, pairs=[(0, 0)])

    def test_corrupt_cache_recovers_by_recomputing(self, trainer, tmp_path):
        engine = AnnotationEngine(trainer, EngineConfig(cache_dir=str(tmp_path)))
        table = trainer.dataset.tables[0]
        cold = engine.annotate(table)
        # Corrupt every record on disk, then restart.
        for segment in tmp_path.glob("segment-*.jsonl"):
            segment.write_text("not json at all\n")
        recovered = AnnotationEngine(trainer, EngineConfig(cache_dir=str(tmp_path)))
        assert recovered.result_cache.stats.corrupt_records == 1
        result = recovered.annotate(table)
        assert not result.from_disk  # recomputed, not served stale
        assert result.type_scores == cold.type_scores
        assert recovered.annotate(table).from_disk  # and re-cached

    def test_payloads_are_json(self, trainer, tmp_path):
        """The on-disk format is inspectable JSONL, one record per line."""
        engine = AnnotationEngine(trainer, EngineConfig(cache_dir=str(tmp_path)))
        engine.annotate(trainer.dataset.tables[0])
        (segment,) = tmp_path.glob("segment-*.jsonl")
        record = json.loads(segment.read_text().splitlines()[0])
        assert set(record) == {"key", "payload"}
        assert {"coltypes", "type_scores", "colrels"} <= set(record["payload"])
