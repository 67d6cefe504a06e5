"""The unified encoding layer: pipeline cache, exact batch planning, padding.

The load-bearing guarantees:

* :class:`~repro.encoding.BatchPlanner` composes exact width buckets —
  identical signatures share a batch, everything else never does — and its
  :class:`~repro.encoding.PaddingReport` arithmetic is correct;
* the :class:`~repro.encoding.EncodingPipeline` cache is shared across
  training, evaluation, and serving (one serialization per content);
* serializer edge cases (empty columns, single-column tables, unicode-heavy
  cells, tables wider than the sequence budget) flow through the pipeline
  with **byte-identical** batched vs sequential annotation in both
  table-wise and single-column modes;
* ``pad_batch``/``pad_token_lists`` honor explicit width/dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Doduo, DoduoConfig, DoduoTrainer
from repro.datasets import Column, Table, generate_wikitable_dataset
from repro.encoding import (
    BatchPlanner,
    EncodingPipeline,
    PaddingReport,
    pad_batch,
    pad_token_lists,
    width_signature,
)
from repro.nn import TransformerConfig
from repro.serving import AnnotationEngine, EngineConfig
from repro.text import train_wordpiece


@pytest.fixture(scope="module")
def dataset():
    return generate_wikitable_dataset(num_tables=20, seed=11, max_rows=4)


def _train(dataset, **overrides) -> DoduoTrainer:
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=600)
    config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=32,
        num_layers=2,
        num_heads=2,
        ffn_dim=64,
        max_position=160,
        num_segments=8,
        dropout=0.0,
    )
    trainer = DoduoTrainer(
        dataset,
        tokenizer,
        config,
        DoduoConfig(epochs=1, batch_size=8, keep_best_checkpoint=False,
                    **overrides),
    )
    trainer.train()
    return trainer


@pytest.fixture(scope="module")
def trainer(dataset):
    return _train(dataset)


@pytest.fixture(scope="module")
def single_column_trainer(dataset):
    return _train(dataset, single_column=True)


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

class TestBatchPlanner:
    def test_exact_buckets_are_homogeneous(self):
        signatures = [(10,), (12,), (10,), (7,), (12,), (10,)]
        planner = BatchPlanner(batch_size=8)
        batches = planner.plan(signatures)
        seen = []
        for batch in batches:
            keys = {signatures[i] for i in batch}
            assert len(keys) == 1  # never mixes widths
            seen.extend(batch)
        assert sorted(seen) == list(range(len(signatures)))
        # ordered=True emits buckets by ascending signature
        widths = [signatures[batch[0]][0] for batch in batches]
        assert widths == sorted(widths)

    def test_batch_size_caps_buckets(self):
        planner = BatchPlanner(batch_size=2)
        batches = planner.plan([(5,)] * 7)
        assert [len(b) for b in batches] == [2, 2, 2, 1]

    def test_first_seen_order(self):
        planner = BatchPlanner(batch_size=8, ordered=False)
        batches = planner.plan([(9,), (3,), (9,)])
        assert batches == [[0, 2], [1]]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchPlanner(batch_size=0)

    def test_exact_plan_has_zero_waste(self):
        lengths = [10, 12, 10, 7, 12, 10]
        planner = BatchPlanner(batch_size=4)
        exact = planner.plan([(length,) for length in lengths])
        report = BatchPlanner.report(lengths, exact)
        assert report.wasted_tokens == 0
        assert report.waste_ratio == 0.0
        assert report.real_tokens == sum(lengths)
        assert report.sequences == len(lengths)

    def test_padded_plan_reports_waste(self):
        lengths = [4, 16]
        report = BatchPlanner.report(lengths, [[0, 1]])  # padded jointly
        assert report.padded_tokens == 32  # both rows padded to 16
        assert report.wasted_tokens == 12
        assert report.waste_ratio == pytest.approx(12 / 32)

    def test_report_addition(self):
        a = PaddingReport(sequences=1, batches=1, real_tokens=5, padded_tokens=8)
        b = PaddingReport(sequences=2, batches=1, real_tokens=6, padded_tokens=6)
        total = a + b
        assert total.sequences == 3
        assert total.padded_tokens == 14
        assert total.wasted_tokens == 3

    def test_width_signature(self):
        assert width_signature([3, 9, 5]) == (9,)
        assert width_signature([]) == (0,)


# ---------------------------------------------------------------------------
# Pipeline cache
# ---------------------------------------------------------------------------

class TestEncodingPipeline:
    def test_one_serialization_per_content(self, trainer):
        pipeline = EncodingPipeline(trainer.serializer)
        table = trainer.dataset.tables[0]
        first = pipeline.encode_table(table)
        again = pipeline.encode_table(table)
        assert again is first  # the cached artifact itself
        twin = Table(columns=table.columns, table_id="other-id")
        assert pipeline.encode_table(twin) is first  # content-keyed
        assert pipeline.stats.serializations == 1
        assert pipeline.stats.hits == 2

    def test_kinds_do_not_collide(self, trainer):
        pipeline = EncodingPipeline(trainer.serializer)
        table = trainer.dataset.tables[0]
        whole = pipeline.encode_table(table)
        columns = pipeline.encode_columns(table)
        assert isinstance(columns, list)
        assert whole.length != 0 and len(columns) == table.num_columns
        pair = pipeline.encode_pair(table, 0, 1)
        # pair sequences cost len_i + len_j tokens (doc'd invariant the
        # planner's signature arithmetic relies on)
        assert pair.length == columns[0].length + columns[1].length

    def test_encode_cached_reports_hits(self, trainer):
        pipeline = EncodingPipeline(trainer.serializer)
        table = trainer.dataset.tables[0]
        _, hit = pipeline.encode_cached(table)
        assert not hit
        _, hit = pipeline.encode_cached(table)
        assert hit
        pipeline.clear_cache()
        _, hit = pipeline.encode_cached(table)
        assert not hit

    def test_cache_disabled(self, trainer):
        pipeline = EncodingPipeline(trainer.serializer, cache_size=0)
        table = trainer.dataset.tables[0]
        a = pipeline.encode_table(table)
        b = pipeline.encode_table(table)
        assert a is not b
        assert pipeline.stats.serializations == 2
        assert pipeline.cache_size == 0

    def test_trainer_and_engine_share_cache(self, trainer):
        """The tentpole property: evaluation warms serving and vice versa."""
        trainer.encoding.clear_cache()
        trainer.evaluate(trainer.dataset)  # serializes every table
        engine = AnnotationEngine(trainer)  # default: shared pipeline
        result = engine.annotate(trainer.dataset.tables[0])
        assert result.from_cache  # no re-serialization after evaluate
        assert engine.stats.cache_misses == 0

    def test_annotation_signature_modes(self, trainer):
        table = trainer.dataset.tables[0]
        pipeline = EncodingPipeline(trainer.serializer)
        whole = pipeline.encode_table(table)
        assert pipeline.annotation_signature(whole) == (whole.length, 0)
        columns = pipeline.encode_columns(table)
        signature = pipeline.annotation_signature(columns, [(0, 1)])
        assert signature == (
            max(e.length for e in columns),
            columns[0].length + columns[1].length,
        )


# ---------------------------------------------------------------------------
# Shared padding implementation
# ---------------------------------------------------------------------------

class TestPadding:
    def test_explicit_width(self):
        ids, mask = pad_token_lists([[1, 2], [3]], pad_id=0, width=5)
        assert ids.shape == (2, 5)
        assert ids[0].tolist() == [1, 2, 0, 0, 0]
        assert mask.sum() == 3

    def test_width_too_small_rejected(self):
        with pytest.raises(ValueError, match="width"):
            pad_token_lists([[1, 2, 3]], pad_id=0, width=2)

    def test_dtype(self):
        ids, _ = pad_token_lists([[1]], pad_id=0, dtype=np.int32)
        assert ids.dtype == np.int32

    def test_pad_batch_delegates(self, trainer):
        encoded = [
            trainer.encoding.encode_table(t) for t in trainer.dataset.tables[:3]
        ]
        ids, mask = pad_batch(encoded, pad_id=0)
        wide_ids, wide_mask = pad_batch(encoded, pad_id=0, width=ids.shape[1] + 4)
        assert wide_ids.shape[1] == ids.shape[1] + 4
        np.testing.assert_array_equal(wide_ids[:, : ids.shape[1]], ids)
        assert wide_mask.sum() == mask.sum()


# ---------------------------------------------------------------------------
# Serializer edge cases through the pipeline (byte-identity each way)
# ---------------------------------------------------------------------------

def _edge_tables():
    return [
        Table(  # empty column alongside a populated one
            columns=[
                Column(values=[], header="empty"),
                Column(values=["alpha", "beta"], header="full"),
            ],
            table_id="edge-empty-column",
        ),
        Table(  # single-column table
            columns=[Column(values=["solo", "values", "only"], header="one")],
            table_id="edge-single-column",
        ),
        Table(  # unicode-heavy cells: CJK, emoji, combining marks, RTL
            columns=[
                Column(values=["渋谷区", "新宿区"], header="区"),
                Column(values=["🚀🌑", "✨"], header="émoji"),
                Column(values=["עִבְרִית", "ελληνικά"], header="ẖéader"),
            ],
            table_id="edge-unicode",
        ),
    ]


def _assert_byte_identical(result, reference):
    assert result.coltypes == reference.coltypes
    assert result.type_scores == reference.type_scores
    assert result.colrels == reference.colrels
    if reference.colemb is None:
        assert result.colemb is None
    else:
        assert np.array_equal(result.colemb, reference.colemb)


@pytest.mark.smoke
class TestSerializerEdgeCases:
    @pytest.mark.parametrize("mode", ["table_wise", "single_column"])
    def test_edge_tables_batched_vs_sequential(self, mode, request):
        fixture = "trainer" if mode == "table_wise" else "single_column_trainer"
        trainer = request.getfixturevalue(fixture)
        tables = _edge_tables() + trainer.dataset.tables[:4]
        engine = AnnotationEngine(trainer, EngineConfig(batch_size=4))
        batched = engine.annotate_batch(tables)
        assert [r.table.table_id for r in batched] == [t.table_id for t in tables]
        for table, result in zip(tables, batched):
            sequential = AnnotationEngine(trainer).annotate(table)
            _assert_byte_identical(result, sequential)

    def test_empty_column_encodes(self, trainer):
        table = _edge_tables()[0]
        encoded = trainer.encoding.encode_table(table)
        # The empty column still gets its [CLS]; no values follow it.
        assert encoded.num_columns == 2
        assert (encoded.column_ids == 0).sum() == 1  # just the [CLS]

    def test_single_column_table_annotates(self, trainer):
        table = _edge_tables()[1]
        annotated = Doduo(trainer).annotate(table)
        assert len(annotated.coltypes) == 1
        assert annotated.colrels == {}  # nothing to relate

    def test_unicode_cache_roundtrip(self, trainer):
        table = _edge_tables()[2]
        pipeline = EncodingPipeline(trainer.serializer)
        first = pipeline.encode_table(table)
        assert pipeline.encode_table(table) is first

    def test_table_wider_than_budget_fails_loudly(self, trainer):
        budget = trainer.serializer.config.max_sequence_length
        max_columns = trainer.serializer.max_columns_within(budget)
        wide = Table(
            columns=[
                Column(values=[f"value-{c}-{r}" for r in range(4)],
                       header=f"column-{c}")
                for c in range(max_columns + 1)
            ],
            table_id="edge-too-wide",
        )
        with pytest.raises(ValueError, match="max_sequence_length"):
            trainer.encoding.encode_table(wide)
        engine = AnnotationEngine(trainer)
        with pytest.raises(ValueError, match="max_sequence_length"):
            engine.annotate(wide)
        # The engine stays serviceable after the failure.
        assert engine.annotate(trainer.dataset.tables[0]).coltypes


# ---------------------------------------------------------------------------
# Trainer integration: exact planning everywhere
# ---------------------------------------------------------------------------

@pytest.mark.smoke
class TestTrainerIntegration:
    def test_predict_types_batched_equals_per_table(self, trainer):
        tables = trainer.dataset.tables[:8]
        batched = trainer.predict_types(tables)
        for table, prediction in zip(tables, batched):
            alone = trainer.predict_types([table])[0]
            np.testing.assert_array_equal(prediction, alone)

    def test_training_history_reports_padding(self, trainer):
        history = trainer.history
        assert history.padded_tokens >= history.real_tokens > 0
        assert 0.0 <= history.padding_waste < 1.0

    def test_engine_padding_waste_zero_for_table_wise(self, trainer):
        engine = AnnotationEngine(trainer, EngineConfig(batch_size=4))
        engine.annotate_batch(trainer.dataset.tables[:8])
        assert engine.stats.padding_waste == 0.0
        assert engine.stats.real_tokens > 0

    def test_single_column_waste_matches_sequential_floor(
        self, single_column_trainer
    ):
        """Single-column buckets may pad short columns to their own table's
        widest — exactly what sequential annotation pads — but batching must
        add nothing on top."""
        trainer = single_column_trainer
        tables = trainer.dataset.tables[:8]
        batched = AnnotationEngine(trainer, EngineConfig(batch_size=4))
        batched.annotate_batch(tables)
        sequential = AnnotationEngine(trainer)
        for table in tables:
            sequential.annotate(table)
        assert batched.stats.real_tokens == sequential.stats.real_tokens
        assert batched.stats.padded_tokens == sequential.stats.padded_tokens

    def test_predict_relations_batched_equals_per_table(self, trainer):
        """The evaluation path's relation predictions are batched on exact
        width boundaries with per-table head groups, so predictions stay
        byte-identical to one-table-at-a-time calls."""
        tables = trainer.dataset.tables[:8]
        batched = trainer.predict_relations(tables)
        for table, prediction in zip(tables, batched):
            alone = trainer.predict_relations([table])[0]
            assert set(prediction) == set(alone)
            for pair in prediction:
                np.testing.assert_array_equal(prediction[pair], alone[pair])

    def test_predict_relations_batched_equals_per_table_single_column(
        self, single_column_trainer
    ):
        tables = single_column_trainer.dataset.tables[:6]
        batched = single_column_trainer.predict_relations(tables)
        for table, prediction in zip(tables, batched):
            alone = single_column_trainer.predict_relations([table])[0]
            assert set(prediction) == set(alone)
            for pair in prediction:
                np.testing.assert_array_equal(prediction[pair], alone[pair])

    def test_predict_relations_shares_encoder_passes(self, trainer):
        """Tables with pairs to probe share one padding-free pass per chunk
        of ``config.batch_size``, whatever their widths (it was one pass per
        exact width bucket, and historically one per such table)."""
        tables = trainer.dataset.tables[:10]
        active = [t for t in tables if sorted(t.relation_labels)]
        buckets = {trainer.encoding.encode_table(t).length for t in active}
        assert len(buckets) > 1  # or this pins nothing
        passes_before = trainer.model.encode_calls
        trainer.predict_relations(tables)
        batched_passes = trainer.model.encode_calls - passes_before
        assert batched_passes == -(-len(active) // trainer.config.batch_size)
        assert batched_passes <= len(active)

    def test_annotation_fingerprint_memoized_and_invalidated(self, dataset):
        trainer = _train(dataset)
        first = trainer.annotation_fingerprint()
        assert trainer.annotation_fingerprint() is first  # memo: same str
        trainer.invalidate_fingerprint()
        assert trainer.annotation_fingerprint() == first  # weights unchanged
        # A LIVE engine must observe the re-key too: its cache keys and
        # routes delegate to the trainer's memo instead of freezing the
        # fingerprint at engine construction.
        engine = AnnotationEngine(trainer)
        assert engine.model_fingerprint == first
        trainer.train()  # further fine-tuning re-keys the fingerprint
        assert trainer.annotation_fingerprint() != first
        assert engine.model_fingerprint == trainer.annotation_fingerprint()
