"""The one annotation pass: evaluation, the toolbox and serving all run
``DoduoTrainer.annotate_batch``.

* ``predict_types`` / ``predict_relations`` of any batch, in any order, at
  any ``batch_size``, ``==`` each table alone ``==`` the decisions of the
  reference-path oracle; ``evaluate()`` is the metrics of those decisions.
* The column store changes cost, never bytes, and encodes a column that is
  repeated inside one chunk once.
* The Tensor path takes a chunk of mixed widths: one padded pass per
  distinct width.
* A **work ledger**: the countable work of a fixed drain (passes, tokens,
  pairs, column-store traffic) equals literals captured from the parent of
  the commit that introduced this file — "the pass structure did not
  move" as a test.  Token and pass counts do not depend on the BLAS build;
  the rows the last block computes take one of two values, by whether the
  build passes the pruning proofs.
* Row-stability verdicts are proven once per model, not once per session
  rebuild (``train()`` rebuilds one per epoch of validation).

Four fixture models: table-wise × single-column, multi-label ×
single-label, all with a relation head.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decide_pruning_now, pruning_proven

from repro.core import DoduoConfig, DoduoTrainer
from repro.core.trainer import decide_labels
from repro.datasets import Table, TableDataset, generate_wikitable_dataset
from repro.encoding import column_fingerprint
from repro.evaluation.metrics import multiclass_micro_f1, multilabel_micro_prf
from repro.nn import TransformerConfig, kernels
from repro.serving import AnnotationEngine, ColumnCache, EngineConfig
from repro.text import train_wordpiece

MODELS = ["table-multi", "table-single", "scol-multi", "scol-single"]
SINGLE_COLUMN = [name for name in MODELS if name.startswith("scol")]


@pytest.fixture(scope="module")
def dataset():
    return generate_wikitable_dataset(num_tables=24, seed=11, max_rows=6)


@pytest.fixture(scope="module")
def trainers(dataset):
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=600)
    encoder = TransformerConfig(
        vocab_size=tokenizer.vocab_size, hidden_dim=32, num_layers=2, num_heads=2,
        ffn_dim=64, max_position=160, num_segments=8, dropout=0.0,
    )
    built = {}
    for name in MODELS:
        mode, labels = name.split("-")
        trainer = DoduoTrainer(
            dataset, tokenizer, encoder,
            DoduoConfig(
                epochs=1, batch_size=8, single_column=mode == "scol",
                multi_label=labels == "multi", keep_best_checkpoint=False,
            ),
        )
        trainer.train()
        built[name] = trainer
    return built


def _drain(dataset):
    """Sixteen tables, two chunks of eight: twelve of the corpus, then four
    that repeat columns of the first chunk — every column of a table (its
    width again: column-store hits), some of them, two tables' mixed."""
    t = dataset.tables
    return t[:12] + [
        Table(columns=list(reversed(t[0].columns)), table_id="reversed"),
        Table(columns=t[1].columns[:2], table_id="prefix"),
        Table(columns=[t[2].columns[0], t[3].columns[0]], table_id="stitched"),
        Table(
            columns=list(t[4].columns), table_id="verbatim",
            relation_labels=dict(t[4].relation_labels),
        ),
    ]


@pytest.fixture(scope="module")
def pool(dataset):
    """The drain (its last tables but one carry no gold pairs) and the rest
    of the corpus."""
    return _drain(dataset) + dataset.tables[12:]


def _oracle_decisions(trainer, table):
    """(types, relations) decided from the table alone through the Tensor
    path, probing its gold pairs."""
    multi_label = trainer.config.multi_label
    raw = trainer.annotate_batch(
        [table], pair_requests=[sorted(table.relation_labels)],
        with_embeddings=False, kernels="reference",
    )[0]
    return decide_labels(raw.type_probs, multi_label), {
        pair: decide_labels(probs[None], multi_label)[0]
        for pair, probs in raw.relation_probs.items()
    }


class TestEvaluationIsTheServingPass:
    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(MODELS),
        picks=st.lists(st.integers(0, 27), min_size=1, max_size=12),
        batch_size=st.integers(1, 9),
    )
    def test_batch_equals_alone_equals_oracle(
        self, trainers, pool, name, picks, batch_size
    ):
        trainer = trainers[name]
        tables = [pool[i] for i in picks]
        configured = trainer.config.batch_size
        trainer.config.batch_size = batch_size
        try:
            types = trainer.predict_types(tables)
            relations = trainer.predict_relations(tables)
        finally:
            trainer.config.batch_size = configured
        assert len(types) == len(relations) == len(tables)
        for table, got_types, got_relations in zip(tables, types, relations):
            want_types, want_relations = _oracle_decisions(trainer, table)
            alone_types = trainer.predict_types([table])[0]
            alone_relations = trainer.predict_relations([table])[0]
            assert got_types.dtype == alone_types.dtype == want_types.dtype
            assert (got_types == alone_types).all()
            assert (got_types == want_types).all()
            assert (
                set(got_relations) == set(alone_relations) == set(want_relations)
                == set(table.relation_labels)
            )
            for pair, decided in got_relations.items():
                assert isinstance(decided, np.ndarray)
                assert (decided == alone_relations[pair]).all()
                assert (decided == want_relations[pair]).all()
            if not table.relation_labels:
                assert got_relations == {}

    @pytest.mark.parametrize("name", MODELS)
    def test_evaluate_is_the_metrics_of_the_oracle_annotations(
        self, trainers, dataset, name
    ):
        trainer = trainers[name]
        tables = dataset.tables
        decided = [_oracle_decisions(trainer, table) for table in tables]
        true_pairs, predicted_pairs = [], []
        for table, (_, relations) in zip(tables, decided):
            for pair in sorted(table.relation_labels):
                true_pairs.append(
                    np.isin(
                        np.arange(dataset.num_relations),
                        [dataset.relation_id(n) for n in table.relation_labels[pair]],
                    )
                )
                predicted_pairs.append(
                    relations[pair] if trainer.config.multi_label
                    else np.arange(dataset.num_relations) == relations[pair]
                )
        if trainer.config.multi_label:
            want_types = multilabel_micro_prf(
                np.concatenate([trainer._indicator_for(t, dataset) for t in tables]),
                np.concatenate([types for types, _ in decided]),
            )
        else:
            want_types = multiclass_micro_f1(
                np.asarray([
                    dataset.type_id(column.type_labels[0])
                    for table in tables for column in table.columns
                ]),
                np.concatenate([types for types, _ in decided]),
            )
        want_relations = multilabel_micro_prf(
            np.stack(true_pairs), np.stack(predicted_pairs)
        )
        passes_before = trainer.model.encode_calls
        scores = trainer.evaluate(dataset)
        assert scores == {"type": want_types, "relation": want_relations}
        # One sweep feeds both metrics: a pass per chunk (single-column:
        # columns, then pairs), not a sweep per task.
        chunks = -(-len(tables) // trainer.config.batch_size)
        assert trainer.model.encode_calls - passes_before == chunks * (
            2 if trainer.config.single_column else 1
        )

    def test_a_dataset_without_relations_scores_types_only(self, trainers, dataset):
        unlabeled = TableDataset(
            [Table(columns=t.columns, table_id=t.table_id) for t in dataset.tables],
            type_vocab=dataset.type_vocab, relation_vocab=[],
        )
        assert set(trainers["table-multi"].evaluate(unlabeled)) == {"type"}


class TestColumnStore:
    @pytest.mark.parametrize("name", SINGLE_COLUMN)
    def test_repeated_column_is_encoded_once_and_bytes_hold(
        self, trainers, dataset, name, monkeypatch
    ):
        trainer = trainers[name]
        first, other = dataset.tables[0], dataset.tables[5]
        chunk = [
            first,
            Table(columns=list(reversed(first.columns)), table_id="again"),
            other,
        ]
        widths = [
            trainer.encoding.annotation_width(trainer.encoding.encode(t))
            for t in chunk
        ]
        distinct = {
            (column_fingerprint(column), width)
            for table, width in zip(chunk, widths) for column in table.columns
        }
        assert len(distinct) == first.num_columns + other.num_columns
        encoded_sequences = []
        encode_states = trainer.model.encode_states

        def counting(encoded, *args, **kwargs):
            encoded_sequences.append(len(encoded))
            return encode_states(encoded, *args, **kwargs)

        monkeypatch.setattr(trainer.model, "encode_states", counting)
        store = ColumnCache(64)
        cached = trainer.annotate_batch(chunk, column_cache=store)
        # The column pass held each distinct (column, width) once; the
        # pair pass followed.
        assert encoded_sequences[0] == len(distinct) == len(store)
        assert store.hits == 0
        plain = trainer.annotate_batch(chunk)
        warm = trainer.annotate_batch(chunk, column_cache=store)
        assert store.hits == sum(t.num_columns for t in chunk)
        for got in (cached, warm):
            for a, b in zip(got, plain):
                assert (a.type_probs == b.type_probs).all()
                assert (a.embeddings == b.embeddings).all()
                assert a.probed_pairs == b.probed_pairs
                for pair in a.probed_pairs:
                    assert (a.relation_probs[pair] == b.relation_probs[pair]).all()

    def test_table_wise_mode_ignores_the_store(self, trainers, dataset):
        store = ColumnCache(64)
        trainers["table-multi"].annotate_batch(dataset.tables[:3], column_cache=store)
        assert len(store) == store.hits == store.misses == 0


class TestTensorPath:
    @pytest.mark.parametrize("name", MODELS)
    def test_mixed_widths_run_one_padded_pass_per_distinct_width(
        self, trainers, dataset, name
    ):
        trainer = trainers[name]
        tables = dataset.tables[:8]
        signatures = [
            trainer.encoding.annotation_signature(
                trainer.encoding.encode(t), sorted(t.relation_labels)
            )
            for t in tables
        ]
        column_widths = {columns for columns, _ in signatures}
        pair_widths = {pairs for _, pairs in signatures} - {0}
        assert len(column_widths) > 1  # or this pins nothing
        model = trainer.model

        def odometers():
            return np.array(
                [model.encode_calls, model.real_tokens, model.padded_tokens]
            )

        start = odometers()
        reference = trainer.annotate_batch(tables, kernels="reference")
        between = odometers()
        fast = trainer.annotate_batch(tables)
        passes, *slots = between - start
        fast_passes, *fast_slots = odometers() - between
        assert passes == len(column_widths) + len(pair_widths)
        assert fast_passes == (2 if trainer.config.single_column else 1)
        # Exact buckets pad like the ragged pass does — not at all across
        # tables — so both paths count the same token slots.
        assert slots == fast_slots
        for a, b in zip(reference, fast):
            assert (a.type_probs == b.type_probs).all()
            assert (a.embeddings == b.embeddings).all()
            assert list(a.relation_probs) == list(b.relation_probs)
            for pair, probs in a.relation_probs.items():
                assert (probs == b.relation_probs[pair]).all()


#: Countable work of ``_drain`` through ``EngineConfig(batch_size=8)``,
#: captured at the parent of the commit that made ``annotate_batch`` one
#: routine (and unchanged by it).  ``last_block_rows`` joined with the
#: pruned last block: the literal is the count once both pruning verdicts
#: are proven; unproven or disproven it equals ``padded_tokens``.
LEDGER = {
    "table-multi": dict(
        encoder_passes=2, real_tokens=469, padded_tokens=469, pairs_probed=37,
        column_hits=0, column_misses=0, last_block_rows=53,
    ),
    "table-single": dict(
        encoder_passes=2, real_tokens=469, padded_tokens=469, pairs_probed=37,
        column_hits=0, column_misses=0, last_block_rows=53,
    ),
    "scol-multi": dict(
        encoder_passes=4, real_tokens=1113, padded_tokens=1139, pairs_probed=37,
        column_hits=11, column_misses=42, last_block_rows=158,
    ),
    "scol-single": dict(
        encoder_passes=4, real_tokens=1113, padded_tokens=1139, pairs_probed=37,
        column_hits=11, column_misses=42, last_block_rows=158,
    ),
}


def _pruning_decided(trainer, tables) -> bool:
    """Settle the last block's pruning gate now (it is otherwise deferred
    until enough skippable rows have gone by) with one throwaway pass, and
    say whether this BLAS build passed every proof."""
    trainer.model.eval()
    session = trainer.model.inference_session()
    decide_pruning_now(session)
    trainer.annotate_batch(tables)
    return pruning_proven(session.workspace.proofs)


@pytest.mark.parametrize("name", MODELS)
def test_work_ledger_of_a_fixed_drain(trainers, dataset, name):
    ledger = dict(LEDGER[name])
    if not _pruning_decided(trainers[name], _drain(dataset)[:8]):
        ledger["last_block_rows"] = ledger["padded_tokens"]
    engine = AnnotationEngine(trainers[name], EngineConfig(batch_size=8))
    results = engine.annotate_batch(_drain(dataset))
    assert len(results) == 16 and engine.stats.batches == 2
    assert {key: getattr(engine.stats, key) for key in ledger} == ledger


def test_row_stability_is_proven_once_per_model_not_once_per_epoch(
    dataset, monkeypatch
):
    """``train()`` drops the sessions every epoch (the optimizer updates
    weights in place); the verdicts are about shapes and the BLAS build, so
    the model keeps them and each epoch's validation proves nothing again."""
    proven = []
    real = kernels.prove_row_stable

    def counting(w, band, parts=None):
        proven.append((w.shape, w.dtype.str, band))
        return real(w, band, parts)

    monkeypatch.setattr("repro.core.inference.prove_row_stable", counting)
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=600)
    trainer = DoduoTrainer(
        TableDataset(
            dataset.tables[:12], type_vocab=dataset.type_vocab,
            relation_vocab=dataset.relation_vocab,
        ),
        tokenizer,
        TransformerConfig(
            vocab_size=tokenizer.vocab_size, hidden_dim=16, num_layers=1,
            num_heads=2, ffn_dim=32, max_position=160, num_segments=8, dropout=0.0,
        ),
        DoduoConfig(epochs=3, batch_size=8),
    )
    valid = TableDataset(
        dataset.tables[12:], type_vocab=dataset.type_vocab,
        relation_vocab=dataset.relation_vocab,
    )
    widths = {trainer.encoding.encode_table(t).length for t in valid.tables[:8]}
    assert len(widths) > 1  # validation chunks mix widths: the gate is asked
    history = trainer.train(valid_dataset=valid)
    assert len(history.valid_f1) == 3
    assert len(proven) == len(set(proven)) == 4  # QKV, output, FFN in, FFN out
    # A rebuilt session keeps the model's verdicts: they are shape
    # properties, not weight properties.
    before = trainer.model.inference_session()
    trainer.model.invalidate_sessions()
    rebuilt = trainer.model.inference_session()
    assert rebuilt is not before
    assert rebuilt.workspace.proofs is trainer.model._proofs
