"""Differential harness: optimized kernels vs the reference implementations.

The autograd kernels in :mod:`repro.nn.functional` and the Tensor forward
path *define the bytes*; every optimized twin in :mod:`repro.nn.kernels`
and the :class:`~repro.core.inference.InferenceSession` forward must
reproduce them exactly.  This module is the proof:

* in-place softmax/layernorm/gelu vs their allocating references on
  randomized shapes and seeds — ``==`` on output bytes, in float64 AND
  float32 (same ufunc sequence, same dtype → same bits);
* the full fast forward (``kernels="fast"``) vs the reference Tensor path
  (``kernels="reference"``) through ``DoduoTrainer.annotate_batch`` —
  type scores, relations, and embeddings all ``==`` (this is the CI gate
  for the whole optimization layer);
* the pruned last block — the rows the heads read ``==`` those rows of the
  whole block ``==`` the reference, whatever its two verdicts say here
  (run this file under ``OPENBLAS_CORETYPE=Nehalem`` for the other side).
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import decide_pruning_now, pruning_proven
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DoduoConfig, DoduoTrainer
from repro.core.model import DoduoModel
from repro.core.serialization import EncodedTable
from repro.datasets import generate_wikitable_dataset
from repro.nn import TransformerConfig, kernels
from repro.nn import functional as F
from repro.nn.kernels import (
    QUERY_STABLE,
    ROW_STABLE,
    ProofCache,
    Workspace,
    gelu_,
    layer_norm_,
    proof_rows,
    softmax_,
    width_band,
)
from repro.nn.tensor import Tensor
from repro.text import train_wordpiece

DTYPES = (np.float32, np.float64)
SHAPES = ((3, 7), (2, 4, 9), (1, 2, 5, 6), (8, 1), (2, 3, 1))


def _rand(rng, shape, dtype):
    return rng.standard_normal(shape).astype(dtype) * 3.0


# ---------------------------------------------------------------------------
# In-place ufunc twins: byte-equal by construction, pinned here
# ---------------------------------------------------------------------------


class TestInPlaceKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_softmax_bitwise(self, shape, seed, dtype):
        rng = np.random.default_rng(seed)
        x = _rand(rng, shape, dtype)
        reference = F.softmax(Tensor(x.copy())).data
        out = softmax_(x.copy())
        assert out.dtype == dtype
        assert (out == reference).all()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_layer_norm_bitwise(self, shape, seed, dtype):
        rng = np.random.default_rng(seed + 100)
        x = _rand(rng, shape, dtype)
        gamma = _rand(rng, shape[-1:], dtype)
        beta = _rand(rng, shape[-1:], dtype)
        reference = F.layer_norm(
            Tensor(x.copy()), Tensor(gamma), Tensor(beta), eps=1e-5
        ).data
        out = layer_norm_(x.copy(), gamma, beta, 1e-5, Workspace())
        assert (out == reference).all()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gelu_bitwise(self, shape, seed, dtype):
        rng = np.random.default_rng(seed + 200)
        x = _rand(rng, shape, dtype)
        reference = F.gelu(Tensor(x.copy())).data
        out = gelu_(x.copy(), Workspace())
        assert (out == reference).all()

    def test_kernels_mutate_in_place(self):
        x = np.linspace(-2, 2, 12, dtype=np.float32).reshape(3, 4)
        out = softmax_(x)
        assert out is x  # no hidden allocation

    def test_workspace_scratch_reused(self):
        ws = Workspace()
        x = np.ones((4, 8), dtype=np.float32)
        gelu_(x.copy(), ws)
        scratch = ws.take("gelu", (4, 8), np.float32)
        held = ws.allocated_bytes
        gelu_(x.copy(), ws)
        again = ws.take("gelu", (4, 8), np.float32)
        assert _address(again) == _address(scratch)  # the same memory
        assert ws.allocated_bytes == held


# ---------------------------------------------------------------------------
# The proof cache and the workspace
# ---------------------------------------------------------------------------


class TestProofGatedMatmul:
    def test_proof_cache_counters(self):
        proofs = ProofCache()
        assert proofs.verdict("k") is None
        proofs.record("k", True)
        proofs.record("j", False)
        assert proofs.verdict("k") is True
        assert proofs.verdict("j") is False
        assert proofs.proofs_run == 2
        assert proofs.proofs_failed == 1


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


class TestWorkspace:
    """A region is one flat buffer: any shape and dtype that fits is a view
    of it, at any offset; only a request past its capacity reallocates."""

    def test_views_of_any_shape_share_one_buffer(self):
        ws = Workspace()
        a = ws.take("x", (4, 8), np.float32)
        base = _address(a)
        assert ws.allocated_bytes == a.nbytes
        for shape, dtype in (((2, 8), np.float32), ((8, 4), np.float32),
                             ((32,), np.float32), ((2, 4), np.float64)):
            view = ws.take("x", shape, dtype)
            assert view.shape == shape and view.dtype == dtype
            assert view.flags.c_contiguous and view.flags.writeable
            assert _address(view) == base
        assert ws.allocated_bytes == a.nbytes  # nothing reallocated

    def test_offset_views_are_disjoint(self):
        ws = Workspace()
        ws.take("x", (96,), np.float32)  # the capacity: 384 bytes
        first = ws.take("x", (4, 8), np.float32)
        second = ws.take("x", (4, 16), np.float32, offset=first.nbytes)
        assert _address(second) == _address(first) + first.nbytes
        first[:] = 1.0
        second[:] = 2.0
        assert (first == 1.0).all() and (second == 2.0).all()
        assert ws.allocated_bytes == 384

    def test_buffer_identity_and_resize(self):
        ws = Workspace()
        small = ws.take("x", (2, 8), np.float32)
        assert _address(ws.take("x", (2, 8), np.float32)) == _address(small)
        small[:] = 7.0
        grown = ws.take("x", (6, 8), np.float32)  # past capacity: realloc
        assert _address(grown) != _address(small)
        assert (small == 7.0).all()  # the old buffer lives while viewed
        assert ws.allocated_bytes == grown.nbytes  # one buffer per region
        # An offset past the capacity grows the region too.
        tail = ws.take("x", (2, 8), np.float32, offset=grown.nbytes)
        assert ws.allocated_bytes == grown.nbytes + tail.nbytes

    def test_regions_are_independent(self):
        ws = Workspace()
        a = ws.take("a", (4, 4), np.float32)
        b = ws.take("b", (4, 4), np.float32)
        assert not np.shares_memory(a, b)
        assert ws.allocated_bytes == a.nbytes + b.nbytes


class TestBlockFootprint:
    def test_a_3072_row_pass_holds_three_regions_and_the_reference_bytes(self):
        """The block lays its scratch out by lifetime: a d=96 / ffn=192
        pass over 3,072 rows keeps 6.75 MiB of workspace (Q/K/V beside
        the context, later the FFN state beside its GELU scratch; the
        attention output; the block output), not the 12.4 MiB of seven
        buffers — and serves the reference bytes."""
        model = _model(visibility=False, numeric=False, hidden=96, ffn=192,
                       heads=4, max_position=64)
        rng = np.random.default_rng(21)
        tables = [[_sequence(rng, [20, 20, 20])] for _ in range(48)]
        assert {s.length for t in tables for s in t} == {64}
        ragged = _ragged(model, tables)
        assert ragged.padded_tokens == 3072
        _assert_ragged_equals_alone(ragged, _alone(model, tables, "reference"))
        workspace = model.inference_session().workspace
        assert workspace.allocated_bytes == 3072 * (4 * 96 + 2 * 96) * 4
        assert workspace.allocated_bytes <= 7 * 2**20


# ---------------------------------------------------------------------------
# Full forward: fast session vs reference Tensor path
# ---------------------------------------------------------------------------


def _trainer(single_column: bool = False):
    dataset = generate_wikitable_dataset(num_tables=20, seed=11, max_rows=4)
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
        epochs=1, batch_size=8, keep_best_checkpoint=False,
        single_column=single_column,
    )
    t = DoduoTrainer(dataset, tokenizer, encoder, config)
    t.train()
    return t


@pytest.fixture(scope="module")
def trainer():
    return _trainer()


@pytest.fixture(scope="module")
def single_column_trainer():
    return _trainer(single_column=True)


def _annotation_bytes(trainer, tables, **kwargs):
    raw = trainer.annotate_batch(tables, with_embeddings=True, **kwargs)
    return [
        (r.type_probs, dict(r.relation_probs), r.embeddings) for r in raw
    ]


class TestFullForwardIdentity:
    def test_fast_equals_reference_float32(self, trainer):
        """THE acceptance gate: optimized annotation == reference, ``==``."""
        tables = trainer.dataset.tables[:6]
        fast = _annotation_bytes(trainer, tables, kernels="fast")
        reference = _annotation_bytes(trainer, tables, kernels="reference")
        for (ft, fr, fe), (rt, rr, re) in zip(fast, reference):
            assert (ft == rt).all()
            assert fr.keys() == rr.keys()
            for pair in fr:
                assert (fr[pair] == rr[pair]).all()
            assert (fe == re).all()

    def test_fast_batched_equals_sequential(self, trainer):
        tables = trainer.dataset.tables[:6]
        batched = _annotation_bytes(trainer, tables, kernels="fast")
        sequential = [
            _annotation_bytes(trainer, [t], kernels="fast")[0] for t in tables
        ]
        for (bt, br, be), (st, sr, se) in zip(batched, sequential):
            assert (bt == st).all()
            for pair in br:
                assert (br[pair] == sr[pair]).all()
            assert (be == se).all()

    def test_session_proofs_all_pass_here(self, trainer):
        """On this platform every shape proof must hold (the gate exists
        for platforms where it might not — a failure is a fallback, not a
        wrong byte — but locally we expect 100% proven)."""
        trainer.annotate_batch(trainer.dataset.tables[:4], kernels="fast")
        session = trainer.model.inference_session()
        assert session.workspace.proofs.proofs_run > 0
        assert session.workspace.proofs.proofs_failed == 0

    def test_sessions_serve_float32_only(self, trainer):
        with pytest.raises(ValueError, match="float64"):
            trainer.model._resolve_session("fast", "float64")
        assert trainer.model._resolve_session("fast", "float32") is not None

    def test_training_mode_invalidates_sessions(self, trainer):
        trainer.annotate_batch(trainer.dataset.tables[:1], kernels="fast")
        assert trainer.model._session is not None
        trainer.model.train()
        assert trainer.model._session is None  # stale fused weights dropped
        trainer.model.eval()

    def test_session_stale_after_load_state_dict(self, trainer):
        trainer.annotate_batch(trainer.dataset.tables[:1], kernels="fast")
        state = trainer.model.state_dict()
        trainer.model.load_state_dict(state)
        assert trainer.model._session is None
        # and a fresh session rebuilds against the new arrays
        reference = _annotation_bytes(
            trainer, trainer.dataset.tables[:2], kernels="reference"
        )
        fast = _annotation_bytes(
            trainer, trainer.dataset.tables[:2], kernels="fast"
        )
        for (ft, _, fe), (rt, _, re) in zip(fast, reference):
            assert (ft == rt).all()
            assert (fe == re).all()


# ---------------------------------------------------------------------------
# Token-major (ragged) batching: one pass whatever the widths, same bytes
# ---------------------------------------------------------------------------
#
# Model-level, on synthetic sequences: a *drain* is a list of tables, a table
# a list of sequences padded jointly to the table's longest (one sequence
# table-wise, one per column in single-column mode).  The reference answer
# for a table is what the path that pads a batch to one width gives that
# table alone; the ragged pass encodes every table of the drain at once.

CLS_ID, SEP_ID = 2, 3
MAX_POSITION = 48


def _model(visibility: bool, numeric: bool, hidden: int = 16, ffn: int = 32,
           heads: int = 2, max_position: int = MAX_POSITION) -> DoduoModel:
    config = TransformerConfig(
        vocab_size=60, hidden_dim=hidden, num_layers=2, num_heads=heads,
        ffn_dim=ffn, max_position=max_position, num_segments=4, dropout=0.0,
    )
    model = DoduoModel(
        config, num_types=5, num_relations=3, rng=np.random.default_rng(17),
        use_visibility_matrix=visibility, use_numeric_embeddings=numeric,
    )
    model.eval()
    return model


_MODELS: dict = {}


def _shared_model(visibility: bool, numeric: bool, whole: bool = False) -> DoduoModel:
    """One model per flag pair for the whole module: hypothesis examples
    then also exercise a session whose verdicts already exist.

    The model decides its last block's pruning gate at its first prunable
    pass, by the real proofs; its ``whole`` twin (same seed, same weights)
    carries a hydrated disproof and runs every block over every row."""
    key = (visibility, numeric, whole)
    if key not in _MODELS:
        model = _MODELS[key] = _model(visibility, numeric)
        if whole:
            _disprove_pruning(model)
        else:
            decide_pruning_now(model.inference_session())
    return _MODELS[key]


def _disprove_pruning(model: DoduoModel) -> None:
    """Record a ``False`` query-stability verdict for every band before
    first use — what this process would have decided on a BLAS kernel
    family that disproves it."""
    session = model.inference_session()
    head_dim = session.blocks[-1].head_dim
    band = 0
    while band < session.max_position:
        band = width_band(band + 1, session.max_position)
        session.workspace.proofs.record(
            (QUERY_STABLE, head_dim, "<f4", band), False
        )


def _pruning_proven(model: DoduoModel) -> bool:
    return pruning_proven(model._proofs)


def _sequence(rng: np.random.Generator, column_lengths) -> EncodedTable:
    """``[CLS] v.. [CLS] v.. [SEP]`` with random value tokens and bins; a
    lone ``[0]`` makes the one-token sequence ``[CLS]`` (width 1)."""
    tokens, columns, cls = [], [], []
    for index, length in enumerate(column_lengths):
        cls.append(len(tokens))
        tokens += [CLS_ID] + rng.integers(5, 60, size=length).tolist()
        columns += [index] * (length + 1)
    if len(tokens) > 1:
        tokens.append(SEP_ID)
        columns.append(-1)
    return EncodedTable(
        token_ids=np.asarray(tokens, dtype=np.int64),
        cls_positions=np.asarray(cls, dtype=np.int64),
        column_ids=np.asarray(columns, dtype=np.int64),
        numeric_ids=rng.integers(0, 16, size=len(tokens)),
    )


def _forward(model, flat, widths, groups, kernels):
    """``flat`` encoded at ``widths``; both heads once per group of items
    (a table), probing columns (0, 1) of every sequence that has two — the
    products in flat order."""
    states, session = model.encode_states(flat, widths, kernels)
    starts = np.cumsum([0] + [s.num_columns for s in flat]).tolist()
    type_logits, relation_logits = [], []
    for group in groups:
        rows = [row for k in group for row in range(starts[k], starts[k + 1])]
        type_logits.append(model.apply_type_head(states[rows], session))
        firsts = [starts[k] for k in group if flat[k].num_columns >= 2]
        if firsts:
            pair_states = np.concatenate(
                [states[firsts], states[[row + 1 for row in firsts]]], axis=-1
            )
            relation_logits.append(model.apply_relation_head(pair_states, session))
    return SimpleNamespace(
        type_logits=np.concatenate(type_logits),
        relation_logits=np.concatenate(relation_logits) if relation_logits else None,
        embeddings=states,
    )


def _ragged(model, tables, width=None):
    """Every table of the drain in ONE pass, each at its own width (or all
    at ``width``); the pass's odometer deltas ride along."""
    flat, groups, widths = [], [], []
    for table in tables:
        groups.append(list(range(len(flat), len(flat) + len(table))))
        widths += [width or max(s.length for s in table)] * len(table)
        flat += table
    before = model.encode_calls, model.padded_tokens, model.last_block_rows
    out = _forward(model, flat, widths, groups, "fast")
    assert model.encode_calls - before[0] == 1
    out.padded_tokens = model.padded_tokens - before[1]
    out.last_block_rows = model.last_block_rows - before[2]
    out.kept_rows = _kept_rows(flat, widths)
    return out


def _kept_rows(flat, widths) -> int:
    """Rows the pruned last block computes for this pass: per width group,
    its largest ``[CLS]`` count (at least 2) for every sequence — or every
    row, beside a width-1 sequence or when that would be no fewer."""
    most: dict = {}
    for sequence, width in zip(flat, widths):
        count, columns = most.get(width, (0, 2))
        most[width] = (count + 1, max(columns, sequence.num_columns))
    kept = sum(count * columns for count, columns in most.values())
    return kept if min(widths) > 1 and kept < sum(widths) else sum(widths)


def _alone(model, tables, kernels, width=None):
    """Per table, what the pad-to-one-width path gives it alone."""
    return [
        _forward(
            model, table, [width or max(s.length for s in table)] * len(table),
            [range(len(table))], kernels,
        )
        for table in tables
    ]


def _assert_pruned_equals_whole_equals_reference(
    tables, visibility=False, numeric=False, width=None
):
    """One drain three ways: through the model whose last block prunes if
    this host's BLAS lets it, through its twin that never does, and table
    by table through the oracle.  Bytes agree; the odometer says which
    block ran."""
    model = _shared_model(visibility, numeric)
    whole = _shared_model(visibility, numeric, whole=True)
    oracle = _alone(whole, tables, "reference", width)
    pruned = _ragged(model, tables, width)
    unpruned = _ragged(whole, tables, width)
    _assert_ragged_equals_alone(pruned, oracle)
    _assert_ragged_equals_alone(unpruned, oracle)
    assert unpruned.last_block_rows == unpruned.padded_tokens
    assert pruned.padded_tokens == unpruned.padded_tokens
    if _pruning_proven(model):
        assert pruned.last_block_rows == pruned.kept_rows
    else:
        assert pruned.last_block_rows == pruned.padded_tokens
    return pruned


def _assert_ragged_equals_alone(ragged, alone):
    columns = pairs = 0
    for out in alone:
        n = out.type_logits.shape[0]
        assert (ragged.type_logits[columns:columns + n] == out.type_logits).all()
        assert (ragged.embeddings[columns:columns + n] == out.embeddings).all()
        columns += n
        if out.relation_logits is not None:
            m = out.relation_logits.shape[0]
            assert (
                ragged.relation_logits[pairs:pairs + m] == out.relation_logits
            ).all()
            pairs += m
    assert columns == ragged.type_logits.shape[0]


#: A table: 1-3 sequences of 1-3 columns, each column 0-5 value tokens.
_TABLES = st.lists(
    st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=3),
        min_size=1, max_size=3,
    ),
    min_size=2, max_size=6,
)


class TestRaggedBatching:
    @settings(max_examples=25, deadline=None)
    @given(
        shape=_TABLES,
        single_column=st.booleans(),
        visibility=st.booleans(),
        numeric=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_flat_pass_equals_reference_per_table(
        self, shape, single_column, visibility, numeric, seed
    ):
        rng = np.random.default_rng(seed)
        if not single_column:
            shape = [table[:1] for table in shape]  # one sequence per table
        tables = [[_sequence(rng, columns) for columns in table] for table in shape]
        _assert_pruned_equals_whole_equals_reference(tables, visibility, numeric)

    def _mixed_drain(self, seed=5):
        rng = np.random.default_rng(seed)
        return [
            [_sequence(rng, [3, 2])],
            [_sequence(rng, [5])],
            [_sequence(rng, [1, 1, 4])],
            [_sequence(rng, [3, 2])],
        ]

    def test_forced_disproof_serves_the_same_bytes_per_sequence(self, monkeypatch):
        model = _model(visibility=False, numeric=True)
        tables = self._mixed_drain()
        session = model.inference_session()
        shapes = {
            w.shape
            for bw in session.blocks
            for w in (bw.w_qkv, bw.w_o, bw.w_in, bw.w_out)
        }
        for shape in shapes:
            session.workspace.proofs.record(
                (ROW_STABLE, shape[0], shape[1], "<f4", MAX_POSITION), False
            )

        def no_proof(*args, **kwargs):
            raise AssertionError("a recorded verdict must not be re-proven")

        monkeypatch.setattr("repro.core.inference.prove_row_stable", no_proof)
        flat_calls = []
        real_matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            if a.ndim == 2 and b.ndim == 2 and "out" in kwargs:
                flat_calls.append(a.shape)
            return real_matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        _assert_ragged_equals_alone(
            _ragged(model, tables), _alone(model, tables, "reference")
        )
        assert flat_calls == []  # every projection ran per width group

    def test_width_one_sequence_in_a_drain(self):
        """A one-row product is a matrix-vector call: that sequence's
        projections run alone, the rest of the drain stays flat."""
        rng = np.random.default_rng(9)
        for single_column in (False, True):
            tables = self._mixed_drain() + [[_sequence(rng, [0])]]
            if single_column:
                tables[1] = [_sequence(rng, [2]), _sequence(rng, [4])]
                tables.append([_sequence(rng, [0]), _sequence(rng, [0])])
            assert min(s.length for t in tables for s in t) == 1
            model = _shared_model(False, False)
            _assert_ragged_equals_alone(
                _ragged(model, tables), _alone(model, tables, "reference")
            )

    def test_never_seen_total_pays_no_reference_recompute(self, monkeypatch):
        """Verdicts are per (K, N, dtype) and band, never per row count or
        attention shape: once they exist, a drain of a new total width —
        with a width group no pass has had — computes nothing twice."""
        model = _model(visibility=False, numeric=False)
        rng = np.random.default_rng(3)
        a, b, c = ([_sequence(rng, [n])] for n in (3, 7, 10))
        _ragged(model, [a, b])  # proves; sees the groups of widths 5 and 9
        proofs = model.inference_session().workspace.proofs
        assert proofs.proofs_failed == 0
        run_before = proofs.proofs_run
        recomputed = []
        monkeypatch.setattr(
            "repro.core.inference.prove_row_stable",
            lambda *args, **kwargs: recomputed.append("proof") or True,
        )
        reference_form = kernels._reference_matmul

        def spy(*args):
            recomputed.append("matmul")
            return reference_form(*args)

        monkeypatch.setattr(kernels, "_reference_matmul", spy)
        monkeypatch.setattr("repro.core.inference._reference_matmul", spy)
        _ragged(model, [b, c])  # 9 + 12: a total and a group no pass has had
        assert recomputed == []
        assert proofs.proofs_run == run_before

    def test_verdicts_are_per_band_never_per_shape(self):
        """Drains of many distinct ``(count, width)`` shapes leave a
        handful of verdicts per band — four row-stability, one
        query-stability — and not one keyed by a shape: a shape no pass
        has had is never proven, and never computed twice."""
        model = _model(visibility=False, numeric=False, max_position=200)
        session = model.inference_session()
        rng = np.random.default_rng(6)
        shapes = set()
        for count in (1, 2, 3, 5, 8):
            for _ in range(3):
                tables = [
                    [_sequence(rng, rng.integers(1, 30, rng.integers(1, 4)).tolist())]
                    for _ in range(count)
                ]
                widths = [table[0].length for table in tables]
                shapes |= {(widths.count(w), w) for w in widths}
                decide_pruning_now(session)
                _assert_ragged_equals_alone(
                    _ragged(model, tables), _alone(model, tables, "reference")
                )
        assert len(shapes) > 40
        verdicts = model._proofs.verdicts
        assert {key[0] for key in verdicts} == {ROW_STABLE, QUERY_STABLE}
        per_band = Counter(key[-1] for key in verdicts)
        assert set(per_band) == {64, 128}
        assert max(per_band.values()) <= 5

    def test_a_proof_covers_a_band_of_widths(self, monkeypatch):
        """Proving every width up to ``max_position`` costs rows quadratic
        in it, so a verdict covers a power-of-two band: narrow drains pay
        for narrow widths only, and a wider sequence proves its band the
        first time a mixed-width pass holds one — once."""
        assert [width_band(w, 256) for w in (0, 2, 64, 65, 128, 200, 999)] == [
            64, 64, 64, 128, 128, 256, 256,
        ]
        assert width_band(10, 48) == 48  # never past max_position

        proven = []
        real = kernels.prove_row_stable

        def counting(w, band, parts=None):
            proven.append(band)
            return real(w, band, parts)

        monkeypatch.setattr("repro.core.inference.prove_row_stable", counting)
        rng = np.random.default_rng(4)
        narrow = [[_sequence(rng, [3])], [_sequence(rng, [6, 2])]]
        wide = narrow + [[_sequence(rng, [40, 33])]]  # 76 tokens: band 128
        model = _model(False, False, max_position=200)
        for tables in (narrow, wide, narrow, wide):
            _assert_ragged_equals_alone(
                _ragged(model, tables), _alone(model, tables, "reference")
            )
        assert proven == [64] * 4 + [128] * 4  # four weight shapes per band

    def test_disproof_is_logged_once_per_shape(self, monkeypatch, caplog):
        model = _model(visibility=False, numeric=False)
        monkeypatch.setattr(
            "repro.core.inference.prove_row_stable", lambda *args, **kwargs: False
        )
        tables = self._mixed_drain()
        with caplog.at_level(logging.WARNING, logger="repro.core.inference"):
            _assert_ragged_equals_alone(
                _ragged(model, tables), _alone(model, tables, "reference")
            )
            _ragged(model, tables)  # verdicts stand: nothing is logged twice
        messages = [r.getMessage() for r in caplog.records]
        # hidden 16, ffn 32: QKV, output, FFN-in, FFN-out — one line each.
        assert len(messages) == 4
        for k, n in ((16, 48), (16, 16), (16, 32), (32, 16)):
            assert sum(f"K={k} N={n} dtype=float32" in m for m in messages) == 1

    def test_unstable_shape_is_found_and_bytes_hold(self, caplog):
        """(96, 25) — an FFN-out shape off every SIMD multiple — is proven
        like any other.  Wherever the proof lands, bytes hold; where it
        fails, the fallback and its warning are what kept them."""
        model = _model(visibility=False, numeric=False, hidden=25, ffn=96, heads=5)
        tables = self._mixed_drain()
        with caplog.at_level(logging.WARNING, logger="repro.core.inference"):
            ragged = _ragged(model, tables)
        _assert_ragged_equals_alone(ragged, _alone(model, tables, "reference"))
        proofs = model.inference_session().workspace.proofs
        verdict = proofs.verdict((ROW_STABLE, 96, 25, "<f4", MAX_POSITION))
        assert verdict is not None  # decided at the first mixed-width pass
        logged = any("K=96 N=25 dtype=float32" in r.getMessage() for r in caplog.records)
        assert logged == (verdict is False)

    @staticmethod
    def _forget_proofs(model):
        """What only a new process does: a rebuilt session alone keeps the
        model's verdicts (they are about shapes, not weights)."""
        model.invalidate_sessions()
        model._proofs = kernels.ProofCache()

    def test_restart_reproves_row_stability_for_itself(
        self, trainer, tmp_path, monkeypatch
    ):
        """A cache directory holds answers, never verdicts: a process whose
        kernels disprove row stability (another BLAS kernel family) proves
        for itself over a directory another process filled, and serves the
        reference bytes."""
        from repro.serving import AnnotationEngine, EngineConfig

        config = EngineConfig(cache_dir=str(tmp_path / "cache"))
        tables = trainer.dataset.tables
        assert len({trainer.encoding.encode_table(t).length for t in tables[:4]}) > 1
        alone = AnnotationEngine(trainer, EngineConfig(kernels="reference"))
        want = [alone.annotate(table).type_scores for table in tables[4:10]]
        self._forget_proofs(trainer.model)
        AnnotationEngine(trainer, config).annotate_batch(tables[:4])
        proven = trainer.model._proofs.verdicts
        assert sum(ROW_STABLE in key for key in proven) == 4
        # "Restart": a new process over the same directory; tables it has
        # not answered, so the passes really run.
        self._forget_proofs(trainer.model)
        ran = []
        monkeypatch.setattr(
            "repro.core.inference.prove_row_stable",
            lambda *args, **kwargs: ran.append(args) or False,
        )
        engine = AnnotationEngine(trainer, config)
        results = engine.annotate_batch(tables[4:10])
        assert len(ran) == 4
        assert [result.type_scores for result in results] == want
        self._forget_proofs(trainer.model)


# ---------------------------------------------------------------------------
# The pruned last block: only the rows the heads read, same bytes
# ---------------------------------------------------------------------------
#
# Every check holds whichever way this host's BLAS decides the two
# verdicts: proven, the odometer shows the rows skipped; disproven (run the
# file under OPENBLAS_CORETYPE=Nehalem), the whole block served the bytes.


def _single_column(rng, columns):
    """A single-column table: one one-``[CLS]`` sequence per column."""
    return [_sequence(rng, [length]) for length in columns]


def _pinned_drains():
    """name -> (tables, keyword arguments of the three-way comparison)."""
    rng = np.random.default_rng(21)
    uneven = [  # one width group (8 tokens), 2 / 3 / 1 [CLS] rows
        [_sequence(rng, [3, 2])], [_sequence(rng, [1, 1, 2])], [_sequence(rng, [6])],
    ]
    columns = [_single_column(rng, [3, 5, 1]), _single_column(rng, [4, 4])]
    mixed = [
        [_sequence(rng, [3, 2])], [_sequence(rng, [5])],
        [_sequence(rng, [1, 1, 4])], [_sequence(rng, [2, 2, 2])],
    ]
    return {
        "uneven [CLS] counts in one width group": (uneven, {}),
        "single-column drain: a second query row": (columns, {}),
        "one kept row": ([[_sequence(rng, [4])]], {}),
        "beside a width-1 sequence": (mixed + [[_sequence(rng, [0])]], {}),
        "forced width: pad rows and mask bias": (columns, {"width": 12}),
        "visibility matrix": (mixed + uneven, {"visibility": True}),
    }


class TestPrunedLastBlock:
    @pytest.mark.parametrize("case", list(_pinned_drains()))
    def test_pinned_drain(self, case):
        tables, kwargs = _pinned_drains()[case]
        pruned = _assert_pruned_equals_whole_equals_reference(tables, **kwargs)
        if case == "beside a width-1 sequence":
            assert pruned.kept_rows == pruned.padded_tokens
        else:
            assert pruned.kept_rows < pruned.padded_tokens
        if case == "one kept row":
            assert pruned.kept_rows == 2  # [CLS] and its repeat

    def test_no_proof_inside_a_first_pass(self, monkeypatch):
        """Proofs are deferred until the rows they would have saved exceed
        their own: a fresh session banks, computes the whole block, and
        proves exactly once, at the pass that tips the bank."""
        calls = []
        real_rows, real_query = kernels.prove_row_stable, kernels.prove_query_stable
        monkeypatch.setattr(
            "repro.core.inference.prove_row_stable",
            lambda *args: calls.append("rows") or real_rows(*args),
        )
        monkeypatch.setattr(
            "repro.core.inference.prove_query_stable",
            lambda *args: calls.append("query") or real_query(*args),
        )
        model = _model(visibility=False, numeric=False)
        rng = np.random.default_rng(6)
        drain = [_single_column(rng, [5, 5, 5])]  # one width: no ragged proof
        oracle = _alone(model, drain, "reference")
        skipped_per_pass = 3 * 7 - 3 * 2
        passes = proof_rows(MAX_POSITION) // skipped_per_pass
        for _ in range(passes):
            out = _ragged(model, drain)
            _assert_ragged_equals_alone(out, oracle)
            assert out.last_block_rows == out.padded_tokens
        assert calls == []
        out = _ragged(model, drain)  # the bank now exceeds the proofs' rows
        _assert_ragged_equals_alone(out, oracle)
        assert calls.count("query") <= 1 and 1 <= calls.count("rows") <= 4
        assert len(calls) == 5 or not _pruning_proven(model)
        assert out.last_block_rows == (
            out.kept_rows if _pruning_proven(model) else out.padded_tokens
        )
        decided = list(calls)
        for _ in range(passes + 1):  # verdicts stand, either way
            _assert_ragged_equals_alone(_ragged(model, drain), oracle)
        assert calls == decided

    def test_disproof_is_logged_once_and_serves_the_whole_block(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(
            "repro.core.inference.prove_query_stable", lambda *args: False
        )
        model = _model(visibility=False, numeric=False)
        decide_pruning_now(model.inference_session())
        tables = TestRaggedBatching()._mixed_drain()
        with caplog.at_level(logging.WARNING, logger="repro.core.inference"):
            for _ in range(2):
                out = _ragged(model, tables)
                _assert_ragged_equals_alone(out, _alone(model, tables, "reference"))
                assert out.last_block_rows == out.padded_tokens
        logged = [r.getMessage() for r in caplog.records if "query count" in r.getMessage()]
        rows_proven = all(
            ok for key, ok in
            model._proofs.verdicts.items()
            if ROW_STABLE in key
        )
        # The query proof runs only behind four True row verdicts.
        assert len(logged) == (1 if rows_proven else 0)

    def test_hydrated_disproof_serves_float_bytes_from_the_whole_block(self, trainer):
        """A ``False`` verdict decided before first use is never re-proven,
        and the counter says every row was computed."""
        from repro.serving import AnnotationEngine, EngineConfig

        tables = trainer.dataset.tables[:7]
        reference = AnnotationEngine(trainer, EngineConfig(kernels="reference"))
        want = [r.annotated for r in reference.annotate_batch(tables)]
        TestRaggedBatching._forget_proofs(trainer.model)
        _disprove_pruning(trainer.model)
        decide_pruning_now(trainer.model.inference_session())
        engine = AnnotationEngine(trainer, EngineConfig(batch_size=3))
        for got, expected in zip(engine.annotate_batch(tables), want):
            assert got.annotated.type_scores == expected.type_scores
            assert got.annotated.colrels == expected.colrels
        assert engine.stats.last_block_rows == engine.stats.padded_tokens > 0
        assert engine.stats.to_dict()["last_block_share"] == 1.0
        TestRaggedBatching._forget_proofs(trainer.model)

    def test_restart_reproves_query_stability_for_itself(
        self, trainer, tmp_path, monkeypatch
    ):
        """One process proves everything over a cache directory; the next,
        whose kernels disprove query stability (as another BLAS kernel
        family does), must prove for itself — nothing on disk may hand it
        the first one's ``True`` — run the whole last block, and serve the
        reference bytes."""
        from repro.serving import AnnotationEngine, EngineConfig

        config = EngineConfig(cache_dir=str(tmp_path / "cache"))
        tables = trainer.dataset.tables
        reference = AnnotationEngine(trainer, EngineConfig(kernels="reference"))
        want = [r.annotated for r in reference.annotate_batch(tables[4:10])]
        forget = TestRaggedBatching._forget_proofs
        forget(trainer.model)
        decide_pruning_now(trainer.model.inference_session())
        AnnotationEngine(trainer, config).annotate_batch(tables[:4])
        decided = trainer.model._proofs.verdicts
        rows_proven = all(ok for key, ok in decided.items() if ROW_STABLE in key)
        assert any(QUERY_STABLE in key for key in decided) or not rows_proven
        forget(trainer.model)  # "restart": a new process, same directory
        ran = []
        monkeypatch.setattr(
            "repro.core.inference.prove_query_stable",
            lambda *args: ran.append(args) or False,
        )
        decide_pruning_now(trainer.model.inference_session())
        engine = AnnotationEngine(trainer, config)
        results = engine.annotate_batch(tables[4:10])  # not stored: passes run
        # The query proof runs only behind True row verdicts.
        assert bool(ran) == rows_proven
        assert engine.stats.last_block_rows == engine.stats.padded_tokens > 0
        for got, expected in zip(results, want):
            assert got.annotated.type_scores == expected.type_scores
            assert got.annotated.colrels == expected.colrels
        forget(trainer.model)


# ---------------------------------------------------------------------------
# Two kernel families, one cache directory
# ---------------------------------------------------------------------------
#
# A verdict describes the kernels one process dispatches to, and nothing on
# disk can name those.  Two processes of one OpenBLAS build pinned to two
# kernel families share a cache directory; the second serves tables the
# first never answered, and must serve its own reference bytes.

_FAMILY_CHILD = r"""
import json, sys
from repro.core import load_annotator
from repro.datasets import generate_wikitable_dataset
from repro.nn.kernels import proof_rows
from repro.serving import AnnotationEngine, EngineConfig

bundle, cache_dir, part = sys.argv[1:]
trainer = load_annotator(bundle).trainer
tables = generate_wikitable_dataset(num_tables=60, seed=7, max_rows=4).tables
tables = tables[:30] if part == "writer" else tables[30:]
oracle = AnnotationEngine(trainer, EngineConfig(kernels="reference"))
want = [result.type_scores for result in oracle.annotate_batch(tables)]
session = trainer.model.inference_session()
session._banked_rows = proof_rows(session.max_position)  # prove at once
engine = AnnotationEngine(trainer, EngineConfig(cache_dir=cache_dir))
got = [result.type_scores for result in engine.annotate_batch(tables)]
print(json.dumps({
    "differ": sum(g != w for g, w in zip(got, want)),
    "disk_hits": engine.stats.disk_hits,
}))
"""


def _numpy_uses_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not _numpy_uses_openblas(), reason="needs numpy on OpenBLAS")
def test_a_second_kernel_family_serves_its_own_reference_bytes(trainer, tmp_path):
    """The writer runs OpenBLAS's own kernel choice, the reader the Nehalem
    kernels (on which float32 query stability is disproven).  Each child
    sets its own ``OPENBLAS_CORETYPE``, so this holds under any parent
    environment."""
    import repro
    from repro.core import Doduo, save_annotator

    bundle = save_annotator(Doduo(trainer), tmp_path / "bundle")
    cache_dir = tmp_path / "cache"

    def child(part, **family):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env.update(family, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", _FAMILY_CHILD, str(bundle), str(cache_dir), part],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    assert child("writer") == {"differ": 0, "disk_hits": 0}
    assert child("reader", OPENBLAS_CORETYPE="Nehalem") == {
        "differ": 0, "disk_hits": 0,
    }
