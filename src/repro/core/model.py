"""The DODUO model: shared encoder + per-task output heads (Section 4.3).

Column-type prediction applies a dense layer to each column's ``[CLS]``
embedding (Equation 1); column-relation prediction applies a dense layer to
the *concatenation* of two column embeddings (Equation 2).  Both heads share
the same encoder — the hard parameter sharing of the multi-task setup.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..encoding.planner import BatchPlanner
from ..nn import (
    Embedding,
    Linear,
    Module,
    Tensor,
    TransformerConfig,
    TransformerEncoder,
    concatenate,
)
from ..nn import functional as F
from ..nn.kernels import ProofCache
from .inference import InferenceSession, gather_states
from .numeric import NUM_MAGNITUDE_BINS
from .serialization import EncodedTable, column_visibility, pad_batch


class ColumnTypeHead(Module):
    """Dense layer + output projection over a column embedding (Eq. 1)."""

    def __init__(self, hidden_dim: int, num_types: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.dense = Linear(hidden_dim, hidden_dim, rng)
        self.out = Linear(hidden_dim, num_types, rng)

    def forward(self, column_embeddings: Tensor) -> Tensor:
        return self.out(F.gelu(self.dense(column_embeddings)))


class ColumnRelationHead(Module):
    """Dense layer + output projection over a column-pair embedding (Eq. 2)."""

    def __init__(self, hidden_dim: int, num_relations: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.dense = Linear(2 * hidden_dim, hidden_dim, rng)
        self.out = Linear(hidden_dim, num_relations, rng)

    def forward(self, pair_embeddings: Tensor) -> Tensor:
        return self.out(F.gelu(self.dense(pair_embeddings)))


def activation_probs(logits: np.ndarray, multi_label: bool) -> np.ndarray:
    """Turn raw logits into probabilities: sigmoid scores in multi-label
    mode, a softmax distribution otherwise.

    Shared by every inference entry point, so the same logits give
    bitwise-identical probabilities wherever they are read.
    """
    if multi_label:
        return 1.0 / (1.0 + np.exp(-logits))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class DoduoModel(Module):
    """Shared Transformer encoder with type and relation heads.

    ``use_visibility_matrix`` turns the same architecture into the TURL
    baseline: attention edges across columns are removed.
    """

    def __init__(
        self,
        config: TransformerConfig,
        num_types: int,
        num_relations: int,
        rng: np.random.Generator,
        use_visibility_matrix: bool = False,
        use_column_segments: bool = True,
        use_numeric_embeddings: bool = False,
    ) -> None:
        super().__init__()
        self.config = config
        self.encoder = TransformerEncoder(config, rng)
        # Numeric magnitude embeddings (Section 3.1 future work) live outside
        # the encoder so pre-trained encoder checkpoints stay loadable.
        if use_numeric_embeddings:
            self.numeric_embedding: Optional[Embedding] = Embedding(
                NUM_MAGNITUDE_BINS, config.hidden_dim, rng
            )
        else:
            self.numeric_embedding = None
        self.type_head = ColumnTypeHead(config.hidden_dim, num_types, rng)
        if num_relations > 0:
            self.relation_head: Optional[ColumnRelationHead] = ColumnRelationHead(
                config.hidden_dim, num_relations, rng
            )
        else:
            self.relation_head = None
        self.use_visibility_matrix = use_visibility_matrix
        self.use_column_segments = use_column_segments
        # Forward-pass odometers: every encode_batch call increments
        # ``encode_calls``, and the token counters record how many sequence
        # slots the pass allocated (``padded_tokens``) versus how many held
        # real tokens (``real_tokens``) — the padding-waste accounting that
        # ``EngineStats`` and ``TrainingHistory`` surface.  ``last_block_rows``
        # counts the slots the last encoder block computed: all of them here
        # on the Tensor path, only the rows the heads read once an inference
        # session's pruning gate is proven.
        self.encode_calls = 0
        self.real_tokens = 0
        self.padded_tokens = 0
        self.last_block_rows = 0
        # Inference sessions (no-tape optimized forward), one per compute
        # dtype.  The leading underscore keeps ``named_parameters`` and the
        # mode walker from descending into them.
        self._sessions: Dict[str, InferenceSession] = {}
        # Bitwise proof verdicts of the sessions, per compute dtype:
        # a handful per band of sequence widths, never one per shape.
        # They are a property of the weight shapes and of the kernels this
        # process dispatches to, not of the weights (see repro.nn.kernels),
        # so they outlive a session rebuild (never the process):
        # per-epoch validation would otherwise re-prove the same keys every
        # epoch.
        self._proofs: Dict[str, ProofCache] = {}

    # -- identity ----------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content hash of this model: architecture + every weight.

        Two models fingerprint identically iff they have the same
        architecture flags and bitwise-equal parameters, independent of
        object identity or load path (a freshly trained model and its
        save/load round-trip share one fingerprint).  The persistent result
        cache (:mod:`repro.serving.diskcache`) keys entries on this hash so
        cached annotations are invalidated the moment any weight changes —
        e.g. after further fine-tuning.

        Hashing walks ``named_parameters`` in sorted-name order and digests
        each parameter's name, shape, dtype, and raw bytes, so the cost is
        one pass over the weights; callers that need it repeatedly should
        cache the string (the serving engine does).
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(
            repr(
                (
                    self.config,
                    self.use_visibility_matrix,
                    self.use_column_segments,
                    self.numeric_embedding is not None,
                    self.relation_head is not None,
                )
            ).encode("utf-8")
        )
        for name, param in sorted(self.named_parameters()):
            digest.update(name.encode("utf-8"))
            digest.update(repr((param.data.shape, str(param.data.dtype))).encode("utf-8"))
            # Hash through the buffer protocol, not ``.tobytes()``: the
            # digest is identical, but tobytes would materialize a full
            # private copy of every weight — for arena-backed models that
            # one transient walk would dirty as many heap pages as the
            # arena saves per worker.
            digest.update(np.ascontiguousarray(param.data))
        return digest.hexdigest()

    # -- inference sessions ------------------------------------------------------
    def inference_session(self, dtype: str = "float32") -> InferenceSession:
        """The memoized no-tape session for ``dtype``, rebuilt when stale.

        Staleness is detected by parameter-array identity, which catches
        ``load_state_dict`` / checkpoint restores / weight surgery that
        replaces ``.data``; :meth:`train` additionally drops all sessions
        so in-place optimizer updates can never serve through a stale
        packed-QKV or float64 weight copy.  In-place mutation outside the
        training loop must call :meth:`invalidate_sessions` — the same
        contract ``Trainer.invalidate_fingerprint`` imposes for the result
        caches.  A rebuilt session inherits the model's bitwise proof
        verdicts (shape properties).
        """
        session = self._sessions.get(dtype)
        if session is None or session.stale():
            session = InferenceSession(self, dtype)
            session.workspace.proofs = self._proofs.setdefault(
                dtype, session.workspace.proofs
            )
            self._sessions[dtype] = session
        return session

    def invalidate_sessions(self) -> None:
        """Drop memoized inference sessions (call after in-place weight edits)."""
        self._sessions.clear()

    def train(self) -> "DoduoModel":
        self._sessions.clear()
        super().train()
        return self

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._sessions.clear()

    # -- encoding ----------------------------------------------------------------
    def encode_batch(
        self, encoded: Sequence[EncodedTable], width: Optional[int] = None
    ) -> Tuple[Tensor, np.ndarray]:
        """Run the encoder over a padded batch.

        Returns the hidden states ``(B, S, d)`` and a ``(num_cls, 2)`` array
        of (row, position) indices locating every column's ``[CLS]`` token.

        Tokens carry a *column segment id* (column index + 1, clipped to the
        configured number of segments; global/pad tokens get 0).  BERT-base
        has enough depth to recover column membership from positions alone;
        at mini scale the segment signal substitutes for that depth (see
        DESIGN.md).
        """
        self.encode_calls += 1
        pad_id = 0  # PAD is always id 0 in our vocabulary
        token_ids, attention = pad_batch(encoded, pad_id, width=width)
        width = token_ids.shape[1]
        self.real_tokens += int(sum(e.length for e in encoded))
        self.padded_tokens += int(token_ids.size)
        self.last_block_rows += int(token_ids.size)
        segments = np.zeros_like(token_ids)
        if self.use_column_segments:
            for row, item in enumerate(encoded):
                segment_row = np.clip(
                    item.column_ids + 1, 0, self.config.num_segments - 1
                )
                segments[row, : item.length] = segment_row
        visibility = None
        if self.use_visibility_matrix:
            visibility = column_visibility(encoded, width=width)
        extra = None
        if self.numeric_embedding is not None:
            numeric = np.zeros_like(token_ids)
            for row, item in enumerate(encoded):
                if item.numeric_ids is not None:
                    numeric[row, : item.length] = item.numeric_ids
            extra = self.numeric_embedding(numeric)
        hidden = self.encoder(
            token_ids,
            attention_mask=attention,
            segment_ids=segments,
            visibility=visibility,
            extra_embedding=extra,
        )
        locations = []
        for row, item in enumerate(encoded):
            for pos in item.cls_positions:
                locations.append((row, pos))
        return hidden, np.asarray(locations, dtype=np.int64)

    def column_embeddings(
        self, encoded: Sequence[EncodedTable], layer: int = -1
    ) -> Tensor:
        """Contextualized column representations: the ``[CLS]`` outputs.

        ``layer`` selects which encoder block's output to read (``-1`` is the
        final layer and the default, matching the paper's toolbox; earlier
        layers are less collapsed toward the fine-tuning label space and can
        transfer better to out-of-domain clustering).
        """
        hidden, locations = self.encode_batch(encoded)
        if layer not in (-1, self.config.num_layers - 1):
            hidden = self.encoder.layer_outputs[layer]
        return hidden[(locations[:, 0], locations[:, 1])]

    # -- task heads ----------------------------------------------------------------
    def type_logits(self, encoded: Sequence[EncodedTable]) -> Tensor:
        """Type logits for every column of every table in the batch,
        ordered (table 0 col 0, table 0 col 1, ..., table 1 col 0, ...)."""
        return self.type_head(self.column_embeddings(encoded))

    def relation_logits(
        self,
        encoded: Sequence[EncodedTable],
        pairs: Sequence[Tuple[int, int, int]],
    ) -> Tensor:
        """Relation logits for ``pairs`` of columns.

        Each pair is ``(batch_index, col_i, col_j)`` referring to columns of
        ``encoded[batch_index]``.
        """
        if self.relation_head is None:
            raise RuntimeError("model was built without a relation head")
        hidden, _ = self.encode_batch(encoded)
        rows, pos_i, pos_j = [], [], []
        for batch_index, i, j in pairs:
            cls = encoded[batch_index].cls_positions
            rows.append(batch_index)
            pos_i.append(cls[i])
            pos_j.append(cls[j])
        rows_arr = np.asarray(rows)
        emb_i = hidden[(rows_arr, np.asarray(pos_i))]
        emb_j = hidden[(rows_arr, np.asarray(pos_j))]
        pair_embedding = concatenate([emb_i, emb_j], axis=-1)
        return self.relation_head(pair_embedding)

    # -- single-pass inference ---------------------------------------------------
    def encode_states(
        self,
        encoded: Sequence[EncodedTable],
        widths: Sequence[int],
        kernels: Optional[str] = None,
        compute_dtype: str = "float32",
    ) -> Tuple[np.ndarray, Optional[InferenceSession]]:
        """Encode ``encoded`` — sequence ``k`` at exactly ``widths[k]`` — and
        return ``(cls_states, session)``.

        ``cls_states`` is ``(total columns, dim)``: every sequence's
        ``[CLS]`` states in item order, a fresh array.  Each sequence gets
        the width it would have alone, which is the first half of the
        batched==sequential byte-identity contract (the second — one head
        GEMM chain per table — is the caller's,
        :meth:`DoduoTrainer.annotate_batch
        <repro.core.trainer.DoduoTrainer.annotate_batch>`).

        This is the one place a (``kernels``, ``compute_dtype``) request
        becomes a forward implementation.  ``"fast"`` (the default, model in
        eval mode) is an :class:`InferenceSession`, which mixes the widths
        inside **one** padding-free pass; ``"reference"`` is the autograd
        Tensor path, which can only pad a batch to one width, so it runs one
        padded pass per distinct width (exact buckets,
        :class:`~repro.encoding.planner.BatchPlanner`) and scatters the
        states back to item order.  Both produce identical bytes — the
        session replays the reference operation sequence and proof-gates
        every shape-dependent fusion — so the choice is purely a speed knob;
        ``tests/test_kernel_identity`` enforces the equality.
        ``compute_dtype`` is the precision of the fast path; anything other
        than ``"float32"`` requires it (the Tensor path has no dtype
        policy).

        ``session`` (``None`` on the Tensor path) is what the heads must be
        applied through (:meth:`apply_type_head` /
        :meth:`apply_relation_head`).  No sequences, no pass.
        """
        session = self._resolve_session(kernels, compute_dtype)
        if not encoded:
            dtype = np.float64 if compute_dtype == "float64" else np.float32
            return np.empty((0, self.config.hidden_dim), dtype=dtype), session
        if session is not None:
            hidden, locations = session.encode_batch(encoded, width=widths)
            return gather_states(hidden, locations), session
        starts = np.concatenate([[0], np.cumsum([e.num_columns for e in encoded])])
        parts, rows = [], []
        for bucket in BatchPlanner(batch_size=len(encoded)).plan(widths):
            hidden, cls_at = self.encode_batch(
                [encoded[k] for k in bucket], width=widths[bucket[0]]
            )
            parts.append(hidden.data[(cls_at[:, 0], cls_at[:, 1])])
            rows.extend(np.arange(starts[k], starts[k + 1]) for k in bucket)
        gathered = np.concatenate(parts)
        states = np.empty_like(gathered)
        states[np.concatenate(rows)] = gathered
        return states, None

    def _resolve_session(
        self, kernels: Optional[str], compute_dtype: str
    ) -> Optional[InferenceSession]:
        """Map a (kernels, dtype) request onto a session or the Tensor path."""
        mode = "fast" if kernels is None else kernels
        if mode not in ("fast", "reference"):
            raise ValueError(f"unknown kernel mode {mode!r}; expected 'fast' or 'reference'")
        if mode == "fast" and not self.training:
            return self.inference_session(compute_dtype)
        if compute_dtype != "float32":
            raise ValueError(
                f"compute_dtype {compute_dtype!r} requires the fast kernel path "
                "with the model in eval mode"
            )
        return None

    def apply_type_head(
        self, states: np.ndarray, session: Optional[InferenceSession] = None
    ) -> np.ndarray:
        """Type logits for a ``(rows, d)`` state matrix via the selected path."""
        if session is not None:
            return session.type_head(states)
        return self.type_head(Tensor(states)).data

    def apply_relation_head(
        self, pair_states: np.ndarray, session: Optional[InferenceSession] = None
    ) -> np.ndarray:
        """Relation logits for a ``(rows, 2d)`` state matrix via the selected path."""
        if session is not None:
            return session.relation_head(pair_states)
        if self.relation_head is None:
            raise RuntimeError("model was built without a relation head")
        return self.relation_head(Tensor(pair_states)).data

    # -- inference helpers ------------------------------------------------------
    def predict_type_probs(
        self, encoded: Sequence[EncodedTable], multi_label: bool
    ) -> np.ndarray:
        return activation_probs(self.type_logits(encoded).data, multi_label)

    def predict_relation_probs(
        self,
        encoded: Sequence[EncodedTable],
        pairs: Sequence[Tuple[int, int, int]],
        multi_label: bool,
    ) -> np.ndarray:
        return activation_probs(self.relation_logits(encoded, pairs).data, multi_label)
