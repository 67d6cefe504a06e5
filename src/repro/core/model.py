"""The DODUO model: shared encoder + per-task output heads (Section 4.3).

Column-type prediction applies a dense layer to each column's ``[CLS]``
embedding (Equation 1); column-relation prediction applies a dense layer to
the *concatenation* of two column embeddings (Equation 2).  Both heads share
the same encoder — the hard parameter sharing of the multi-task setup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

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
from .inference import (
    QUANTIZED_DTYPES,
    InferenceSession,
    QuantizedInferenceSession,
    gather_states,
)
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

    Shared by every inference entry point so that single-pass and legacy
    multi-pass paths produce bitwise-identical probabilities from the same
    logits.
    """
    if multi_label:
        return 1.0 / (1.0 + np.exp(-logits))
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class FullForward:
    """Everything one encoder pass yields for a batch of encoded inputs.

    ``type_logits`` and ``embeddings`` are row-aligned with the flattened
    column order (item 0 col 0, item 0 col 1, ..., item 1 col 0, ...);
    ``relation_logits`` is row-aligned with the ``pairs`` argument of
    :meth:`DoduoModel.forward_full`.
    """

    type_logits: Optional[np.ndarray]
    relation_logits: Optional[np.ndarray]
    embeddings: Optional[np.ndarray]
    columns_per_item: Tuple[int, ...]


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
        # ``EngineStats`` and ``TrainingHistory`` surface.
        self.encode_calls = 0
        self.real_tokens = 0
        self.padded_tokens = 0
        # Serving calls answered by the float32 fallback after the int8
        # accuracy gate disproved quantization (see
        # QuantizedInferenceSession); the engine diffs this into
        # ``EngineStats.quant_fallbacks`` alongside the token odometers.
        self.quant_fallbacks = 0
        # Inference sessions (no-tape optimized forward), one per compute
        # dtype.  The leading underscore keeps ``named_parameters`` and the
        # mode walker from descending into them.
        self._sessions: Dict[str, InferenceSession] = {}

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
        caches.
        """
        session = self._sessions.get(dtype)
        if session is None or session.stale():
            if dtype in QUANTIZED_DTYPES:
                session = QuantizedInferenceSession(self)
            else:
                session = InferenceSession(self, dtype)
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
    def forward_full(
        self,
        encoded: Sequence[EncodedTable],
        pairs: Optional[Sequence[Tuple[int, int, int]]] = None,
        with_types: bool = True,
        with_embeddings: bool = True,
        head_groups: Optional[Sequence[Sequence[int]]] = None,
        kernels: Optional[str] = None,
        compute_dtype: str = "float32",
        widths: Optional[Sequence[int]] = None,
    ) -> FullForward:
        """Run the encoder **once** and derive every inference product.

        The legacy ``predict_types`` → ``predict_type_probs`` → relation probe
        → ``column_embeddings`` path re-encodes the same serialized tables up
        to four times; this method reads type logits, relation logits for
        ``pairs`` (``(batch_index, col_i, col_j)`` triples), and the ``[CLS]``
        column embeddings from one set of hidden states.  Each product is
        computed with exactly the same operations as its dedicated entry
        point, so the outputs are bitwise identical to the multi-pass path
        for the same batch composition.

        ``head_groups`` partitions the items into head-application units
        (default: one unit spanning the whole batch).  BLAS kernels select
        differently blocked code paths by matrix row count, so the *number
        of rows* fed to a head GEMM perturbs float32 results at the ulp
        level even though each row's math is independent.  The trainer
        passes one group per table, making every head GEMM's row count a
        function of that table alone — this is the second half of the
        batched==sequential byte-identity contract; the first is that every
        sequence is encoded at the width it would have alone.

        ``widths`` gives that width per item; a session mixes them inside
        one pass.  ``None`` pads the batch jointly to its longest item,
        which is all the Tensor path can do — its caller keeps exact width
        buckets (:meth:`DoduoTrainer.annotate_batch
        <repro.core.trainer.DoduoTrainer.annotate_batch>`) and hands it
        one width per call.

        ``kernels`` selects the forward implementation: ``"fast"`` (the
        default) uses the no-tape :class:`InferenceSession` when the model
        is in eval mode, ``"reference"`` forces the autograd Tensor path.
        Both produce identical bytes — the session replays the reference
        operation sequence and proof-gates every shape-dependent fusion —
        so the choice is purely a speed knob; ``tests/test_kernel_identity``
        enforces the equality.  ``compute_dtype`` is the activation/weight
        precision of the fast path; anything other than ``"float32"``
        requires it (the Tensor path has no dtype policy).
        """
        session = self._resolve_session(kernels, compute_dtype)
        if session is not None:
            hidden_data, locations = session.encode_batch(encoded, width=widths)
        else:
            if widths is not None and len(set(widths)) > 1:
                raise ValueError(
                    "the Tensor path pads a batch to one width; mixed "
                    f"widths {sorted(set(widths))} need a session"
                )
            hidden, cls_at = self.encode_batch(
                encoded, width=widths[0] if widths else None
            )
            hidden_data = hidden.data
            locations = cls_at[:, 0] * hidden_data.shape[1] + cls_at[:, 1]
        column_embeddings = gather_states(hidden_data, locations)
        counts = [e.num_columns for e in encoded]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        if head_groups is None:
            head_groups = [list(range(len(encoded)))]
        elif getattr(session, "merge_head_groups", False):
            # Accuracy-gated sessions (int8) trade the per-group row-count
            # contract away behind their drift gate, which licenses one
            # pass-wide head GEMM chain instead of a chain per table.
            # Checked after encode_batch on purpose: the int8 calibration
            # pass runs there, and a failed gate flips this off so the
            # float32 fallback keeps reference per-group behavior.
            head_groups = [[i for group in head_groups for i in group]]
        type_logits: Optional[np.ndarray] = None
        if with_types:
            embeddings_data = column_embeddings
            parts: list = [None] * len(head_groups)
            row_sets: list = [None] * len(head_groups)
            for g, group in enumerate(head_groups):
                rows = np.concatenate(
                    [np.arange(offsets[i], offsets[i] + counts[i]) for i in group]
                ) if group else np.empty(0, dtype=np.int64)
                row_sets[g] = rows
                parts[g] = (
                    self.apply_type_head(embeddings_data[rows], session)
                    if len(rows)
                    else None
                )
            num_types = self.type_head.out.out_features
            type_logits = np.empty(
                (int(offsets[-1]), num_types), dtype=embeddings_data.dtype
            )
            for rows, part in zip(row_sets, parts):
                if part is not None:
                    type_logits[rows] = part
        relation_logits: Optional[np.ndarray] = None
        if pairs:
            if self.relation_head is None:
                raise RuntimeError("model was built without a relation head")
            item_to_group = {}
            for g, group in enumerate(head_groups):
                for i in group:
                    item_to_group[i] = g
            positions_by_group: Dict[int, list] = {}
            for position, (batch_index, _i, _j) in enumerate(pairs):
                positions_by_group.setdefault(
                    item_to_group[batch_index], []
                ).append(position)
            num_relations = self.relation_head.out.out_features
            relation_logits = np.empty(
                (len(pairs), num_relations), dtype=hidden_data.dtype
            )
            for batch_index, i, j in pairs:
                if not (0 <= i < counts[batch_index] and 0 <= j < counts[batch_index]):
                    raise IndexError(
                        f"pair ({i}, {j}) is out of range for item {batch_index} "
                        f"with {counts[batch_index]} columns"
                    )
            for positions in positions_by_group.values():
                # A column's state is its row of the gathered [CLS] matrix.
                rows_i = [offsets[pairs[p][0]] + pairs[p][1] for p in positions]
                rows_j = [offsets[pairs[p][0]] + pairs[p][2] for p in positions]
                pair_embedding = np.concatenate(
                    [column_embeddings[rows_i], column_embeddings[rows_j]], axis=-1
                )
                relation_logits[positions] = self.apply_relation_head(
                    pair_embedding, session
                )
        return FullForward(
            type_logits=type_logits,
            relation_logits=relation_logits,
            # Fancy indexing already allocated a fresh array; the per-table
            # slices are copied by the consumer, so no copy is needed here.
            embeddings=column_embeddings if with_embeddings else None,
            columns_per_item=tuple(counts),
        )

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
