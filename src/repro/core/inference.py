"""No-tape inference sessions: the optimized twin of the autograd forward.

:class:`InferenceSession` captures a :class:`~repro.core.model.DoduoModel`'s
weights once and replays the encoder forward with the kernels from
:mod:`repro.nn.kernels`: a fused QKV GEMM, projections landing in
preallocated workspace buffers, and in-place softmax/layernorm/GELU.  Every
operation mirrors the reference Tensor path's exact sequence (the reference
defines the bytes), and the GEMMs whose shape differs from the reference's
are proof-gated per band of sequence widths, never per shape, so a
session's outputs are bitwise identical to the autograd forward at the
same weights — ``tests/test_kernel_identity.py`` pins this
differentially.

Token-major batching
--------------------
DODUO's sequences are short (a whole table in a few dozen tokens), so a
forward pass over one is mostly the dispatch cost of its ~150 small numpy
calls, and padding tables of different widths into a rectangle would change
their bytes.  A session therefore never builds a rectangle: the
sequences of a batch are laid end to end in one ``(sum of widths, dim)``
matrix, each at exactly the width the reference path gives it alone (its
own length, or — single-column mode, forced column-cache encodes — the
padded width its table dictates, pad rows and mask bias included).  Every
token-wise step runs once over that matrix and only attention runs per
width group, so a drain of eight tables of eight widths is one pass, not
eight.  What keeps the bytes: row-wise ufuncs and last-axis reductions do
not see the other rows by construction, and the one thing that could — a
GEMM choosing its kernel by row count — is proven per (K, N, dtype) and band
of sequence widths before it is relied on, with per-sequence GEMMs as the
fallback (:meth:`InferenceSession._project`).

The last block computes only what is read
-----------------------------------------
Both heads read one thing from the encoder: the last block's state at each
column's ``[CLS]`` — a few rows in a hundred.  So the last block still
projects Q, K and V for every row (every row is attended *to*), but attends
*from* the ``[CLS]`` rows only and runs its output projection, layer norms,
FFN and GELU over those rows alone (:meth:`InferenceSession._block`,
``prune``).  It is the same block with fewer rows, licensed by two bitwise
verdicts — GEMM rows that ignore the row count, attention rows that ignore
the query count (:meth:`InferenceSession._may_prune`) — which are proven
only once enough skippable rows have gone by to pay for the proof, never
inside a first request.  Unlicensed, the block runs whole.

Dtype
-----
A session computes in float32, the reference path's dtype.  Captured
arrays *are* the live parameter arrays (no copy), plus a packed QKV copy
per block.

Staleness
---------
``stale()`` detects any parameter whose ``.data`` array was **replaced**
(``load_state_dict``, checkpoint restore, manual surgery) by object
identity, and :meth:`DoduoModel.train` drops sessions so optimizer steps —
which update weights in place — can never serve through a stale packed
QKV.  Code that mutates weights in place *outside* the training
loop must call ``DoduoModel.invalidate_sessions()``, the same contract the
trainer's ``invalidate_fingerprint()`` already imposes for the result
caches (which would otherwise serve stale hits anyway).

The hidden-state array returned by :meth:`encode_batch` aliases workspace
memory: it is valid until the next call on the same session.  Callers
gather what they need (``[CLS]`` rows, :func:`gather_states`) before
re-entering.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..nn import functional as F
from ..nn.kernels import (
    Workspace,
    _reference_matmul,
    attend,
    gelu_,
    layer_norm_,
    proof_rows,
    prove_query_stable,
    prove_row_stable,
    query_stable_key,
    row_stable_key,
    split_heads,
    width_band,
)
from .serialization import EncodedTable, column_visibility

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .model import DoduoModel

class _BlockWeights:
    """Flat per-block weight bundle (plain ndarrays, session dtype)."""

    __slots__ = (
        "w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_qkv", "b_qkv",
        "w_o", "b_o", "scale32", "heads", "head_dim",
        "attn_gamma", "attn_beta", "attn_eps",
        "w_in", "b_in", "w_out", "b_out",
        "ffn_gamma", "ffn_beta", "ffn_eps",
    )


class _Group:
    """One run of same-width sequences in a token-major batch: rows
    ``start:stop`` of the flat matrix, ``members`` indexing the caller's
    items, ``bias`` the additive attention bias (``None`` = all zeros),
    ``queries`` the ``(count, c)`` flat rows the caller reads — ``c >= 2``
    per sequence, because one query row would make attention a
    matrix-vector product, which sums in another order."""

    __slots__ = ("start", "stop", "width", "members", "bias", "queries")

    def __init__(self, start: int, width: int) -> None:
        self.start = self.stop = start
        self.width = width
        self.members: List[int] = []
        self.bias: Optional[np.ndarray] = None
        self.queries: Optional[np.ndarray] = None


def gather_states(hidden: np.ndarray, locations: np.ndarray) -> np.ndarray:
    """Rows ``locations`` of an ``encode_batch`` result, whichever of its
    two shapes (token-major or one-width rectangle) it came back in."""
    return hidden.reshape(-1, hidden.shape[-1])[locations]


class InferenceSession:
    """One model, ready for repeated no-tape float32 forwards."""

    def __init__(self, model: "DoduoModel") -> None:
        self.model = model
        self.dtype = "float32"
        self._np_dtype = np.dtype(self.dtype)
        # DoduoModel.inference_session swaps the model's kept bitwise
        # verdicts in for this workspace's fresh proof cache.
        self.workspace = Workspace()
        self._sources: List[Tuple[object, np.ndarray]] = []
        # Rows the last block computed for lack of a verdict that would
        # have let it skip them: what a deferred proof is weighed against
        # (see _may_prune).
        self._banked_rows = 0

        encoder = model.encoder
        self.max_position = encoder.config.max_position
        self._positions = np.arange(self.max_position)
        self.num_segments = encoder.config.num_segments
        self.tok_w = self._arr(encoder.token_embedding.weight)
        self.pos_w = self._arr(encoder.position_embedding.weight)
        self.seg_w = self._arr(encoder.segment_embedding.weight)
        self.emb_gamma = self._arr(encoder.embedding_norm.gamma)
        self.emb_beta = self._arr(encoder.embedding_norm.beta)
        self.emb_eps = encoder.embedding_norm.eps

        self.blocks: List[_BlockWeights] = []
        for block in encoder.blocks:
            attn = block.attention
            bw = _BlockWeights()
            bw.w_q = self._arr(attn.query.weight)
            bw.b_q = self._arr(attn.query.bias)
            bw.w_k = self._arr(attn.key.weight)
            bw.b_k = self._arr(attn.key.bias)
            bw.w_v = self._arr(attn.value.weight)
            bw.b_v = self._arr(attn.value.bias)
            bw.w_qkv, bw.b_qkv = attn.packed_qkv(dtype=self._np_dtype)
            bw.w_o = self._arr(attn.output.weight)
            bw.b_o = self._arr(attn.output.bias)
            # The reference path multiplies scores by Tensor(scale), which
            # wraps the python float as a float32 scalar regardless of the
            # activation dtype — replicated exactly here.
            bw.scale32 = np.asarray(attn.scale, dtype=np.float32)
            bw.heads = attn.num_heads
            bw.head_dim = attn.head_dim
            bw.attn_gamma = self._arr(block.attention_norm.gamma)
            bw.attn_beta = self._arr(block.attention_norm.beta)
            bw.attn_eps = block.attention_norm.eps
            bw.w_in = self._arr(block.ffn_in.weight)
            bw.b_in = self._arr(block.ffn_in.bias)
            bw.w_out = self._arr(block.ffn_out.weight)
            bw.b_out = self._arr(block.ffn_out.bias)
            bw.ffn_gamma = self._arr(block.ffn_norm.gamma)
            bw.ffn_beta = self._arr(block.ffn_norm.beta)
            bw.ffn_eps = block.ffn_norm.eps
            self.blocks.append(bw)

        if model.numeric_embedding is not None:
            self.num_w: Optional[np.ndarray] = self._arr(model.numeric_embedding.weight)
        else:
            self.num_w = None
        self.th_w1 = self._arr(model.type_head.dense.weight)
        self.th_b1 = self._arr(model.type_head.dense.bias)
        self.th_w2 = self._arr(model.type_head.out.weight)
        self.th_b2 = self._arr(model.type_head.out.bias)
        if model.relation_head is not None:
            self.rh_w1: Optional[np.ndarray] = self._arr(model.relation_head.dense.weight)
            self.rh_b1 = self._arr(model.relation_head.dense.bias)
            self.rh_w2 = self._arr(model.relation_head.out.weight)
            self.rh_b2 = self._arr(model.relation_head.out.bias)
        else:
            self.rh_w1 = None
            self.rh_b1 = self.rh_w2 = self.rh_b2 = None

    # -- weight capture ----------------------------------------------------------
    def _arr(self, param) -> np.ndarray:
        """Capture one parameter: share the live array when the dtype
        matches, cast once otherwise; record the source for staleness."""
        data = param.data
        self._sources.append((param, data))
        if data.dtype == self._np_dtype:
            return data
        return data.astype(self._np_dtype)

    def stale(self) -> bool:
        """True when any captured parameter's array has been replaced."""
        return any(param.data is not source for param, source in self._sources)

    # -- forward -----------------------------------------------------------------
    def encode_batch(
        self,
        encoded: Sequence[EncodedTable],
        width: Union[None, int, Sequence[int]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """No-tape twin of :meth:`DoduoModel.encode_batch`, padding-free.

        ``width`` is the padded width of the sequences: ``None`` pads every
        one to the longest (what the reference path does with this batch),
        an int forces one width for all (the column cache encodes misses at
        the bucket width), and a sequence gives **each item its own** — the
        width the reference path would give it alone.  Items of different
        widths then share this one pass without being inflated into a
        rectangle: see :meth:`_forward`.

        Returns ``(hidden, locations)``.  ``hidden`` is token-major,
        ``(sum of widths, dim)``, the sequences laid end to end in ascending
        width order — or, when every sequence has one width, the same
        buffer's ``(batch, width, dim)`` view, rows in input order.
        ``locations`` holds the flat row of every column's ``[CLS]`` in item
        order, so ``hidden.reshape(-1, dim)[locations]`` gathers the column
        states either way.  Only those rows are promised to be the encoder's
        output: when the last block runs pruned (:meth:`_forward`), every
        other row of ``hidden`` holds the block before's.  ``hidden``
        aliases workspace memory (valid until the next session call).  Same
        odometer updates, same range checks, same bytes as the reference.
        """
        model = self.model
        lengths = [item.length for item in encoded]
        if width is None:
            widths = [max(lengths, default=0)] * len(encoded)
        elif isinstance(width, (int, np.integer)):
            widths = [int(width)] * len(encoded)
        else:
            widths = [int(w) for w in width]
            if len(widths) != len(encoded):
                raise ValueError(
                    f"{len(widths)} widths for {len(encoded)} sequences"
                )
        for length, padded in zip(lengths, widths):
            if padded < length:
                raise ValueError(
                    f"width {padded} cannot hold a sequence of length {length}"
                )
        if widths and max(widths) > self.max_position:
            raise ValueError(
                f"sequence length {max(widths)} exceeds max_position "
                f"{self.max_position}"
            )
        model.encode_calls += 1
        model.real_tokens += sum(lengths)
        model.padded_tokens += sum(widths)

        # Lay the sequences end to end, same widths adjacent (stable, so a
        # one-width batch keeps input order): each width group is then one
        # contiguous run of rows that attention can view as a rectangle.
        starts = [0] * len(encoded)
        groups: List[_Group] = []
        total = 0
        for k in sorted(range(len(encoded)), key=widths.__getitem__):
            if not groups or groups[-1].width != widths[k]:
                groups.append(_Group(total, widths[k]))
            groups[-1].members.append(k)
            starts[k] = total
            total += widths[k]
        token_ids = np.zeros(total, dtype=np.int64)  # PAD is always id 0
        # -1 is "no column" ([SEP] and padding): segment 0 after the shift.
        column_ids = np.full(total, -1, dtype=np.int64)
        numeric = None if self.num_w is None else np.zeros(total, dtype=np.int64)
        for item, start, length in zip(encoded, starts, lengths):
            stop = start + length
            token_ids[start:stop] = item.token_ids
            if model.use_column_segments:
                column_ids[start:stop] = item.column_ids
            if numeric is not None and item.numeric_ids is not None:
                numeric[start:stop] = item.numeric_ids
        positions = np.empty(total, dtype=np.int64)
        for group in groups:
            members = [encoded[k] for k in group.members]
            group.stop = group.start + len(members) * group.width
            positions[group.start : group.stop].reshape(
                len(members), group.width
            )[:] = self._positions[: group.width]
            group.bias = self._attention_bias(members, group.width)
            group.queries = self._query_rows(members, group)
        segments = np.clip(column_ids + 1, 0, self.num_segments - 1)
        hidden = self._forward(token_ids, positions, segments, numeric, groups)
        if len(groups) == 1:
            hidden = hidden.reshape(-1, groups[0].width, hidden.shape[-1])
        locations = [
            item.cls_positions + start for item, start in zip(encoded, starts)
        ]
        return hidden, (
            np.concatenate(locations) if locations else np.empty(0, dtype=np.int64)
        )

    @staticmethod
    def _query_rows(members: Sequence[EncodedTable], group: _Group) -> np.ndarray:
        """The flat rows of one width group its caller reads, ``(count,
        c)``: every member's ``[CLS]`` rows, brought to one count ``c >= 2``
        by repeating its last (a sequence without columns offers row 0)."""
        most = max(2, max(item.num_columns for item in members))
        rows = np.empty((len(members), most), dtype=np.int64)
        for row, item in zip(rows, members):
            columns = item.num_columns
            row[:columns] = item.cls_positions
            row[columns:] = item.cls_positions[-1] if columns else 0
        rows += group.start + group.width * np.arange(len(members))[:, None]
        return rows

    def _attention_bias(
        self, members: Sequence[EncodedTable], width: int
    ) -> Optional[np.ndarray]:
        """The additive score bias of one width group, as the reference
        builds it — or ``None`` when it would be all zeros (no padding, no
        visibility matrix): softmax subtracts the row maximum first, so
        adding zeros cannot change a byte of its output."""
        visible = self.model.use_visibility_matrix
        if not visible and all(item.length == width for item in members):
            return None
        mask = np.zeros((len(members), width), dtype=bool)
        for row, item in enumerate(members):
            mask[row, : item.length] = True
        bias = F.attention_bias_from_mask(mask)
        if visible:
            bias = F.visibility_bias(column_visibility(members, width=width)) + bias
        return bias

    def _embed(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray,
        segment_ids: np.ndarray,
        numeric_ids: Optional[np.ndarray],
    ) -> np.ndarray:
        """Embedding sum + layer norm over index arrays of any shape."""
        if token_ids.size and (
            int(token_ids.min()) < 0 or int(token_ids.max()) >= self.tok_w.shape[0]
        ):
            raise IndexError("token id out of range for embedding")
        # (tok + pos) + seg [+ numeric] in the reference's left-to-right
        # order; in-place adds on the fresh gather are bitwise neutral.
        x = self.tok_w[token_ids]
        np.add(x, self.pos_w[positions], out=x)
        np.add(x, self.seg_w[segment_ids], out=x)
        if numeric_ids is not None:
            np.add(x, self.num_w[numeric_ids], out=x)
        return layer_norm_(
            x, self.emb_gamma, self.emb_beta, self.emb_eps, self.workspace
        )

    def _forward(
        self,
        token_ids: np.ndarray,
        positions: np.ndarray,
        segment_ids: np.ndarray,
        numeric_ids: Optional[np.ndarray],
        groups: Sequence[_Group],
    ) -> np.ndarray:
        """The one forward: token-major over a whole ragged batch.

        Every token-wise step — embedding sum, layer norms, the QKV /
        output / FFN projections, bias adds, GELU, residuals — runs once
        over the flat ``(sum of widths, dim)`` matrix; only attention, the
        one step that mixes rows, runs per width group.  Row-wise ufuncs
        and last-axis reductions give a row the same bytes whatever else
        is in the array; the projections rely on :meth:`_project`'s gate.
        A same-width batch is simply the one-group case.

        The last block answers only the rows the caller reads (the groups'
        ``queries``) when :meth:`_may_prune` licenses it; its other rows
        then keep the block before's output.
        """
        x = self._embed(token_ids, positions, segment_ids, numeric_ids)
        rows = kept = x.shape[0]
        # Not beside a width-1 sequence: its projections are matrix-vector
        # calls that run alone (groups ascend by width).
        if self.blocks and groups and groups[0].width > 1:
            kept = sum(group.queries.size for group in groups)
            band = width_band(groups[-1].width, self.max_position)
            if not (kept < rows and self._may_prune(band, rows - kept)):
                kept = rows
        self.model.last_block_rows += kept
        last = self.blocks[-1] if kept < rows else None
        for bw in self.blocks:
            x = self._block(x, groups, bw, prune=bw is last)
        return x

    def _row_stable(
        self,
        w: np.ndarray,
        band: int,
        parts: Optional[Sequence[np.ndarray]],
        prove: bool,
    ) -> Optional[bool]:
        """The row-stability verdict of ``w`` for ``band``, proven now if
        it is missing and ``prove`` says this is the time; a disproof is
        logged once, when it is found."""
        proofs = self.workspace.proofs
        key = row_stable_key(w, band)
        stable = proofs.verdict(key)
        if stable is None and prove:
            stable = prove_row_stable(w, band, parts)
            proofs.record(key, stable)
            if not stable:
                logger.warning(
                    "GEMM rows depend on the row count for K=%d N=%d dtype=%s "
                    "(sequence widths up to %d): ragged passes run these "
                    "projections per sequence, and the last block runs whole",
                    w.shape[0], w.shape[1], w.dtype.name, band,
                )
        return stable

    def _may_prune(self, band: int, skipped: int) -> bool:
        """May the last block of this pass — widest sequence in ``band``,
        ``skipped`` rows to save — run over the kept rows only?

        Two bitwise verdicts license it.  The kept rows' output and FFN
        products are flat GEMMs at a row count of their own, which is
        :func:`~repro.nn.kernels.prove_row_stable`'s question for every
        weight shape of the block; attention from a few query rows is
        :func:`~repro.nn.kernels.prove_query_stable`'s.  A ``False`` on
        any of them means the full block, for good.

        No pass proves on arrival — a first request, a one-shot CLI run
        and a cold benchmark would pay milliseconds to save microseconds.
        An unlicensed pass runs the full block and banks the rows it would
        have skipped; the missing proofs run once the bank exceeds their
        own row count (:func:`~repro.nn.kernels.proof_rows`).
        """
        proofs = self.workspace.proofs
        bw = self.blocks[-1]
        gemms = (
            (bw.w_qkv, (bw.w_q, bw.w_k, bw.w_v)),
            (bw.w_o, None),
            (bw.w_in, None),
            (bw.w_out, None),
        )
        query_key = query_stable_key(bw.head_dim, self._np_dtype, band)
        verdicts = [self._row_stable(w, band, None, False) for w, _ in gemms]
        verdicts.append(proofs.verdict(query_key))
        if False in verdicts:
            return False
        if None not in verdicts:
            return True
        self._banked_rows += skipped
        if self._banked_rows <= proof_rows(band):
            return False
        self._banked_rows = 0
        if not all(self._row_stable(w, band, parts, True) for w, parts in gemms):
            return False
        stable = proofs.verdict(query_key)
        if stable is None:
            stable = prove_query_stable(
                bw.heads, bw.head_dim, self._np_dtype, band, bw.scale32
            )
            proofs.record(query_key, stable)
            if not stable:
                logger.warning(
                    "attention rows depend on the query count for head_dim=%d "
                    "dtype=%s (sequence widths up to %d): the last block runs "
                    "whole",
                    bw.head_dim, self.dtype, band,
                )
        return stable

    def _project(
        self,
        x: np.ndarray,
        w: np.ndarray,
        name: str,
        groups: Sequence[_Group],
        parts: Optional[Sequence[np.ndarray]] = None,
    ) -> np.ndarray:
        """``x @ w`` for the flat ``(rows, K)`` matrix, into buffer ``name``.

        The reference path multiplies each sequence on its own, so one GEMM
        over all the rows is right only if a GEMM's output rows do not
        depend on how many other rows share the call.  That is a property
        of the BLAS build, proven once per (K, N, dtype) and band of
        sequence widths (:func:`~repro.nn.kernels.prove_row_stable`,
        :func:`~repro.nn.kernels.width_band`) the first time a pass holds
        more than one width (or once :meth:`_may_prune` has banked the
        proof's worth of rows) — never per row count, or every never-seen
        total would pay a reference recompute.  Until then, for a
        disproven band, and always for width-1 sequences (a one-row
        product is a matrix-vector call), each width group runs the
        reference form itself: the ``(count, width, K)`` batch the
        reference path would run, one GEMM per part — bytes by
        construction, so nothing is proven per shape.

        ``x`` may hold fewer rows than the groups span — the last block's
        kept rows, which only come here with a ``True`` verdict and no
        width-1 group, so they are one flat GEMM.
        """
        rows, inner = x.shape
        out = self.workspace.take(name, (rows, w.shape[1]), x.dtype)
        band = width_band(groups[-1].width if groups else 0, self.max_position)
        stable = self._row_stable(w, band, parts, prove=len(groups) > 1)
        flat_from = rows
        if stable:
            flat_from = groups[0].stop if groups and groups[0].width < 2 else 0
        for group in groups:
            if group.start >= flat_from:
                break
            shape = (len(group.members), group.width)
            np.copyto(
                out[group.start : group.stop].reshape(shape + (w.shape[1],)),
                _reference_matmul(
                    x[group.start : group.stop].reshape(shape + (inner,)), w, parts
                ),
            )
        if flat_from == 0:
            np.matmul(x, w, out=out)
        elif flat_from < rows:
            np.matmul(x[flat_from:], w, out=out[flat_from:])
        return out

    def _block(
        self,
        x: np.ndarray,
        groups: Sequence[_Group],
        bw: _BlockWeights,
        prune: bool = False,
    ) -> np.ndarray:
        """One encoder block over the flat matrix ``x``.

        ``prune`` is the last block's form: every row is still projected
        to Q, K and V (all of them are attended *to*), but attention runs
        *from* the groups' ``queries`` only, and the output projection,
        both layer norms, the FFN and GELU over those kept rows alone.
        The result is written over ``x``'s kept rows and ``x`` returned, so
        the shape callers see does not change.
        """
        ws = self.workspace
        heads, head_dim = bw.heads, bw.head_dim
        qkv = self._project(
            x, bw.w_qkv, "qkv", groups, parts=(bw.w_q, bw.w_k, bw.w_v)
        )
        qkv += bw.b_qkv
        kept, residual = None, x
        if prune:
            kept = np.concatenate([group.queries.ravel() for group in groups])
            residual = x[kept]
        context = ws.take("context_rows", residual.shape, x.dtype)
        done = 0  # the groups tile the rows, whole or kept, in order
        for group in groups:
            count = len(group.members)
            queries, bias = None, group.bias
            if prune:
                queries = group.queries - group.start
                if self.model.use_visibility_matrix:
                    # (count, 1, width, width): the kept queries' rows.
                    at = queries % group.width
                    bias = bias[np.arange(count)[:, None], 0, at][:, None]
            q, k, v = split_heads(qkv[group.start : group.stop], count, heads, queries)
            attended = attend(q, k, v, bias, bw.scale32)
            rows = count * attended.shape[2]
            np.copyto(
                context[done : done + rows].reshape(count, -1, heads, head_dim),
                attended.transpose(0, 2, 1, 3),
            )
            done += rows
        attended = self._project(context, bw.w_o, "attn_out", groups)
        attended += bw.b_o
        np.add(residual, attended, out=attended)
        mid = layer_norm_(attended, bw.attn_gamma, bw.attn_beta, bw.attn_eps, ws)
        hidden = self._project(mid, bw.w_in, "ffn_h", groups)
        hidden += bw.b_in
        gelu_(hidden, ws)
        # The kept rows get a buffer of their own: "ffn_o" holds ``x``,
        # the block before's output, which they are written back into.
        out = self._project(hidden, bw.w_out, "kept_o" if prune else "ffn_o", groups)
        out += bw.b_out
        np.add(mid, out, out=out)
        out = layer_norm_(out, bw.ffn_gamma, bw.ffn_beta, bw.ffn_eps, ws)
        if not prune:
            return out
        x[kept] = out
        return x

    # -- heads -------------------------------------------------------------------
    def type_head(self, states: np.ndarray) -> np.ndarray:
        """Raw-numpy twin of :class:`ColumnTypeHead` (same op sequence)."""
        return self._head(states, self.th_w1, self.th_b1, self.th_w2, self.th_b2)

    def relation_head(self, pair_states: np.ndarray) -> np.ndarray:
        """Raw-numpy twin of :class:`ColumnRelationHead`."""
        if self.rh_w1 is None:
            raise RuntimeError("model was built without a relation head")
        return self._head(pair_states, self.rh_w1, self.rh_b1, self.rh_w2, self.rh_b2)

    @staticmethod
    def _head(states, w1, b1, w2, b2) -> np.ndarray:
        hidden = np.matmul(states, w1) + b1
        # Reference GELU sequence (repro.nn.functional.gelu) on fresh
        # arrays: head inputs are small (rows = columns of one table), so
        # workspace reuse buys nothing here and op-order fidelity is what
        # keeps the bytes identical.
        squared = hidden * hidden
        inner = F._SQRT_2_OVER_PI * (hidden + 0.044715 * (squared * hidden))
        activated = 0.5 * hidden * (1.0 + np.tanh(inner))
        return np.matmul(activated, w2) + b2
