"""A BERT-style Transformer encoder implemented on the numpy autograd engine.

The encoder mirrors the architecture the paper fine-tunes (multi-head
self-attention, GELU feed-forward, post-norm residual blocks, learned
position embeddings) at a configurable, CPU-friendly scale.  Attention
supports two masking mechanisms:

* a padding keep-mask ``(B, S)`` — standard BERT behaviour, and
* an optional full visibility matrix ``(B, S, S)`` — used by the TURL
  baseline, whose defining difference from DODUO is the removal of
  cross-column attention edges (Section 5.4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import functional as F
from .layers import Dropout, Embedding, LayerNorm, Linear, Module
from .tensor import Tensor


@dataclass(frozen=True)
class TransformerConfig:
    """Hyper-parameters of the encoder.

    The defaults are a "mini-BERT" sized for CPU fine-tuning; the paper used
    BERT-base (12 layers, 768 dims), which is the same architecture scaled up.
    """

    vocab_size: int = 2048
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    max_position: int = 256
    num_segments: int = 2
    dropout: float = 0.1
    layer_norm_eps: float = 1e-5

    def __post_init__(self) -> None:
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim ({self.hidden_dim}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention with optional additive bias masks."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_heads = config.num_heads
        self.head_dim = config.hidden_dim // config.num_heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.query = Linear(config.hidden_dim, config.hidden_dim, rng)
        self.key = Linear(config.hidden_dim, config.hidden_dim, rng)
        self.value = Linear(config.hidden_dim, config.hidden_dim, rng)
        self.output = Linear(config.hidden_dim, config.hidden_dim, rng)
        self._last_attention: Optional[np.ndarray] = None

    def forward(self, x: Tensor, attention_bias: Optional[np.ndarray] = None) -> Tensor:
        batch, seq, dim = x.shape
        heads, head_dim = self.num_heads, self.head_dim

        def split_heads(t: Tensor) -> Tensor:
            return t.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)

        q = split_heads(self.query(x))
        k = split_heads(self.key(x))
        v = split_heads(self.value(x))

        scores = (q @ k.swapaxes(-1, -2)) * self.scale
        if attention_bias is not None:
            scores = scores + Tensor(attention_bias)
        weights = F.softmax(scores, axis=-1)
        self._last_attention = weights.data
        context = weights @ v
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq, dim)
        return self.output(context)

    @property
    def last_attention(self) -> Optional[np.ndarray]:
        """Attention probabilities of the most recent forward pass
        with shape ``(B, heads, S, S)``; used by the attention analysis."""
        return self._last_attention

    def packed_qkv(self, dtype=None):
        """Concatenated projection weights for the fused QKV GEMM.

        Returns a ``(d, 3d)`` weight and a ``(3d,)`` bias whose column
        blocks are ordered query, key, value — the layout
        :class:`repro.core.inference.InferenceSession` slices.  The arrays
        are fresh copies; callers that cache them (inference sessions) must
        rebuild when the underlying projections change.
        """
        weights = [self.query.weight.data, self.key.weight.data, self.value.weight.data]
        biases = [self.query.bias.data, self.key.bias.data, self.value.bias.data]
        if dtype is not None:
            weights = [w.astype(dtype, copy=False) for w in weights]
            biases = [b.astype(dtype, copy=False) for b in biases]
        return np.concatenate(weights, axis=1), np.concatenate(biases)


class TransformerBlock(Module):
    """Post-norm residual block: attention then GELU feed-forward."""

    def __init__(self, config: TransformerConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.attention = MultiHeadSelfAttention(config, rng)
        self.attention_norm = LayerNorm(config.hidden_dim, eps=config.layer_norm_eps)
        self.ffn_in = Linear(config.hidden_dim, config.ffn_dim, rng)
        self.ffn_out = Linear(config.ffn_dim, config.hidden_dim, rng)
        self.ffn_norm = LayerNorm(config.hidden_dim, eps=config.layer_norm_eps)
        self.dropout = Dropout(config.dropout, rng)

    def forward(self, x: Tensor, attention_bias: Optional[np.ndarray] = None) -> Tensor:
        attended = self.attention(x, attention_bias=attention_bias)
        x = self.attention_norm(x + self.dropout(attended))
        hidden = F.gelu(self.ffn_in(x))
        x = self.ffn_norm(x + self.dropout(self.ffn_out(hidden)))
        return x


class TransformerEncoder(Module):
    """Token + position + segment embeddings followed by Transformer blocks.

    ``forward`` accepts either a boolean padding mask ``(B, S)`` or a full
    visibility matrix ``(B, S, S)``; the latter takes precedence when given.
    """

    def __init__(self, config: TransformerConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        self.token_embedding = Embedding(config.vocab_size, config.hidden_dim, rng)
        self.position_embedding = Embedding(config.max_position, config.hidden_dim, rng)
        self.segment_embedding = Embedding(config.num_segments, config.hidden_dim, rng)
        self.embedding_norm = LayerNorm(config.hidden_dim, eps=config.layer_norm_eps)
        self.embedding_dropout = Dropout(config.dropout, rng)
        self.blocks = [TransformerBlock(config, rng) for _ in range(config.num_layers)]
        self._layer_outputs: List[Tensor] = []

    def forward(
        self,
        token_ids: np.ndarray,
        attention_mask: Optional[np.ndarray] = None,
        segment_ids: Optional[np.ndarray] = None,
        visibility: Optional[np.ndarray] = None,
        extra_embedding: Optional[Tensor] = None,
    ) -> Tensor:
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2:
            raise ValueError(f"token_ids must be (batch, seq), got {token_ids.shape}")
        batch, seq = token_ids.shape
        if seq > self.config.max_position:
            raise ValueError(
                f"sequence length {seq} exceeds max_position {self.config.max_position}"
            )

        positions = np.broadcast_to(np.arange(seq), (batch, seq))
        if segment_ids is None:
            segment_ids = np.zeros((batch, seq), dtype=np.int64)

        embedded = (
            self.token_embedding(token_ids)
            + self.position_embedding(positions)
            + self.segment_embedding(segment_ids)
        )
        if extra_embedding is not None:
            # External input features (e.g. DODUO's numeric magnitude
            # embeddings) live outside the encoder so pre-trained encoder
            # checkpoints remain loadable; they join the sum here.
            if extra_embedding.shape != embedded.shape:
                raise ValueError(
                    f"extra_embedding shape {extra_embedding.shape} does not "
                    f"match embeddings {embedded.shape}"
                )
            embedded = embedded + extra_embedding
        hidden = self.embedding_dropout(self.embedding_norm(embedded))

        if visibility is not None:
            bias = F.visibility_bias(visibility)
            if attention_mask is not None:
                bias = bias + F.attention_bias_from_mask(attention_mask)
        elif attention_mask is not None:
            bias = F.attention_bias_from_mask(attention_mask)
        else:
            bias = None

        self._layer_outputs: List[Tensor] = []
        for block in self.blocks:
            hidden = block(hidden, attention_bias=bias)
            self._layer_outputs.append(hidden)
        return hidden

    @property
    def layer_outputs(self) -> List[Tensor]:
        """Hidden states after each block from the most recent forward.

        Index ``-1`` is the final output; earlier layers carry more
        transferable (less task-collapsed) representations, which the
        out-of-domain clustering case study exploits.
        """
        return list(self._layer_outputs)

    def attention_maps(self) -> List[np.ndarray]:
        """Per-layer attention probabilities from the most recent forward."""
        maps = []
        for block in self.blocks:
            attn = block.attention.last_attention
            if attn is not None:
                maps.append(attn)
        return maps
