"""Neural-network modules built on the autograd tensor.

The :class:`Module` base class provides parameter discovery (for optimizers
and checkpointing) by walking instance attributes, mirroring the familiar
PyTorch convention while staying pure numpy.
"""

from __future__ import annotations

import contextlib
import mmap
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from .tensor import Tensor

#: When True, Linear/Embedding allocate their weights as untouched zeros
#: instead of drawing random initial values.  See :func:`deferred_init`.
_DEFER_INIT = False


@contextlib.contextmanager
def deferred_init():
    """Skip random weight initialization inside the context.

    For load paths that overwrite every parameter anyway (checkpoint
    load, arena attach), random init writes the full weight payload once
    just to throw it away — which costs startup time and, in a forked
    serving worker, permanently dirties that many copy-on-write heap
    pages.  Deferred parameters are ``np.zeros`` allocations: backed by
    untouched zero pages, they cost no physical memory until written,
    and none at all when an arena view replaces them.

    Strictly for full-overwrite loads: a deferred module that is never
    loaded has all-zero weights, and the module's RNG stream is not
    advanced, so partially-initialized training setups must not use it.
    """
    global _DEFER_INIT
    previous = _DEFER_INIT
    _DEFER_INIT = True
    try:
        yield
    finally:
        _DEFER_INIT = previous


def _untouched_zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """A zero float32 array on fresh anonymous pages.

    ``np.zeros`` may recycle already-dirtied heap pages (whose memset
    then copies them in a forked worker); an explicit anonymous mmap is
    backed by untouched zero pages that cost no physical memory until —
    unless — they are written.
    """
    size = max(1, int(np.prod(shape))) * np.dtype(np.float32).itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype=np.float32, count=int(
        np.prod(shape)
    )).reshape(shape)


class Module:
    """Base class for layers: tracks parameters and training mode."""

    def __init__(self) -> None:
        self.training = True

    # -- parameter discovery -------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for attr, value in vars(self).items():
            if attr.startswith("_") or attr == "training":
                continue
            name = f"{prefix}{attr}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{i}", item

    def parameters(self) -> List[Tensor]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(param.size for param in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # -- train / eval mode ---------------------------------------------------
    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        # Mode only ever changes through train()/eval(), which set the
        # whole subtree — so a node that already has the requested flag
        # roots a consistent subtree and the walk can stop.  Serving
        # calls eval() before every forward; without this short-circuit
        # that is a full module-tree walk per request.
        if self.training is training:
            return
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- checkpointing --------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.shape}, got {value.shape}"
                )
            param.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W + b`` with Xavier-uniform initialization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        if _DEFER_INIT:
            weight = _untouched_zeros((in_features, out_features))
        else:
            bound = np.sqrt(6.0 / (in_features + out_features))
            weight = rng.uniform(
                -bound, bound, size=(in_features, out_features)
            ).astype(np.float32)
        self.weight = Tensor(weight, requires_grad=True)
        if bias:
            self.bias: Optional[Tensor] = Tensor(
                np.zeros(out_features, dtype=np.float32), requires_grad=True
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        scale: float = 0.02,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        if _DEFER_INIT:
            weight = _untouched_zeros((num_embeddings, embedding_dim))
        else:
            weight = (
                rng.standard_normal((num_embeddings, embedding_dim)) * scale
            ).astype(np.float32)
        self.weight = Tensor(weight, requires_grad=True)

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return F.embedding_lookup(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Tensor(np.ones(normalized_dim, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(normalized_dim, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, eps=self.eps)


class Dropout(Module):
    """Inverted dropout driven by an explicit generator for determinism."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1): {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, self._rng, training=self.training)
