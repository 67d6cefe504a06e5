"""Per-channel symmetric int8 weight quantization and its accuracy gate.

PR 7's fast path kept the byte-identity contract: every fused kernel is
proof-gated against the reference Tensor forward, so ``float32`` serving
emits the exact legacy bytes.  Int8 quantization is the deliberately
*lossy* half of ROADMAP item 1: weights are stored as int8 with one
float32 scale per **output channel** (GEMM column), accumulation stays
float32, and outputs drift from the float reference by construction.

That drift must never be silent, so the int8 path ships behind an
**accuracy gate** instead of a bitwise proof: on first use a quantized
session runs one calibration pass — the same encoded inputs through the
quantized and the float32 reference forward — and records the max
absolute drift per (layer, shape) in the session's
:class:`~repro.nn.kernels.ProofCache` (the keys live beside the matmul
proofs and, like them, only in process memory).  A drift above the tolerances below is a
*disproof*: the session permanently falls back to the float32 path and
every fallback is counted (``EngineStats.quant_fallbacks``), so a model
whose weights do not quantize cleanly degrades loudly, not silently.

Quantization recipe
-------------------
For a weight matrix ``W`` of shape ``(in, out)`` used as ``x @ W``:

* ``scale[j] = max(|W[:, j]|) / 127`` (all-zero columns get scale 1.0)
* ``q[:, j]  = clip(rint(W[:, j] / scale[j]), -127, 127)`` as int8
* the float32 compute array is ``q * scale`` — dequantized **once** at
  session build, so steady-state inference runs plain float32 GEMMs over
  weights that round-trip through int8.  The int8 tensor (plus scales)
  is the authoritative representation: it is what the weight arena
  stores and what identity/fingerprints derive from.

Per-channel symmetric quantization commutes with column concatenation,
so quantizing Q, K and V separately equals quantizing the packed QKV
matrix — the fused projection needs no special casing.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .layers import Linear, Module

#: Max tolerated absolute drift of any transformer block's hidden states
#: (calibration pass, quantized vs float32 reference).
HIDDEN_DRIFT_TOLERANCE = 0.5

#: Max tolerated absolute drift of type/relation head logits — the gate
#: the accuracy contract is stated in (logit units).
LOGIT_DRIFT_TOLERANCE = 0.5

#: ProofCache key of the summary verdict: ``True`` = the quantized model
#: passed calibration, ``False`` = disproven (permanent float fallback).
GATE_KEY = ("int8-gate",)

#: Key prefix of the per-(layer, shape) drift records.
DRIFT_KEY_PREFIX = "int8-drift"


class QuantizedWeight:
    """One weight matrix in per-channel symmetric int8 form."""

    __slots__ = ("q", "scale")

    def __init__(self, q: np.ndarray, scale: np.ndarray) -> None:
        self.q = q
        self.scale = scale

    @property
    def nbytes(self) -> int:
        return self.q.nbytes + self.scale.nbytes


def quantize_weight(w: np.ndarray) -> QuantizedWeight:
    """Per-output-channel symmetric int8 quantization of ``w``.

    The channel axis is the **last** axis — the GEMM output columns of an
    ``x @ W`` weight (``(in, out)`` for :class:`~repro.nn.layers.Linear`).
    All-zero channels get scale 1.0 so dequantization is exact for them.
    """
    w = np.asarray(w, dtype=np.float32)
    peak = np.max(np.abs(w), axis=tuple(range(w.ndim - 1)))
    scale = np.where(peak > 0, peak / 127.0, 1.0).astype(np.float32)
    q = np.clip(np.rint(w / scale), -127, 127).astype(np.int8)
    return QuantizedWeight(q, scale)


def dequantize_weight(qw: QuantizedWeight) -> np.ndarray:
    """The float32 compute array: ``q * scale`` (one-time, at build)."""
    return (qw.q.astype(np.float32) * qw.scale).astype(np.float32)


def quantize_dequantize(w: np.ndarray) -> np.ndarray:
    """``w`` after an int8 round-trip — the values inference computes with."""
    return dequantize_weight(quantize_weight(w))


def named_linear_weights(module: Module, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
    """``(state-dict name, weight array)`` for every Linear weight.

    Walks instance attributes exactly like ``Module.named_parameters`` so
    the yielded names match state-dict / arena tensor names.  Only the 2-D
    ``weight`` of :class:`~repro.nn.layers.Linear` qualifies: embeddings
    and norms index or scale rather than matrix-multiply, and biases add
    in float32 anyway, so quantizing them buys nothing and costs accuracy.
    """
    if isinstance(module, Linear):
        yield f"{prefix}weight", module.weight.data
        return
    for attr, value in vars(module).items():
        if attr.startswith("_") or attr == "training":
            continue
        name = f"{prefix}{attr}"
        if isinstance(value, Module):
            yield from named_linear_weights(value, prefix=f"{name}.")
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                if isinstance(item, Module):
                    yield from named_linear_weights(item, prefix=f"{name}.{i}.")


def quantizable_weight_names(module: Module) -> set:
    """The state-dict names :func:`named_linear_weights` would quantize."""
    return {name for name, _ in named_linear_weights(module)}


def drift_key(layer: str, shape: Tuple[int, ...]) -> Tuple:
    """ProofCache key of one calibration drift record."""
    return (DRIFT_KEY_PREFIX, layer, tuple(int(s) for s in shape))


def max_drift(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute elementwise difference (0.0 for empty arrays)."""
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
