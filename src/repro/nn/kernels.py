"""Optimized inference kernels: in-place ops, workspaces, proof gates.

The autograd path in :mod:`repro.nn.functional` is the *reference*
implementation: its operation sequences define the bytes every other path
must reproduce.  This module provides the serving-speed twins:

* :func:`softmax_`, :func:`layer_norm_`, :func:`gelu_` — the same ufunc
  sequences as the reference kernels, computed in place on caller-owned
  buffers.  A ufunc with ``out=`` produces bitwise-identical values to its
  allocating form, so these are byte-safe by construction; the differential
  harness (``tests/test_kernel_identity.py``) pins that.
* :class:`Workspace` — preallocated scratch regions reused across batches.
  One workspace lives per inference session (per engine), so the
  token-wise steps of steady-state serving allocate no large temporaries.
* :func:`attend` — attention over one width group with the reference's
  calls: it allocates its two products as the reference does, and runs
  the row-wise steps between them in place.
* :func:`prove_row_stable` — the gate of token-major (ragged) batching: one
  verdict per weight shape, dtype and band of sequence widths, never per
  row count, on whether a GEMM over many concatenated sequences gives each
  sequence the rows it would get alone.
* :func:`prove_query_stable` — the second gate of the pruned last encoder
  block: one verdict per head size, dtype and band, on whether attention
  over a few selected query rows gives them the rows of the full product.

BLAS kernel selection is shape-dependent and implementation-defined, so
what changes a GEMM's shape against the reference — many sequences in one
call, a few query rows instead of all — is not *assumed* byte-identical.
It is gated per band of sequence widths, never per shape: a verdict in a
:class:`ProofCache` covers every row count, and an unproven or disproven
band runs the reference form itself, never both forms.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Sequence, Tuple

import numpy as np

from .functional import _SQRT_2_OVER_PI


class ProofCache:
    """Bitwise-equivalence verdicts for shape-dependent optimizations.

    ``verdict(key)`` returns ``True`` (proven identical), ``False``
    (disproven — use the reference form), or ``None`` (not yet tried).

    Two kinds of proof share the cache: row stability and query
    stability, one verdict per weight shape or head size, dtype and band
    of sequence widths.

    Verdicts live in process memory only: they describe the BLAS kernels
    this process dispatches to (one OpenBLAS build picks a family per CPU,
    or per ``OPENBLAS_CORETYPE``), which nothing on disk can name — so
    every process proves for itself.
    """

    def __init__(self) -> None:
        self.verdicts: Dict[Hashable, bool] = {}
        self.proofs_run = 0
        self.proofs_failed = 0

    def __len__(self) -> int:
        return len(self.verdicts)

    def verdict(self, key: Hashable) -> Optional[bool]:
        return self.verdicts.get(key)

    def record(self, key: Hashable, ok: bool) -> None:
        self.proofs_run += 1
        if not ok:
            self.proofs_failed += 1
        self.verdicts[key] = bool(ok)


class Workspace:
    """Scratch regions reused across forward passes, one flat buffer each.

    :meth:`take` hands out a view of any shape and dtype that fits a
    region's capacity, ``offset`` bytes in, so one region can hold in turn
    arrays whose lifetimes do not overlap (the encoder block's layout is
    in :meth:`~repro.core.inference.InferenceSession._block`).  A request
    past the capacity allocates a larger buffer and drops the old one (views
    already handed out keep it alive), so a region's footprint is its
    largest request so far: bounded by ``batch_size`` times the widest
    sequences served.
    """

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self.proofs = ProofCache()

    def take(
        self, name: str, shape: Tuple[int, ...], dtype, offset: int = 0
    ) -> np.ndarray:
        dtype = np.dtype(dtype)
        stop = offset + dtype.itemsize * math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < stop:
            buf = self._buffers[name] = np.empty(stop, dtype=np.uint8)
        return buf[offset:stop].view(dtype).reshape(shape)

    @property
    def allocated_bytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())


def _reference_matmul(
    a: np.ndarray, b: np.ndarray, parts: Optional[Sequence[np.ndarray]]
) -> np.ndarray:
    """The allocating form the Tensor path runs: ``a @ b``, or — when the
    reference multiplies column blocks of ``b`` separately (the unfused
    Q/K/V projections) — the blocks' products side by side."""
    if parts is None:
        return np.matmul(a, b)
    return np.concatenate([np.matmul(a, part) for part in parts], axis=-1)


#: Longest run of rows one proof GEMM covers (scratch: a megabyte or two).
_PROOF_RUN_ROWS = 1024

#: Proof-cache key prefix of the row-stability verdicts:
#: ``(ROW_STABLE, K, N, dtype, width band)`` — deliberately no row count.
ROW_STABLE = "row_stable"

#: Narrowest width band a row-stability proof covers.
_MIN_BAND = 64


def width_band(width: int, max_width: int) -> int:
    """The band of sequence widths a proof for ``width`` covers: 2 up to
    the next power of two (at least ``_MIN_BAND``, at most ``max_width``).

    Proving *every* width up to ``max_position`` costs rows quadratic in
    it — a tenth of a second at 256 — while DODUO's sequences are a few
    dozen tokens; bands make a narrow workload pay for narrow widths only,
    and keep the verdict count logarithmic.  Each band is proven on its
    own, from width 2 up, the first time a mixed-width pass needs it.
    """
    return min(max_width, max(_MIN_BAND, 1 << max(0, width - 1).bit_length()))


def row_stable_key(w: np.ndarray, band: int) -> Tuple[str, int, int, str, int]:
    return (ROW_STABLE, w.shape[0], w.shape[1], w.dtype.str, band)


def prove_row_stable(
    w: np.ndarray,
    max_width: int,
    parts: Optional[Sequence[np.ndarray]] = None,
) -> bool:
    """Do this weight's GEMM output rows ignore how many rows share the call?

    The differential run behind token-major batching: sequences of every
    width from 2 to ``max_width``, in shuffled order, are laid end to end
    in runs of a few hundred to a thousand rows; one GEMM (the ``out=``
    form, fused over ``parts``) runs over each whole run, and each
    sequence's rows must equal, bitwise, what the reference path computes
    for that sequence alone — the allocating ``matmul`` over a
    ``(1, width, K)`` batch, one call per part.  The same GEMM over the
    sequence's rows only must give them too: the last encoder block
    multiplies just the rows its callers read (two to a few hundred), so
    the shared call is tried at every row count from 2 up, not only at
    the long runs'.  BLAS picks kernels by
    shape, not by value, so the data is a fixed pseudo-random block: the
    verdict is a property of the build, of (K, N, dtype) and of the widths
    covered, which is what :func:`row_stable_key` keys it by (``max_width``
    being a :func:`width_band`).  Runs are capped so the proof's
    scratch stays a megabyte or two, not a spike in the process's peak RSS.

    Width 1 is not covered and never assumed: a one-row product is a
    matrix-vector call with its own summation order.
    """
    rng = np.random.default_rng(0)
    widths = rng.permutation(np.arange(2, max(2, max_width) + 1)).tolist()
    longest = max(max_width, _PROOF_RUN_ROWS)
    block = rng.standard_normal((64, w.shape[0])).astype(w.dtype)
    x = np.resize(block, (longest, w.shape[0]))
    flat = np.empty((longest, w.shape[1]), dtype=w.dtype)
    short = np.empty((max(2, max_width), w.shape[1]), dtype=w.dtype)
    run = 0
    while widths:
        # Run lengths cycle 1x, 2x, 4x, ... so the shared call is tried at
        # several row counts, each well above any single sequence's.
        capacity = min(longest, max_width << (run % 4))
        run += 1
        rows = 0
        members = []
        while widths and rows + widths[-1] <= capacity:
            members.append((rows, rows + widths[-1]))
            rows += widths.pop()
        np.matmul(x[:rows], w, out=flat[:rows])
        for start, stop in members:
            alone = _reference_matmul(x[None, start:stop], w, parts)[0]
            few = np.matmul(x[start:stop], w, out=short[: stop - start])
            if not ((flat[start:stop] == alone).all() and (few == alone).all()):
                return False
    return True


def proof_rows(band: int) -> int:
    """About how many rows a band's proof multiplies per weight: every
    width from 2 to ``band`` — ``band² / 2`` rows — in a long shared call
    and in a short one, then alone.

    What deferring a proof is weighed against: a pass that could not use
    an unproven form banks the rows it would have saved, and the proof
    runs once they exceed its own."""
    return band * band


#: Proof-cache key prefix of the query-stability verdicts:
#: ``(QUERY_STABLE, head_dim, dtype, width band)``.
QUERY_STABLE = "query_stable"

#: Query rows per sequence the proof selects.  2, 3 and 4 rows exercise
#: every remainder block (1, 2, 4 rows) a GEMM micro-kernel handles
#: outside its full-height tiles, against the full product's full tiles.
_QUERY_COUNTS = (2, 3, 4)


def query_stable_key(head_dim: int, dtype, band: int) -> Tuple[str, int, str, int]:
    return (QUERY_STABLE, head_dim, np.dtype(dtype).str, band)


def split_heads(
    qkv: np.ndarray, count: int, heads: int, queries: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(q, k, v)`` of ``count`` same-width sequences laid end to end in
    the packed ``(count * width, 3 * dim)`` projection ``qkv``: strided
    ``(count, heads, width, head_dim)`` views, no copy.

    ``queries`` — a ``(count, c)`` array of rows of ``qkv``, ``c`` per
    sequence — narrows ``q`` to those rows: a gathered ``(count, heads, c,
    head_dim)`` operand against the unchanged ``k`` and ``v``.
    """
    dim = qkv.shape[1] // 3
    head_dim = dim // heads
    q, k, v = qkv.reshape(count, -1, 3, heads, head_dim).transpose(2, 0, 3, 1, 4)
    if queries is not None:
        q = qkv[queries, :dim].reshape(count, -1, heads, head_dim)
        q = q.transpose(0, 2, 1, 3)
    return q, k, v


def attend(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    bias: Optional[np.ndarray],
    scale: np.ndarray,
) -> np.ndarray:
    """``softmax(q kᵀ · scale + bias) v`` over one width group's
    ``(count, heads, rows, head_dim)`` operands, by the calls the Tensor
    path makes: both products allocate, as the reference's do, and scale,
    bias and softmax run in place on the scores between them."""
    scores = np.matmul(q, k.swapaxes(-1, -2))
    np.multiply(scores, scale, out=scores)
    if bias is not None:
        np.add(scores, bias, out=scores)
    softmax_(scores)
    return np.matmul(scores, v)


def prove_query_stable(
    heads: int, head_dim: int, dtype, max_width: int, scale: np.ndarray
) -> bool:
    """Does attention give a query row the same bytes whatever other query
    rows share the call?

    The differential run behind the pruned last encoder block, which
    attends from the rows its callers read only: for every width from 2 to
    ``max_width`` (a :func:`width_band`), on the strided views
    :func:`split_heads` makes of a packed projection, :func:`attend` over
    2, 3 and 4 selected query rows per sequence must equal, bitwise, those
    rows of the full product — scores rows and context rows are GEMM rows
    whose row count shrinks from ``width`` to the selection's, and the
    row-wise steps between them cannot see the difference.  As in
    :func:`prove_row_stable` the data is a fixed pseudo-random block and the
    verdict a property of the BLAS build, keyed by
    :func:`query_stable_key`.  One query row is not covered and never
    passed: a one-row product is a matrix-vector call.
    """
    rng = np.random.default_rng(0)
    longest = max(2, max_width)
    packed = rng.standard_normal((longest, 3 * heads * head_dim)).astype(dtype)
    for width in range(2, longest + 1):
        qkv = packed[:width]  # one sequence: BLAS sees one at a time anyway
        full = attend(*split_heads(qkv, 1, heads), None, scale)
        for c in _QUERY_COUNTS:
            # Row 0 ([CLS] opens a sequence), the last row, evenly between;
            # a sequence shorter than the selection repeats rows, as the
            # block does to bring a width group to one count.
            picks = np.arange(c) * (width - 1) // (c - 1)
            few = attend(*split_heads(qkv, 1, heads, picks[None]), None, scale)
            if not (few == full[:, :, picks]).all():
                return False
    return True


def softmax_(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """In-place twin of :func:`repro.nn.functional.softmax` (same op order)."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def layer_norm_(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    ws: Workspace,
    scratch: str = "ln",
    offset: int = 0,
) -> np.ndarray:
    """In-place twin of :func:`repro.nn.functional.layer_norm`.

    Mutates and returns ``x``; region ``scratch``, ``offset`` bytes in,
    holds the squared deviations.  Every operation mirrors the reference
    kernel: mean, subtract, square (as ``x * x`` — bitwise equal to the
    reference's ``centered ** 2``, which numpy lowers to a multiply), mean,
    ``1/sqrt``, scale, affine.
    """
    mu = x.mean(axis=-1, keepdims=True)
    np.subtract(x, mu, out=x)  # x = centered
    sq = ws.take(scratch, x.shape, x.dtype, offset)
    np.multiply(x, x, out=sq)
    var = sq.mean(axis=-1, keepdims=True)
    var += eps
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=var)  # var = inv_std
    np.multiply(x, var, out=x)  # x = normalized
    np.multiply(x, gamma, out=x)
    np.add(x, beta, out=x)
    return x


def gelu_(
    x: np.ndarray, ws: Workspace, scratch: str = "gelu", offset: int = 0
) -> np.ndarray:
    """In-place twin of :func:`repro.nn.functional.gelu` (same op order).

    Mutates and returns ``x``; region ``scratch``, ``offset`` bytes in,
    carries the cube/tanh chain, so the steady state allocates nothing.
    """
    t = ws.take(scratch, x.shape, x.dtype, offset)
    np.multiply(x, x, out=t)  # x^2
    np.multiply(t, x, out=t)  # x^2 * x  (the reference's cube)
    np.multiply(t, 0.044715, out=t)
    np.add(x, t, out=t)  # x + 0.044715 x^3
    np.multiply(t, _SQRT_2_OVER_PI, out=t)
    np.tanh(t, out=t)
    np.add(t, 1.0, out=t)  # 1 + tanh(...)
    np.multiply(x, 0.5, out=x)  # 0.5 x
    np.multiply(x, t, out=x)  # (0.5 x)(1 + tanh(...))
    return x
