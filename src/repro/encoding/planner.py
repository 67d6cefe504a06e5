"""Batch composition over encoded inputs: exact buckets, padding accounting.

The engine's original policy — sort requests by serialized length, chunk,
pad each chunk to its own maximum — keeps padding *low* but not *zero*, and
joint padding is why batched scores used to drift from sequential ones at
the float32-ulp (~1e-7) level: a padded attention row reduces over a wider
key dimension, so BLAS groups the same partial sums differently.

:class:`BatchPlanner` replaces that with **exact length bucketing**: inputs
are grouped by their width signature (the padded width every forward pass
over them would use), and only identical signatures share a batch.  Each
batch therefore pads every sequence to exactly its own length — zero
cross-request padding waste — and a batched forward pass performs the same
reductions over the same widths as a single-request pass, which is what
makes batched and sequential annotation byte-identical (verified per BLAS
slice by the serving equivalence tests).

Who still needs it: the forward path that can only pad a batch to **one**
width — the autograd Tensor path, i.e. ``kernels="reference"``, the oracle
the fast path is tested against (:meth:`DoduoModel.encode_states
<repro.core.model.DoduoModel.encode_states>` is its one caller).  Serving
and evaluation keep the same every-sequence-at-its-own-width rule without
bucketing: an inference session concatenates a whole
drain into one token-major matrix and mixes widths inside one pass
(:mod:`repro.core.inference`).  The widths this planner keys on
(:meth:`EncodingPipeline.annotation_signature
<repro.encoding.pipeline.EncodingPipeline.annotation_signature>`) are what
tell that pass how wide each sequence is.

:class:`PaddingReport` quantifies the win: how many token slots a plan's
forward passes allocate versus how many carry real tokens.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Sequence


@dataclass(frozen=True)
class PaddingReport:
    """Token accounting for a set of padded forward passes.

    ``real_tokens`` counts sequence tokens; ``padded_tokens`` counts the
    slots actually allocated (rows × padded width, summed over passes).
    """

    sequences: int = 0
    batches: int = 0
    real_tokens: int = 0
    padded_tokens: int = 0

    def __add__(self, other: "PaddingReport") -> "PaddingReport":
        return PaddingReport(
            sequences=self.sequences + other.sequences,
            batches=self.batches + other.batches,
            real_tokens=self.real_tokens + other.real_tokens,
            padded_tokens=self.padded_tokens + other.padded_tokens,
        )


class BatchPlanner:
    """Groups encoded inputs into forward batches.

    ``batch_size`` caps items per batch.  ``ordered=True`` (default) emits
    buckets in ascending signature order, which keeps similarly-sized passes
    adjacent; ``ordered=False`` keeps first-seen order.  Result order never
    matters for correctness — consumers scatter outputs back by index.
    """

    def __init__(self, batch_size: int = 8, ordered: bool = True) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.batch_size = batch_size
        self.ordered = ordered

    def plan(self, signatures: Sequence[Hashable]) -> List[List[int]]:
        """Compose batches: exact width buckets.

        Returns lists of indices into ``signatures``; every batch is at most
        ``batch_size`` long and homogeneous in signature, so padding each
        batch to its own maximum pads nothing at all.
        """
        groups: "OrderedDict[Hashable, List[int]]" = OrderedDict()
        for index, signature in enumerate(signatures):
            groups.setdefault(signature, []).append(index)
        keys = sorted(groups) if self.ordered else list(groups)
        batches: List[List[int]] = []
        for key in keys:
            members = groups[key]
            for start in range(0, len(members), self.batch_size):
                batches.append(members[start:start + self.batch_size])
        return batches
