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

Who still needs it: the forward paths that can only pad a batch to **one**
width — the reference Tensor path (``kernels="reference"``), the int8
session, the trainer's ``predict_*`` evaluation loop.  The float fast path
keeps the same every-sequence-at-its-own-width rule without bucketing: its
session concatenates a whole drain into one token-major matrix and mixes
widths inside one pass (:mod:`repro.core.inference`), so serving no longer
pays one pass per distinct width.  The width signatures this planner keys
on (:meth:`EncodingPipeline.annotation_signature
<repro.encoding.pipeline.EncodingPipeline.annotation_signature>`) are what
tell that pass how wide each sequence is.

:class:`PaddingReport` quantifies the win: how many token slots a plan's
forward passes allocate versus how many carry real tokens.

Opt-in near-width packing: ``BatchPlanner(waste_budget=N)`` trades the
byte-identity contract for fewer forward passes.  Adjacent width buckets
(in ascending signature order) are merged as long as padding every member
up to the merged maximum widths costs at most ``N`` extra token slots per
merged bucket.  The default budget of 0 keeps exact bucketing — and with
it the byte-identical contract — unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Sequence, Tuple


@dataclass(frozen=True)
class PaddingReport:
    """Token accounting for a set of padded forward passes.

    ``real_tokens`` counts sequence tokens; ``padded_tokens`` counts the
    slots actually allocated (rows × padded width, summed over passes).
    ``waste_ratio`` is the fraction of allocated slots that carry padding —
    0.0 means every forward pass was exactly full.
    """

    sequences: int = 0
    batches: int = 0
    real_tokens: int = 0
    padded_tokens: int = 0

    @property
    def wasted_tokens(self) -> int:
        return self.padded_tokens - self.real_tokens

    @property
    def waste_ratio(self) -> float:
        if self.padded_tokens == 0:
            return 0.0
        return self.wasted_tokens / self.padded_tokens

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

    ``waste_budget`` enables near-width packing: buckets adjacent in the
    ascending signature order are merged while padding every member up to
    the merged maximum costs at most this many extra token slots per merged
    bucket.  The default 0 keeps exact bucketing, and with it the
    byte-identity contract; any positive budget trades bytes (float32-ulp
    drift from wider padded reductions, the pre-encoding-layer behaviour)
    for fewer forward passes.  Packing requires signatures made of integer
    widths (ints or tuples of ints) and always sorts buckets ascending,
    regardless of ``ordered``, because adjacency is what bounds the waste.
    """

    def __init__(
        self,
        batch_size: int = 8,
        ordered: bool = True,
        waste_budget: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        if waste_budget < 0:
            raise ValueError(f"waste_budget must be >= 0: {waste_budget}")
        self.batch_size = batch_size
        self.ordered = ordered
        self.waste_budget = waste_budget

    @property
    def mode(self) -> str:
        """Human-readable planning policy (surfaced by ``EngineStats``)."""
        if self.waste_budget == 0:
            return "exact"
        return f"packed(waste_budget={self.waste_budget})"

    # -- exact bucketing (the byte-identity policy) -------------------------
    def plan(self, signatures: Sequence[Hashable]) -> List[List[int]]:
        """Compose batches: exact width buckets, optionally packed.

        Returns lists of indices into ``signatures``; every batch is at most
        ``batch_size`` long.  With ``waste_budget == 0`` every batch is
        homogeneous in signature, so padding each batch to its own maximum
        pads nothing at all; with a positive budget, adjacent buckets may
        share batches within the configured padded-token waste.
        """
        groups: "OrderedDict[Hashable, List[int]]" = OrderedDict()
        for index, signature in enumerate(signatures):
            groups.setdefault(signature, []).append(index)
        if self.waste_budget > 0:
            merged = self._pack_groups(groups)
        else:
            keys = sorted(groups) if self.ordered else list(groups)
            merged = [groups[key] for key in keys]
        batches: List[List[int]] = []
        for members in merged:
            for start in range(0, len(members), self.batch_size):
                batches.append(members[start:start + self.batch_size])
        return batches

    @staticmethod
    def _widths(signature: Hashable) -> Tuple[int, ...]:
        """Integer width components of one signature (packing needs math)."""
        if isinstance(signature, tuple):
            return tuple(int(component) for component in signature)
        return (int(signature),)  # type: ignore[arg-type]

    def _pack_groups(
        self, groups: "OrderedDict[Hashable, List[int]]"
    ) -> List[List[int]]:
        """Merge adjacent width buckets within the padded-waste budget.

        Walks buckets in ascending signature order, accumulating a run; the
        next bucket joins the run iff padding every member already in it up
        to the elementwise-max widths would keep the run's total extra
        padded tokens within ``waste_budget``.  (Members of the incoming
        bucket never pad when the run only grows toward it, but mixed
        components — e.g. a wider column pass with a narrower pair pass —
        are accounted in both directions.)
        """
        runs: List[List[int]] = []
        run_keys: List[Tuple[int, ...]] = []
        run_members: List[int] = []
        for key in sorted(groups, key=self._widths):
            widths = self._widths(key)
            members = groups[key]
            if run_members:
                candidate_keys = run_keys + [widths] * len(members)
                merged_max = tuple(
                    max(components) for components in zip(*candidate_keys)
                )
                waste = sum(
                    sum(m - w for m, w in zip(merged_max, item))
                    for item in candidate_keys
                )
                if waste <= self.waste_budget:
                    run_keys = candidate_keys
                    run_members.extend(members)
                    continue
                runs.append(run_members)
            run_members = list(members)
            run_keys = [widths] * len(members)
        if run_members:
            runs.append(run_members)
        return runs

    # -- legacy policy (kept for comparison benchmarks) ---------------------
    def plan_padded(
        self, lengths: Sequence[int], sort: bool = True
    ) -> List[List[int]]:
        """The pre-encoding-layer policy: sort by length, chunk, pad jointly.

        Kept so :mod:`benchmarks.bench_padding_waste` can measure what exact
        bucketing saves; production paths use :meth:`plan`.
        """
        order = (
            sorted(range(len(lengths)), key=lambda i: lengths[i])
            if sort
            else list(range(len(lengths)))
        )
        return [
            order[start:start + self.batch_size]
            for start in range(0, len(order), self.batch_size)
        ]

    # -- accounting ---------------------------------------------------------
    @staticmethod
    def report(
        lengths: Sequence[int], batches: Sequence[Sequence[int]]
    ) -> PaddingReport:
        """Padding accounting for ``batches`` over sequences of ``lengths``."""
        real = 0
        padded = 0
        sequences = 0
        for batch in batches:
            if not batch:
                continue
            width = max(lengths[i] for i in batch)
            for i in batch:
                real += lengths[i]
                padded += width
            sequences += len(batch)
        return PaddingReport(
            sequences=sequences,
            batches=sum(1 for b in batches if b),
            real_tokens=real,
            padded_tokens=padded,
        )


def width_signature(lengths: Sequence[int]) -> Tuple[int, ...]:
    """Signature of one multi-sequence item: the padded width it dictates.

    A table-wise item is one sequence — its signature is its length.  A
    single-column item contributes several sequences padded jointly to the
    item's own maximum, so the signature is that maximum: two items with
    equal maxima compose into one pass whose width matches what each would
    have used alone, preserving byte-identity.
    """
    if not lengths:
        return (0,)
    return (max(int(length) for length in lengths),)
