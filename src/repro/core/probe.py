"""Budgeted relation-probe planning (the serving-time answer to O(k²) pairs).

The relation head answers one question per column *pair*, so exhaustively
probing a k-column table costs O(k²) encoder work — the dominant cost on the
wide enterprise/open-data tables of Section 6.2.  The join-planning
literature's lesson (submodular-width bounds, and planners that reach them
without enumerating the full cross product) applies directly: never pay for
the full pair cross-product when cheap structure can prune it first.

:class:`ProbePlanner` decides *which* pairs the head encodes, in three
stages:

1. **Prefilters** (model-free, O(k²) set arithmetic — no encoder): prune
   numeric↔numeric pairs (a relation endpoint pair always involves an
   entity-like column), near-duplicate columns (char-3-gram Jaccard of
   :func:`~repro.core.wide.column_profile`), and — when the
   caller already has type probabilities — pairs whose predicted types never
   co-occurred as gold relation endpoints (:func:`relation_type_compatibility`).
2. **Ranking**: survivors are scored with a cheap hashed-3-gram embedding
   cosine plus model-free subject-column evidence (entity-ness × value
   distinctness), pair proximity, and the subject-column prior of
   :func:`~repro.core.trainer.default_relation_pairs`.  A per-request
   :class:`ProbeBudget` caps the selected pairs, with top-k refinement: every
   right-hand column keeps its best-scoring candidate subjects before the
   remaining budget fills globally, so no column is silently dropped from
   the probe set.
3. **Batching** is *not* this module's job: the selected pairs flow into
   :meth:`~repro.core.trainer.DoduoTrainer.annotate_batch` as explicit pair
   requests, where the probes of a whole drain share one token-major
   encoder pass (:mod:`repro.core.inference`) like everything else.

Contract: the planner only changes *which* pairs are paid for.  A planned
probe of pair set S is byte-identical to explicitly requesting S, and gold
pairs (``table.relation_labels``) are always pinned into the plan — they are
known questions, never budget casualties.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..datasets.tables import Column, Table, TableDataset
from ..encoding.cache import BoundedMemo
from .trainer import default_relation_pairs, validate_relation_pairs
from .wide import column_profile, profile_similarity

Pair = Tuple[int, int]

# Stage-2 score weights.  Tuned on the stitched wide-table workload of
# benchmarks/bench_probe_planning.py (multi-schema tables where the gold
# pairs are each schema's subject column against its own attributes); the
# dominant signal is subject-ness of the left column, with proximity
# breaking ties between a nearby and a far-away subject candidate.
SUBJECT_WEIGHT = 1.0
PROXIMITY_WEIGHT = 0.6
COSINE_WEIGHT = 0.15
# Deliberately small: on multi-entity tables (several schemas side by side)
# the TURL first-column prior is wrong for every schema but the first, and
# a large bonus lets the (0, j) star eat the whole budget.
PRIOR_WEIGHT = 0.1
# Weight of the learned subject-type prior (type-assisted planning only):
# how often the left column's predicted type acts as a relation subject in
# training.  Strong enough to outvote proximity — an attribute column right
# next to j must not beat the schema's real subject a little further away.
SUBJECT_TYPE_WEIGHT = 0.4

#: Columns whose numeric value fraction reaches this cutoff count as
#: numeric for the numeric↔numeric prefilter.
NUMERIC_FRACTION_CUTOFF = 0.5
#: Jaccard at or above this prunes a pair as near-duplicate columns (a
#: column relates to a subject, not to its own copy).
DUPLICATE_SIMILARITY = 0.9
#: Values sampled per column for the cheap statistics (mirrors
#: ``wide.column_profile``'s default).
PROFILE_VALUES = 20

_HASH_DIM = 64  # hashed character-3-gram embedding dimensionality
#: gram → hashed-embedding bucket, once per process for every planner (the
#: 6 912 columns of the wide benchmark corpus hold 1 034 grams); starts
#: over past about a megabyte, counting what it drops.
GRAM_BUCKETS = BoundedMemo(1 << 14)


@dataclass(frozen=True)
class ProbeBudget:
    """How much relation probing one request may pay for.

    ``max_pairs`` caps the pairs selected per table (``None`` means
    prefilter-only planning: every stage-1 survivor is probed).
    ``per_column`` is the top-k refinement width: each right-hand column
    keeps its ``per_column`` best-scoring candidate subject pairs ahead of
    the global fill, so budget pressure trims redundant probes before it
    trims coverage.
    ``min_similarity`` optionally floors the hashed-embedding cosine
    (0.0 disables — related columns often share little surface vocabulary).
    ``numeric_numeric`` opts numeric↔numeric pairs back in for corpora
    whose relations hold between measure columns.
    """

    max_pairs: Optional[int] = None
    per_column: int = 1
    min_similarity: float = 0.0
    numeric_numeric: bool = False

    def __post_init__(self) -> None:
        if self.max_pairs is not None and self.max_pairs < 1:
            raise ValueError(f"max_pairs must be >= 1: {self.max_pairs}")
        if self.per_column < 0:
            raise ValueError(f"per_column must be >= 0: {self.per_column}")
        if not 0.0 <= self.min_similarity <= 1.0:
            raise ValueError(
                f"min_similarity must be in [0, 1]: {self.min_similarity}"
            )

    def describe(self) -> str:
        """Canonical parameter string (folds into the annotation
        fingerprint — two budgets with equal descriptions plan identically)."""
        return (
            f"max_pairs={self.max_pairs},per_column={self.per_column},"
            f"min_similarity={self.min_similarity},"
            f"numeric_numeric={self.numeric_numeric}"
        )


@dataclass(frozen=True)
class ProbePlan:
    """The planner's answer for one table.

    ``pairs`` is the probe set in canonical (sorted) order.  ``candidates``
    counts the full universe considered — every unordered pair plus any
    gold pairs — ``pruned`` how many of those the prefilters and the budget
    discarded, and ``pinned`` how many came from gold relation labels
    (pinned pairs bypass prefilters and budget).
    """

    pairs: Tuple[Pair, ...]
    candidates: int
    pruned: int
    pinned: int

    @property
    def planned(self) -> int:
        return len(self.pairs)


def _is_numeric(value: str) -> bool:
    text = value.strip().replace(",", "")
    if text[:1] in ("$", "€", "£"):
        text = text[1:]
    if text.endswith("%"):
        text = text[:-1]
    if not text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _column_stats(column: Column) -> Tuple[float, float]:
    """(numeric fraction, distinct fraction) over the profiled value head."""
    values = [v.strip() for v in column.values[:PROFILE_VALUES] if v.strip()]
    if not values:
        return 0.0, 0.0
    numeric = sum(1 for v in values if _is_numeric(v))
    distinct = len({v.lower() for v in values})
    return numeric / len(values), distinct / len(values)


def _profile_vector(grams: Sequence[str], buckets: BoundedMemo) -> np.ndarray:
    """Unit-norm hashed count embedding of a char-3-gram profile.

    crc32, not ``hash()``: the builtin is salted per process, and planner
    decisions must be stable across processes (they fold into cache keys
    via the annotation fingerprint).  ``buckets`` memoises gram → bucket
    (the same thousand or so grams fill every column of a corpus).
    """
    try:
        index = [buckets[gram] for gram in grams]
    except KeyError:
        buckets.make_room()
        index = [
            buckets.setdefault(gram, zlib.crc32(gram.encode("utf-8")) % _HASH_DIM)
            for gram in grams
        ]
    vector = np.bincount(index, minlength=_HASH_DIM).astype(np.float64)
    # What np.linalg.norm computes for a real vector, without its dispatch.
    norm = math.sqrt(vector.dot(vector))
    return vector / norm if norm else vector


def _sizes_allow_duplicates(a: int, b: int) -> bool:
    """Can two profiles of ``a`` and ``b`` grams reach
    :data:`DUPLICATE_SIMILARITY`?  Jaccard never exceeds ``min / max`` of
    the sizes, so ``10 * min >= 9 * max`` — exact, in integers — is
    necessary, and most pairs fail it before any set arithmetic."""
    return 10 * min(a, b) >= 9 * max(a, b)


def relation_type_compatibility(dataset: TableDataset) -> FrozenSet[Pair]:
    """Type-id pairs observed as gold relation endpoints in ``dataset``.

    The training corpus already says which (subject type, object type)
    combinations carry relations; a planner given type probabilities can
    prune every pair whose predicted types never co-occurred.  Ordered
    pairs: relations are directional, and so is the head.
    """
    type_to_id = {label: k for k, label in enumerate(dataset.type_vocab)}
    compatible: Set[Pair] = set()
    for table in dataset.tables:
        for i, j in table.relation_labels:
            if not (0 <= i < table.num_columns and 0 <= j < table.num_columns):
                continue
            for left in table.columns[i].type_labels:
                for right in table.columns[j].type_labels:
                    if left in type_to_id and right in type_to_id:
                        compatible.add((type_to_id[left], type_to_id[right]))
    return frozenset(compatible)


def subject_type_priors(dataset: TableDataset) -> Dict[int, float]:
    """P(column is a relation subject | column carries this type label).

    Counts, over the gold tables of ``dataset``, how often a column with
    each type label appears as the *left* endpoint of a gold relation pair.
    Types that only ever name subjects (e.g. the entity type a table is
    about) get 1.0; pure attribute types (years, positions) get 0.0; types
    that play both roles (person: sometimes the table's subject, sometimes
    a director/author attribute) land in between.  Feeds the planner's
    stage-2 ranking next to :func:`relation_type_compatibility`.
    """
    type_to_id = {label: k for k, label in enumerate(dataset.type_vocab)}
    as_subject: Dict[int, int] = {}
    total: Dict[int, int] = {}
    for table in dataset.tables:
        lefts = {i for i, _ in table.relation_labels}
        for c, column in enumerate(table.columns):
            for label in column.type_labels:
                type_id = type_to_id.get(label)
                if type_id is None:
                    continue
                total[type_id] = total.get(type_id, 0) + 1
                if c in lefts:
                    as_subject[type_id] = as_subject.get(type_id, 0) + 1
    return {
        type_id: as_subject.get(type_id, 0) / count
        for type_id, count in total.items()
    }


class ProbePlanner:
    """Plans relation probes under a :class:`ProbeBudget`.

    Holds nothing but its budget: each table is planned from its own
    columns, so planning is deterministic — equal content, labels, and
    budget always yield the identical plan, which is what lets the budget
    description stand in for the plan inside the annotation fingerprint.
    The owner counts what each :class:`ProbePlan` reports.
    """

    def __init__(self, budget: Optional[ProbeBudget] = None) -> None:
        self.budget = budget or ProbeBudget()

    def fingerprint_tag(self) -> str:
        """The probe descriptor folded into
        :meth:`~repro.core.trainer.DoduoTrainer.annotation_fingerprint`."""
        return f"planned({self.budget.describe()})"

    def plan_pairs(
        self,
        table: Table,
        type_probs: Optional[np.ndarray] = None,
        type_compatibility: Optional[FrozenSet[Pair]] = None,
        subject_priors: Optional[Dict[int, float]] = None,
    ) -> List[Pair]:
        """Just the pairs of :meth:`plan`, as a list."""
        return list(
            self.plan(
                table,
                type_probs=type_probs,
                type_compatibility=type_compatibility,
                subject_priors=subject_priors,
            ).pairs
        )

    def plan(
        self,
        table: Table,
        type_probs: Optional[np.ndarray] = None,
        type_compatibility: Optional[FrozenSet[Pair]] = None,
        subject_priors: Optional[Dict[int, float]] = None,
    ) -> ProbePlan:
        """Select the column pairs the relation head should probe.

        ``type_probs`` (``(num_columns, num_types)``, e.g. from a prior
        type pass) together with ``type_compatibility``
        (:func:`relation_type_compatibility`) enables the type prefilter,
        and ``subject_priors`` (:func:`subject_type_priors`) additionally
        ranks candidate subject columns by how often their predicted type
        plays the subject role in training; without them planning is fully
        model-free.
        """
        k = table.num_columns
        if k < 2:
            return ProbePlan(pairs=(), candidates=0, pruned=0, pinned=0)
        budget = self.budget

        # Gold pairs are pinned: they are known questions, exempt from
        # prefilters and budget alike.  Reversed/repeated gold duplicates
        # collapse through default_relation_pairs.
        pinned: List[Pair] = []
        if table.relation_labels:
            pinned = validate_relation_pairs(table, default_relation_pairs(table))
        pinned_set = set(pinned)
        prior_set = set(default_relation_pairs(table))

        universe: List[Pair] = [
            (i, j) for i in range(k) for j in range(i + 1, k)
        ]
        candidates = len(set(universe) | pinned_set)

        profiles = [column_profile(column) for column in table.columns]
        vectors = [
            _profile_vector(profile, GRAM_BUCKETS) for profile in profiles
        ]
        sizes = [len(profile) for profile in profiles]
        stats = [_column_stats(column) for column in table.columns]
        subjectness = [
            (1.0 - numeric) * (0.2 + 0.8 * distinct)
            for numeric, distinct in stats
        ]
        predicted_types: Optional[List[int]] = None
        if type_probs is not None and (
            type_compatibility is not None or subject_priors is not None
        ):
            predicted_types = [
                int(np.argmax(type_probs[c])) for c in range(k)
            ]
        type_subjectness = [0.0] * k
        if predicted_types is not None and subject_priors is not None:
            type_subjectness = [
                subject_priors.get(predicted_types[c], 0.5) for c in range(k)
            ]

        survivors: List[Tuple[float, Pair]] = []
        for i, j in universe:
            if (i, j) in pinned_set:
                continue
            cosine = float(np.dot(vectors[i], vectors[j]))
            # --- Stage 1: model-free prefilters -----------------------
            if (
                not budget.numeric_numeric
                and stats[i][0] >= NUMERIC_FRACTION_CUTOFF
                and stats[j][0] >= NUMERIC_FRACTION_CUTOFF
            ):
                continue
            if (
                _sizes_allow_duplicates(sizes[i], sizes[j])
                and profile_similarity(profiles[i], profiles[j])
                >= DUPLICATE_SIMILARITY
            ):
                continue
            if budget.min_similarity > 0.0 and cosine < budget.min_similarity:
                continue
            if (
                predicted_types is not None
                and type_compatibility is not None
                and (predicted_types[i], predicted_types[j])
                not in type_compatibility
            ):
                continue
            # --- Stage 2: ranking -------------------------------------
            score = (
                SUBJECT_WEIGHT * subjectness[i]
                + PROXIMITY_WEIGHT / (1.0 + (j - i))
                + COSINE_WEIGHT * cosine
                + (PRIOR_WEIGHT if (i, j) in prior_set else 0.0)
                + SUBJECT_TYPE_WEIGHT * type_subjectness[i]
            )
            survivors.append((score, (i, j)))
        survivors.sort(key=lambda item: (-item[0], item[1]))

        selected: List[Pair] = list(pinned)
        selected_set = set(selected)
        remaining = (
            None
            if budget.max_pairs is None
            else max(0, budget.max_pairs - len(selected))
        )

        def take(pair: Pair) -> bool:
            nonlocal remaining
            if pair in selected_set:
                return True
            if remaining == 0:
                return False
            selected.append(pair)
            selected_set.add(pair)
            if remaining is not None:
                remaining -= 1
            return True

        # Top-k refinement: every *right-hand* column keeps its
        # ``per_column`` best candidate subjects first, so the global fill
        # spends the rest of the budget on raw score without starving any
        # column of its relation-to-subject probe.  (Relations point from a
        # subject column to each attribute column — the hub-and-spoke
        # structure of ``default_relation_pairs`` — so coverage is about
        # right endpoints; subjects get covered for free as lefts.)
        if budget.per_column > 0:
            required: List[Tuple[float, Pair]] = []
            kept: Dict[int, int] = {c: 0 for c in range(k)}
            for score, (i, j) in survivors:
                if kept[j] < budget.per_column:
                    required.append((score, (i, j)))
                    kept[j] += 1
            for _, pair in required:
                take(pair)
        for _, pair in survivors:
            if remaining == 0:
                break
            take(pair)

        pairs = tuple(sorted(selected))
        return ProbePlan(
            pairs=pairs,
            candidates=candidates,
            pruned=candidates - len(pairs),
            pinned=len(pinned),
        )


__all__ = [
    "ProbeBudget",
    "ProbePlan",
    "ProbePlanner",
    "relation_type_compatibility",
    "subject_type_priors",
]
