"""Wide-table annotation (Section 6.2 of the paper).

Table 8 shows that with MaxToken/col = 32 the encoder fits about 15 columns —
enough for Web Tables (4 columns on average) but not for enterprise or open
data (12–16 columns, often more).  The paper's prescription:

    "a reasonable option is to first split the wide table into clusters of
    relevant columns (maybe by some user-defined rules), then apply Doduo on
    each cluster.  In this case, Doduo still has the advantage of leveraging
    partial context of the input table."

This module implements that prescription.  Three grouping strategies are
provided:

* ``contiguous`` — consecutive chunks, preserving the table's column order
  (the cheapest rule, right when adjacent columns are related, as is common
  in hand-authored spreadsheets).
* ``similarity`` — greedy agglomerative grouping on character-3-gram Jaccard
  similarity of column values, so related columns share an encoder context
  even if they are far apart.
* ``rules`` — a user-supplied partition (the "user-defined rules" option).

:func:`annotate_wide` then runs a trained annotator per group and stitches
the per-group predictions back into a single
:class:`~repro.core.annotator.AnnotatedTable` in original column order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..datasets.tables import Column, Table
from .annotator import AnnotatedTable, Doduo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .probe import ProbePlanner

#: A column profile: its distinct character 3-grams, sorted.
Profile = Tuple[str, ...]


def _char_ngrams(text: str, n: int = 3) -> Set[str]:
    padded = f" {text.lower()} "
    if len(padded) < n:
        return {padded}
    return {padded[i:i + n] for i in range(len(padded) - n + 1)}


def column_profile(column: Column, max_values: int = 20) -> Profile:
    """Character-3-gram profile of a column's values (cheap, model-free):
    its distinct grams, sorted."""
    grams: Set[str] = set()
    for value in column.values[:max_values]:
        grams |= _char_ngrams(value)
    return tuple(sorted(grams))


def profile_similarity(grams_a: Profile, grams_b: Profile) -> float:
    """Jaccard similarity between two precomputed 3-gram profiles, from the
    integers a set union counts: |A∩B| / (|A| + |B| − |A∩B|)."""
    if not grams_a and not grams_b:
        return 1.0
    shared = len(set(grams_a).intersection(grams_b))
    return shared / (len(grams_a) + len(grams_b) - shared)


def column_similarity(a: Column, b: Column) -> float:
    """Jaccard similarity between two columns' character-3-gram profiles."""
    return profile_similarity(column_profile(a), column_profile(b))


def split_columns_contiguous(num_columns: int, max_columns: int) -> List[List[int]]:
    """Partition ``range(num_columns)`` into consecutive chunks."""
    if max_columns < 1:
        raise ValueError(f"max_columns must be >= 1: {max_columns}")
    return [
        list(range(start, min(start + max_columns, num_columns)))
        for start in range(0, num_columns, max_columns)
    ]


def split_columns_by_similarity(
    table: Table, max_columns: int
) -> List[List[int]]:
    """Greedy agglomerative grouping under a group-size cap.

    Starts from singleton groups and repeatedly merges the most similar pair
    of groups whose combined size still fits ``max_columns`` (single-linkage
    over :func:`column_similarity`).  Deterministic: ties break on the lowest
    column indices.  Groups are returned sorted by their smallest member so
    output order is stable.
    """
    if max_columns < 1:
        raise ValueError(f"max_columns must be >= 1: {max_columns}")
    n = table.num_columns
    if n == 0:
        return []

    # One profile per column, then O(k²) set arithmetic — the per-cell
    # column_similarity call would rebuild both profiles every time (O(k²)
    # profile builds).
    profiles = [column_profile(column) for column in table.columns]
    similarity = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            similarity[i, j] = similarity[j, i] = profile_similarity(
                profiles[i], profiles[j]
            )

    groups: List[List[int]] = [[i] for i in range(n)]
    while True:
        best: Optional[Tuple[float, int, int]] = None
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                if len(groups[gi]) + len(groups[gj]) > max_columns:
                    continue
                link = max(
                    similarity[a, b] for a in groups[gi] for b in groups[gj]
                )
                key = (link, -groups[gi][0], -groups[gj][0])
                if best is None or key > (best[0], -groups[best[1]][0], -groups[best[2]][0]):
                    best = (link, gi, gj)
        if best is None or best[0] <= 0.0:
            break
        _, gi, gj = best
        merged = sorted(groups[gi] + groups[gj])
        groups = [g for k, g in enumerate(groups) if k not in (gi, gj)]
        groups.append(merged)

    return sorted(groups, key=lambda g: g[0])


def validate_partition(groups: Sequence[Sequence[int]], num_columns: int) -> None:
    """Check that ``groups`` is an exact partition of ``range(num_columns)``."""
    seen = [index for group in groups for index in group]
    if sorted(seen) != list(range(num_columns)):
        raise ValueError(
            f"groups {groups} are not a partition of {num_columns} columns"
        )


def split_wide_table(
    table: Table,
    max_columns: int,
    strategy: str = "contiguous",
    rules: Optional[Sequence[Sequence[int]]] = None,
) -> List[List[int]]:
    """Partition a table's columns into annotation groups.

    ``strategy`` is one of ``"contiguous"``, ``"similarity"``, or ``"rules"``
    (which requires ``rules``, a user-supplied partition).  Every group holds
    at most ``max_columns`` column indices.
    """
    if strategy == "rules":
        if rules is None:
            raise ValueError('strategy="rules" requires the rules argument')
        groups = [list(group) for group in rules]
        validate_partition(groups, table.num_columns)
        oversized = [g for g in groups if len(g) > max_columns]
        if oversized:
            raise ValueError(
                f"rule group {oversized[0]} exceeds max_columns={max_columns}"
            )
        return groups
    if strategy == "contiguous":
        return split_columns_contiguous(table.num_columns, max_columns)
    if strategy == "similarity":
        return split_columns_by_similarity(table, max_columns)
    raise ValueError(f"unknown strategy: {strategy!r}")


def subtable(table: Table, indices: Sequence[int], suffix: str = "") -> Table:
    """Project ``table`` onto the given column indices.

    Relation annotations are kept when both endpoints survive, with indices
    remapped to the subtable's local positions.
    """
    position = {old: new for new, old in enumerate(indices)}
    relations = {}
    for (i, j), labels in table.relation_labels.items():
        if i in position and j in position:
            relations[(position[i], position[j])] = list(labels)
    return Table(
        columns=[table.columns[i] for i in indices],
        table_id=f"{table.table_id}{suffix}",
        relation_labels=relations,
        metadata=dict(table.metadata),
    )


def annotate_wide(
    annotator: Doduo,
    table: Table,
    max_columns: Optional[int] = None,
    strategy: str = "contiguous",
    rules: Optional[Sequence[Sequence[int]]] = None,
    with_embeddings: bool = True,
    probe_planner: Optional["ProbePlanner"] = None,
) -> AnnotatedTable:
    """Annotate a table wider than the encoder's column budget.

    The table is partitioned with :func:`split_wide_table`, each group is
    annotated with partial table context, and the results are merged back in
    original column order.  Relations are predicted within groups only — the
    deliberate trade-off of the paper's splitting recipe.

    All groups go to the annotator's engine as **one** batch, so groups of
    any widths share padding-free encoder passes (each at the width it
    would have alone — bitwise identical to the historical per-group
    calls).  ``probe_planner`` (a
    :class:`~repro.core.probe.ProbePlanner`) replaces each group's
    exhaustive relation probing with a planned, budgeted pair set; without
    one, every group probes its
    :func:`~repro.core.trainer.default_relation_pairs` as before.

    ``max_columns`` defaults to what the annotator's serializer can fit in
    half its maximum sequence length (a conservative budget that leaves room
    for the per-column token budget).
    """
    from dataclasses import replace

    # Deferred: serving imports core, so core.wide cannot import serving at
    # module scope (same pattern as Doduo.annotate_many).
    from ..serving.request import AnnotationRequest

    trainer = annotator.trainer
    if max_columns is None:
        budget = trainer.serializer.config.max_sequence_length
        max_columns = max(1, trainer.serializer.max_columns_within(budget))
    groups = split_wide_table(table, max_columns, strategy=strategy, rules=rules)

    coltypes: List[List[str]] = [[] for _ in range(table.num_columns)]
    type_scores: List[Dict[str, float]] = [{} for _ in range(table.num_columns)]
    colrels: Dict[Tuple[int, int], List[str]] = {}
    embeddings: Optional[np.ndarray] = None

    engine = annotator.engine
    requests = []
    for g, group in enumerate(groups):
        piece = subtable(table, group, suffix=f"#g{g}")
        requests.append(
            AnnotationRequest(
                table=piece,
                options=replace(
                    engine.config.default_options,
                    with_embeddings=with_embeddings,
                ),
                pairs=(
                    probe_planner.plan(piece).pairs
                    if probe_planner is not None
                    else None
                ),
            )
        )
    results = engine.annotate_batch(requests)

    for group, result in zip(groups, results):
        annotated = result.annotated
        for local, original in enumerate(group):
            coltypes[original] = annotated.coltypes[local]
            if annotated.type_scores:
                type_scores[original] = annotated.type_scores[local]
        for (i, j), labels in annotated.colrels.items():
            colrels[(group[i], group[j])] = labels
        if with_embeddings and annotated.colemb is not None:
            if embeddings is None:
                embeddings = np.zeros(
                    (table.num_columns, annotated.colemb.shape[1]),
                    dtype=annotated.colemb.dtype,
                )
            embeddings[list(group)] = annotated.colemb

    return AnnotatedTable(
        table=table, coltypes=coltypes, colrels=colrels, colemb=embeddings,
        type_scores=type_scores,
    )
