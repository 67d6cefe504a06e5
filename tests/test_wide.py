"""Tests for wide-table splitting and annotation (repro.core.wide)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import probe, wide
from repro.core.probe import ProbeBudget, ProbePlanner
from repro.core.wide import (
    annotate_wide,
    column_profile,
    column_similarity,
    profile_similarity,
    split_columns_by_similarity,
    split_columns_contiguous,
    split_wide_table,
    subtable,
    validate_partition,
)
from repro.datasets import Column, Table
from repro.encoding.cache import BoundedMemo


def make_wide_table(num_cols=8, num_rows=4) -> Table:
    return Table(
        columns=[
            Column(values=[f"c{c}v{r}" for r in range(num_rows)], header=f"h{c}")
            for c in range(num_cols)
        ],
        table_id="wide",
        relation_labels={(0, 1): ["r01"], (0, 5): ["r05"]},
    )


class TestContiguous:
    def test_exact_partition(self):
        groups = split_columns_contiguous(7, 3)
        assert groups == [[0, 1, 2], [3, 4, 5], [6]]

    def test_single_group_when_it_fits(self):
        assert split_columns_contiguous(3, 10) == [[0, 1, 2]]

    def test_zero_columns(self):
        assert split_columns_contiguous(0, 4) == []

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            split_columns_contiguous(5, 0)

    @given(n=st.integers(0, 40), cap=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_always_a_partition_under_cap(self, n, cap):
        groups = split_columns_contiguous(n, cap)
        validate_partition(groups, n)
        assert all(len(g) <= cap for g in groups)


class TestSimilarity:
    def test_identical_columns_grouped(self):
        table = Table(columns=[
            Column(values=["alpha beta", "gamma delta"]),
            Column(values=["1423", "9041"]),
            Column(values=["alpha beta", "gamma delta"]),
            Column(values=["1429", "9043"]),
        ])
        groups = split_columns_by_similarity(table, max_columns=2)
        as_sets = {frozenset(g) for g in groups}
        assert frozenset({0, 2}) in as_sets
        assert frozenset({1, 3}) in as_sets

    def test_cap_respected(self):
        table = make_wide_table(num_cols=9)
        groups = split_columns_by_similarity(table, max_columns=4)
        validate_partition(groups, 9)
        assert all(len(g) <= 4 for g in groups)

    def test_similarity_symmetric_and_bounded(self):
        a = Column(values=["san francisco", "new york"])
        b = Column(values=["san diego", "new orleans"])
        s_ab = column_similarity(a, b)
        s_ba = column_similarity(b, a)
        assert s_ab == s_ba
        assert 0.0 <= s_ab <= 1.0

    def test_identical_columns_have_similarity_one(self):
        col = Column(values=["same text", "more text"])
        assert column_similarity(col, col) == 1.0

    def test_empty_table(self):
        assert split_columns_by_similarity(Table(columns=[]), 3) == []

    def test_deterministic(self):
        table = make_wide_table(num_cols=6)
        a = split_columns_by_similarity(table, 3)
        b = split_columns_by_similarity(table, 3)
        assert a == b



class TestProfileMemoization:
    """Column 3-gram profiles are built once per column per table, not once
    per (i, j) pair — the per-table list is the only memo."""

    def test_similarity_split_builds_each_profile_once(self, monkeypatch):
        built = []

        def counting_profile(column, max_values=20):
            built.append(column)
            return column_profile(column, max_values)

        monkeypatch.setattr(wide, "column_profile", counting_profile)
        split_columns_by_similarity(make_wide_table(num_cols=9), max_columns=3)
        assert len(built) == 9
        # Before the per-table list this cost k*(k-1) profile builds.
        built.clear()
        split_columns_by_similarity(make_wide_table(num_cols=12), max_columns=4)
        assert len(built) == 12
        # The planner builds its own list the same way.
        monkeypatch.setattr(probe, "column_profile", counting_profile)
        built.clear()
        ProbePlanner().plan(make_wide_table(num_cols=7))
        assert len(built) == 7

    def test_cached_profile_matches_direct_similarity(self):
        a = Column(values=["san francisco", "new york"])
        b = Column(values=["san diego", "new orleans"])
        direct = column_similarity(a, b)
        # The profiles the per-table list holds give the same similarity.
        grams_a, grams_b = column_profile(a), column_profile(b)
        union = set(grams_a) | set(grams_b)
        jaccard = len(set(grams_a) & set(grams_b)) / len(union) if union else 1.0
        assert direct == jaccard


def _oracle_profile(column: Column, max_values: int = 20) -> set:
    """The set-of-strings profile the compact form replaces."""
    grams = set()
    for value in column.values[:max_values]:
        padded = f" {value.lower()} "
        if len(padded) < 3:
            grams |= {padded}
        else:
            grams |= {padded[i:i + 3] for i in range(len(padded) - 2)}
    return grams


def _oracle_jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def _oracle_vector(grams: set) -> np.ndarray:
    import zlib

    loop = np.zeros(probe._HASH_DIM, dtype=np.float64)
    for gram in grams:
        loop[zlib.crc32(gram.encode("utf-8")) % probe._HASH_DIM] += 1.0
    norm = float(np.linalg.norm(loop))
    return loop / norm if norm else loop


#: Cells as the corpus has them and worse: unicode, blanks, repeats, one-
#: and two-character cells, and long columns past the 20-value head.
_CELLS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", " ", "a", "Ab", "NY", "é", "İ", "1", "12", "x y"]),
)
_COLUMNS = st.lists(_CELLS, min_size=0, max_size=30).map(
    lambda values: Column(values=values)
)


class TestCompactProfiles:
    """A profile is a sorted tuple of gram strings; every number the planner
    and the grouping read off it equals the set-based oracle's, bit for
    bit."""

    @given(a=_COLUMNS, b=_COLUMNS)
    @settings(max_examples=200, deadline=None)
    def test_similarity_and_vectors_equal_the_set_oracle(self, a, b):
        oracle_a, oracle_b = _oracle_profile(a), _oracle_profile(b)
        compact_a, compact_b = column_profile(a), column_profile(b)
        for compact, oracle in ((compact_a, oracle_a), (compact_b, oracle_b)):
            assert compact == tuple(sorted(oracle))
            assert len(compact) == len(oracle)
            vector = probe._profile_vector(compact, probe.GRAM_BUCKETS)
            assert vector.tobytes() == _oracle_vector(oracle).tobytes()
        expected = _oracle_jaccard(oracle_a, oracle_b)
        assert profile_similarity(compact_a, compact_b) == expected
        assert profile_similarity(compact_b, compact_a) == expected
        assert column_similarity(a, b) == expected


class TestGramMemoBounds:
    """The planner's gram → bucket memo starts over at its cap and counts
    what it drops."""

    def test_gram_buckets_count_their_evictions(self, monkeypatch):
        monkeypatch.setattr(probe, "GRAM_BUCKETS", BoundedMemo(16))
        planner = ProbePlanner()
        for n in range(12):
            planner.plan(Table(columns=[
                Column(values=[f"a{n:02d}x", "qq"]),
                Column(values=[f"b{n:02d}y", "rr"]),
            ]))
            assert len(probe.GRAM_BUCKETS) <= 16 + 12
        assert probe.GRAM_BUCKETS.evictions > 0


class TestSplitWideTable:
    def test_rules_strategy(self):
        table = make_wide_table(num_cols=4)
        groups = split_wide_table(table, 2, strategy="rules", rules=[[0, 3], [1, 2]])
        assert groups == [[0, 3], [1, 2]]

    def test_rules_must_partition(self):
        table = make_wide_table(num_cols=4)
        with pytest.raises(ValueError, match="partition"):
            split_wide_table(table, 2, strategy="rules", rules=[[0, 1]])

    def test_rules_cap_enforced(self):
        table = make_wide_table(num_cols=4)
        with pytest.raises(ValueError, match="exceeds"):
            split_wide_table(table, 2, strategy="rules", rules=[[0, 1, 2], [3]])

    def test_rules_requires_rules(self):
        with pytest.raises(ValueError, match="requires"):
            split_wide_table(make_wide_table(), 2, strategy="rules")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            split_wide_table(make_wide_table(), 2, strategy="zigzag")


class TestSubtable:
    def test_projection_keeps_relations_with_remapped_indices(self):
        table = make_wide_table()
        piece = subtable(table, [0, 5, 6], suffix="#a")
        assert piece.table_id == "wide#a"
        assert piece.num_columns == 3
        assert piece.relation_labels == {(0, 1): ["r05"]}
        assert piece.columns[1].header == "h5"

    def test_relations_crossing_groups_dropped(self):
        table = make_wide_table()
        piece = subtable(table, [1, 2])
        assert piece.relation_labels == {}


class TestAnnotateWide:
    @pytest.fixture(scope="class")
    def annotator(self, shared_tiny_annotator):
        return shared_tiny_annotator

    def test_annotates_all_columns_in_order(self, annotator):
        # Build a table wider than the trained substrate usually sees.
        table = make_wide_table(num_cols=10)
        result = annotate_wide(annotator, table, max_columns=4)
        assert len(result.coltypes) == 10
        assert all(types for types in result.coltypes)

    def test_matches_groupwise_annotation(self, annotator):
        table = make_wide_table(num_cols=6)
        wide = annotate_wide(annotator, table, max_columns=3,
                             strategy="contiguous")
        left = annotator.annotate(subtable(table, [0, 1, 2], suffix="#g0"))
        assert wide.coltypes[:3] == left.coltypes

    def test_embeddings_cover_every_column(self, annotator):
        table = make_wide_table(num_cols=7)
        result = annotate_wide(annotator, table, max_columns=3)
        assert result.colemb is not None
        assert result.colemb.shape[0] == 7
        assert not np.allclose(result.colemb, 0.0)

    def test_without_embeddings(self, annotator):
        table = make_wide_table(num_cols=5)
        result = annotate_wide(annotator, table, max_columns=2,
                               with_embeddings=False)
        assert result.colemb is None

    def test_relations_confined_to_groups(self, annotator):
        table = make_wide_table(num_cols=6)
        result = annotate_wide(annotator, table, max_columns=3)
        for (i, j) in result.colrels:
            assert i // 3 == j // 3  # contiguous groups of 3

    def test_default_budget_from_serializer(self, annotator):
        table = make_wide_table(num_cols=6)
        result = annotate_wide(annotator, table)
        assert len(result.coltypes) == 6

    def test_probe_planner_restricts_group_pairs(self, annotator):
        table = make_wide_table(num_cols=8)
        planner = ProbePlanner(ProbeBudget(max_pairs=2))
        result = annotate_wide(
            annotator, table, max_columns=4, probe_planner=planner
        )
        assert len(result.coltypes) == 8
        assert all(types for types in result.coltypes)
        # Each group of 4 columns planned at most 2 pairs.
        assert len(result.colrels) <= 4
        planned = set()
        for group_start in (0, 4):
            piece = subtable(table, list(range(group_start, group_start + 4)))
            for (i, j) in planner.plan(piece).pairs:
                planned.add((i + group_start, j + group_start))
        assert set(result.colrels) <= planned

    def test_probe_planner_matches_unplanned_types(self, annotator):
        table = make_wide_table(num_cols=6)
        baseline = annotate_wide(annotator, table, max_columns=3)
        planned = annotate_wide(
            annotator,
            table,
            max_columns=3,
            probe_planner=ProbePlanner(ProbeBudget(max_pairs=1)),
        )
        # Planning changes which relations are probed, never the types.
        assert planned.coltypes == baseline.coltypes
