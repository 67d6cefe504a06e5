"""Probe planning (repro.core.probe) and its serving integration.

The load-bearing guarantees:

* ``probe_mode="exhaustive"`` and explicit ``AnnotationRequest.pairs`` are
  byte-identical to the pre-planner engine — the planner only changes
  *which* pairs are paid for.
* A planned probe of pair set S is byte-identical to explicitly requesting
  S (trainer level and engine level).
* The probe policy folds into the annotation fingerprint (exhaustive stays
  marker-free, so persisted cache keys survive), and the new pair counters
  merge across workers from raw counts, never from summed ratios.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ProbeBudget, ProbePlan, ProbePlanner
from repro.core.probe import relation_type_compatibility, subject_type_priors
from repro.core.trainer import default_relation_pairs, validate_relation_pairs
from repro.datasets import Column, Table
from repro.datasets.tables import TableDataset
from repro.serving import AnnotationEngine, AnnotationRequest, EngineConfig
from repro.serving.engine import EngineStats


def entity_column(seed: int, num_rows: int = 6) -> Column:
    names = [
        "Alice Munro", "Bruno Schulz", "Clarice Lispector", "Denis Johnson",
        "Elena Ferrante", "Fernando Pessoa", "Grace Paley", "Halldor Laxness",
    ]
    return Column(values=[names[(seed + r) % len(names)] for r in range(num_rows)])


def year_column(start: int, num_rows: int = 6) -> Column:
    return Column(values=[str(start + r) for r in range(num_rows)])


def entity_table(num_cols: int = 6) -> Table:
    return Table(
        columns=[entity_column(3 * c) for c in range(num_cols)],
        table_id=f"entities{num_cols}",
    )


class TestProbeBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProbeBudget(max_pairs=0)
        with pytest.raises(ValueError):
            ProbeBudget(per_column=-1)
        with pytest.raises(ValueError):
            ProbeBudget(min_similarity=1.5)

    def test_describe_is_canonical(self):
        a = ProbeBudget(max_pairs=8)
        b = ProbeBudget(max_pairs=8)
        assert a.describe() == b.describe()
        assert "max_pairs=8" in a.describe()
        assert ProbeBudget(max_pairs=9).describe() != a.describe()


class TestProbePlanner:
    def test_budget_caps_selected_pairs(self):
        planner = ProbePlanner(ProbeBudget(max_pairs=4))
        plan = planner.plan(entity_table(8))
        assert len(plan.pairs) == 4
        assert plan.candidates == 28
        assert plan.pruned == 24

    def test_plan_is_deterministic_and_sorted(self):
        table = entity_table(7)
        plans = [ProbePlanner(ProbeBudget(max_pairs=5)).plan(table) for _ in range(3)]
        assert plans[0] == plans[1] == plans[2]
        assert list(plans[0].pairs) == sorted(plans[0].pairs)

    def test_single_column_table_has_nothing_to_probe(self):
        plan = ProbePlanner().plan(Table(columns=[entity_column(0)]))
        assert plan == ProbePlan(pairs=(), candidates=0, pruned=0, pinned=0)

    def test_numeric_numeric_pairs_pruned(self):
        table = Table(
            columns=[entity_column(0), year_column(1900), year_column(1950)],
            table_id="nums",
        )
        pairs = ProbePlanner().plan(table).pairs
        assert (1, 2) not in pairs
        allowed = ProbePlanner(ProbeBudget(numeric_numeric=True)).plan(table)
        assert (1, 2) in allowed.pairs

    def test_duplicate_columns_pruned(self):
        dup = entity_column(0)
        table = Table(
            columns=[dup, Column(values=list(dup.values)), entity_column(4)],
            table_id="dups",
        )
        pairs = ProbePlanner().plan(table).pairs
        assert (0, 1) not in pairs

    def test_gold_pairs_pinned_over_budget(self):
        table = Table(
            columns=[entity_column(0), year_column(1900), year_column(1950)],
            table_id="gold",
            # Reverse direction and a numeric-numeric endpoint pair: both
            # survive anyway — gold questions bypass prefilters and budget.
            relation_labels={(2, 1): ["rel"], (0, 1): ["rel"]},
        )
        plan = ProbePlanner(ProbeBudget(max_pairs=1)).plan(table)
        assert plan.pinned == 2
        assert set(plan.pairs) == {(0, 1), (2, 1)}

    def test_reversed_gold_duplicates_collapse(self):
        table = Table(
            columns=[entity_column(0), entity_column(2), entity_column(5)],
            table_id="rev",
            relation_labels={(0, 1): ["rel"], (1, 0): ["rel"]},
        )
        plan = ProbePlanner().plan(table)
        assert (0, 1) in plan.pairs
        assert (1, 0) not in plan.pairs
        assert plan.pinned == 1

    def test_per_column_refinement_covers_every_column(self):
        table = entity_table(6)
        plan = ProbePlanner(ProbeBudget(max_pairs=6)).plan(table)
        covered = {c for pair in plan.pairs for c in pair}
        assert covered == set(range(6))

    def test_counters_accumulate(self):
        planner = ProbePlanner(ProbeBudget(max_pairs=3))
        planner.plan(entity_table(5))
        planner.plan(entity_table(6))
        assert planner.tables_planned == 2
        assert planner.pairs_considered == 10 + 15
        assert planner.pairs_planned == 6
        assert planner.pairs_pruned == planner.pairs_considered - 6

    def test_plan_cache_hits_on_repeated_content(self):
        planner = ProbePlanner(ProbeBudget(max_pairs=3))
        table = entity_table(6)
        first = planner.plan(table)
        again = planner.plan(
            Table(columns=table.columns, table_id="other-id")
        )
        assert again == first
        assert planner._plan_cache.hits == 1
        # Counters still account the cached plan's work.
        assert planner.tables_planned == 2

    def test_relation_labels_change_plan_cache_key(self):
        planner = ProbePlanner(ProbeBudget(max_pairs=2))
        bare = entity_table(5)
        labeled = Table(
            columns=bare.columns,
            table_id=bare.table_id,
            relation_labels={(3, 4): ["rel"]},
        )
        assert (3, 4) not in planner.plan(bare).pairs
        assert (3, 4) in planner.plan(labeled).pairs

    def test_min_similarity_floor(self):
        table = Table(
            columns=[entity_column(0), year_column(1900), entity_column(1)],
            table_id="floor",
        )
        strict = ProbePlanner(ProbeBudget(min_similarity=0.99)).plan(table)
        # Entity vs year share almost no hashed grams: the floor prunes
        # everything except near-identical profiles.
        assert (0, 1) not in strict.pairs

    def test_fingerprint_tag_tracks_budget(self):
        a = ProbePlanner(ProbeBudget(max_pairs=8)).fingerprint_tag()
        b = ProbePlanner(ProbeBudget(max_pairs=8)).fingerprint_tag()
        c = ProbePlanner(ProbeBudget(max_pairs=16)).fingerprint_tag()
        assert a == b != c
        assert a.startswith("planned(")


class TestPlannerArithmetic:
    """The planner's two shortcuts are exact: the bincount vector is the
    per-gram loop's, byte for byte, and the integer size bound skips a
    Jaccard only when it could not have reached the threshold."""

    def test_profile_vector_equals_the_per_gram_loop(self):
        import zlib

        from repro.core import probe

        rng = np.random.default_rng(12)
        alphabet = list("abcdefghij 0123é")
        buckets: dict = {}
        for _ in range(2000):
            grams = {
                "".join(rng.choice(alphabet, size=3))
                for _ in range(int(rng.integers(0, 40)))
            }
            loop = np.zeros(probe._HASH_DIM, dtype=np.float64)
            for gram in grams:
                loop[zlib.crc32(gram.encode("utf-8")) % probe._HASH_DIM] += 1.0
            norm = float(np.linalg.norm(loop))
            loop = loop / norm if norm else loop
            vector = probe._profile_vector(grams, buckets)
            assert vector.dtype == loop.dtype
            assert vector.tobytes() == loop.tobytes()
        assert 0 < len(buckets) <= len(alphabet) ** 3

    def test_gram_memo_is_bounded(self, monkeypatch):
        from repro.core import probe

        monkeypatch.setattr(probe, "_GRAM_MEMO_SIZE", 8)
        buckets: dict = {}
        for start in range(0, 60, 6):
            grams = {f"g{n:02d}" for n in range(start, start + 6)}
            before = probe._profile_vector(grams, {})
            assert (probe._profile_vector(grams, buckets) == before).all()
            assert len(buckets) <= 8 + 6

    def test_size_bound_is_necessary_for_the_duplicate_threshold(self):
        from repro.core.probe import DUPLICATE_SIMILARITY, _sizes_allow_duplicates
        from repro.core.wide import profile_similarity

        for a in range(0, 41):
            for b in range(0, 41):
                # The most two profiles of these sizes can share: one
                # inside the other.
                small, large = sorted((a, b))
                best = profile_similarity(set(range(small)), set(range(large)))
                assert _sizes_allow_duplicates(a, b) == (
                    best >= DUPLICATE_SIMILARITY
                ), (a, b)

    def test_plans_do_not_depend_on_the_shortcuts(self, monkeypatch):
        from repro.core import probe

        rng = np.random.default_rng(5)
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        tables = []
        for t in range(20):
            columns = []
            for c in range(7):
                if c and rng.random() < 0.3:  # a near-copy of its neighbour
                    values = list(columns[-1].values)
                    values[0] = values[0] + "x"
                else:
                    values = [
                        f"{rng.choice(words)} {rng.choice(words)} {rng.integers(99)}"
                        for _ in range(6)
                    ]
                columns.append(Column(values=values))
            tables.append(Table(columns=columns, table_id=f"t{t}"))
        budget = ProbeBudget(max_pairs=8)
        fast = [ProbePlanner(budget).plan(table) for table in tables]
        monkeypatch.setattr(probe, "_sizes_allow_duplicates", lambda a, b: True)
        slow = [ProbePlanner(budget).plan(table) for table in tables]
        assert fast == slow


class TestTypeCompatibilityPrefilter:
    @pytest.fixture()
    def dataset(self):
        table = Table(
            columns=[
                Column(values=["Lisbon", "Oslo"], type_labels=["city"]),
                Column(values=["Portugal", "Norway"], type_labels=["country"]),
            ],
            table_id="cities",
            relation_labels={(0, 1): ["located_in"]},
        )
        return TableDataset(
            tables=[table],
            type_vocab=["city", "country", "year"],
            relation_vocab=["located_in"],
        )

    def test_observed_endpoint_types_only(self, dataset):
        compat = relation_type_compatibility(dataset)
        assert (0, 1) in compat  # city -> country
        assert (1, 0) not in compat  # directional
        assert (0, 2) not in compat

    def test_subject_type_priors(self, dataset):
        priors = subject_type_priors(dataset)
        city = dataset.type_vocab.index("city")
        country = dataset.type_vocab.index("country")
        assert priors[city] == 1.0  # city columns always subjects here
        assert priors[country] == 0.0  # country columns only attributes
        assert dataset.type_vocab.index("year") not in priors  # never seen

    def test_subject_priors_outrank_proximity(self, dataset):
        """A high-subject-prior column a little further away must beat a
        low-prior column right next to the target.  Columns 1 and 2 carry
        identical values, so model-free scoring cannot tell them apart —
        only the learned prior on their predicted types can."""
        twin = entity_column(0)
        table = Table(
            columns=[
                year_column(1900),
                twin,
                Column(values=list(twin.values)),
                entity_column(5),
            ],
            table_id="prior-vs-proximity",
        )
        city = dataset.type_vocab.index("city")
        country = dataset.type_vocab.index("country")
        type_probs = np.array(
            [[0.0, 0.1, 0.9], [0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.1, 0.9, 0.0]]
        )
        budget = ProbeBudget(max_pairs=1, per_column=0)
        without = ProbePlanner(budget).plan(table)
        with_priors = ProbePlanner(budget).plan(
            table,
            type_probs=type_probs,
            subject_priors={city: 1.0, country: 0.0},
        )
        assert without.pairs == ((2, 3),)  # proximity wins model-free
        assert with_priors.pairs == ((1, 3),)  # the city subject wins

    def test_incompatible_predicted_types_pruned(self, dataset):
        compat = relation_type_compatibility(dataset)
        table = entity_table(3)
        # Column 0 looks like a city, 1 like a country, 2 like a year.
        type_probs = np.array(
            [[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.0, 0.1, 0.9]]
        )
        planner = ProbePlanner()
        pairs = planner.plan(
            table, type_probs=type_probs, type_compatibility=compat
        ).pairs
        assert (0, 1) in pairs
        assert (0, 2) not in pairs
        assert (1, 2) not in pairs


class TestPairDeduplication:
    """Satellite regression: no pair is ever encoded twice."""

    def test_default_pairs_collapse_reversed_gold(self):
        table = Table(
            columns=[entity_column(0), entity_column(1), entity_column(2)],
            relation_labels={(0, 1): ["a"], (1, 0): ["a"], (2, 1): ["b"]},
        )
        assert default_relation_pairs(table) == [(0, 1), (2, 1)]

    def test_default_pairs_keep_direction_of_first_occurrence(self):
        table = Table(
            columns=[entity_column(0), entity_column(1)],
            relation_labels={(1, 0): ["a"]},
        )
        assert default_relation_pairs(table) == [(1, 0)]

    def test_validate_drops_exact_repeats_keeps_reversed(self):
        table = entity_table(3)
        assert validate_relation_pairs(
            table, [(0, 1), (0, 1), (1, 0), (2, 0)]
        ) == [(0, 1), (1, 0), (2, 0)]

    def test_validate_still_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_relation_pairs(entity_table(2), [(0, 5)])


@pytest.fixture(scope="module")
def trainer(shared_tiny_annotator):
    return shared_tiny_annotator.trainer


@pytest.fixture()
def unlabeled_table():
    return Table(
        columns=[entity_column(2 * c, num_rows=4) for c in range(5)],
        table_id="serve-me",
    )


class TestTrainerIntegration:
    def test_reversed_gold_probed_once(self, trainer):
        table = Table(
            columns=[entity_column(0, num_rows=4), entity_column(3, num_rows=4)],
            table_id="revgold",
            relation_labels={(0, 1): ["a"], (1, 0): ["a"]},
        )
        raw = trainer.annotate_batch([table])[0]
        assert raw.probed_pairs == [(0, 1)]

    def test_fingerprint_probe_marker(self, trainer):
        def fingerprint(**knobs):
            return AnnotationEngine(trainer, EngineConfig(**knobs)).model_fingerprint

        legacy = trainer.annotation_fingerprint()
        assert fingerprint(probe_mode="exhaustive") == legacy
        tagged = fingerprint(probe_mode="planned", probe_budget=4)
        assert tagged not in (legacy, fingerprint(probe_mode="planned"))
        # Memoized by the trainer per fold: the same str object comes back.
        assert fingerprint(probe_mode="planned", probe_budget=4) is tagged


class TestEngineIntegration:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(probe_mode="greedy")
        with pytest.raises(ValueError):
            EngineConfig(probe_budget=4)  # exhaustive mode has no budget
        with pytest.raises(ValueError):
            EngineConfig(probe_mode="planned", probe_budget=0)
        EngineConfig(probe_mode="planned")  # uncapped planning is fine

    def test_exhaustive_mode_is_byte_identical_to_default(
        self, trainer, unlabeled_table
    ):
        default = AnnotationEngine(trainer)
        exhaustive = AnnotationEngine(
            trainer, EngineConfig(probe_mode="exhaustive")
        )
        assert default.model_fingerprint == exhaustive.model_fingerprint
        assert default.model_fingerprint == trainer.annotation_fingerprint()
        a = default.annotate(unlabeled_table).annotated
        b = exhaustive.annotate(unlabeled_table).annotated
        assert a.type_scores == b.type_scores
        assert a.colrels == b.colrels
        assert a.requested_pairs == b.requested_pairs

    def test_planned_mode_equals_explicit_pairs(self, trainer, unlabeled_table):
        planned_engine = AnnotationEngine(
            trainer, EngineConfig(probe_mode="planned", probe_budget=3)
        )
        plain_engine = AnnotationEngine(trainer)
        plan = ProbePlanner(ProbeBudget(max_pairs=3)).plan(unlabeled_table)
        planned = planned_engine.annotate(unlabeled_table).annotated
        explicit = plain_engine.annotate(
            unlabeled_table, pairs=list(plan.pairs)
        ).annotated
        assert planned.requested_pairs == explicit.requested_pairs
        assert planned.colrels == explicit.colrels
        assert planned.type_scores == explicit.type_scores
        assert np.array_equal(planned.colemb, explicit.colemb)

    def test_planned_mode_rekeys_fingerprint(self, trainer):
        exhaustive = AnnotationEngine(trainer)
        narrow = AnnotationEngine(
            trainer, EngineConfig(probe_mode="planned", probe_budget=4)
        )
        wide = AnnotationEngine(
            trainer, EngineConfig(probe_mode="planned", probe_budget=8)
        )
        fingerprints = {
            exhaustive.model_fingerprint,
            narrow.model_fingerprint,
            wide.model_fingerprint,
        }
        assert len(fingerprints) == 3  # no cache/route ever mixes plans

    def test_probe_counters(self, trainer, unlabeled_table):
        engine = AnnotationEngine(
            trainer, EngineConfig(probe_mode="planned", probe_budget=3)
        )
        engine.annotate(unlabeled_table)
        assert engine.stats.pairs_planned == 3
        assert engine.stats.pairs_probed == 3
        assert engine.stats.pairs_pruned == 10 - 3
        assert engine.stats.probe_prune_rate == pytest.approx(0.7)

    def test_exhaustive_counts_probes_but_plans_nothing(
        self, trainer, unlabeled_table
    ):
        engine = AnnotationEngine(trainer)
        engine.annotate(unlabeled_table)
        assert engine.stats.pairs_probed == 4  # default (0, j) pairs
        assert engine.stats.pairs_planned == 0
        assert engine.stats.pairs_pruned == 0
        assert engine.stats.probe_prune_rate == 0.0

    def test_explicit_pairs_bypass_planner_in_planned_mode(
        self, trainer, unlabeled_table
    ):
        engine = AnnotationEngine(
            trainer, EngineConfig(probe_mode="planned", probe_budget=1)
        )
        result = engine.annotate(unlabeled_table, pairs=[(1, 2), (3, 4)])
        assert result.annotated.requested_pairs == [(1, 2), (3, 4)]
        assert engine.stats.pairs_planned == 0
        assert engine.stats.pairs_probed == 2

    def test_mixed_batch_planned_and_explicit(self, trainer, unlabeled_table):
        engine = AnnotationEngine(
            trainer, EngineConfig(probe_mode="planned", probe_budget=2)
        )
        requests = [
            AnnotationRequest(table=unlabeled_table),
            AnnotationRequest(table=unlabeled_table, pairs=((0, 1),)),
        ]
        results = engine.annotate_batch(requests)
        assert len(results[0].annotated.requested_pairs) == 2
        assert results[1].annotated.requested_pairs == [(0, 1)]


class TestStatsPlumbing:
    def test_gateway_reports_probe_prune_rate(self):
        from repro.serving import GatewayStats

        stats = GatewayStats()
        stats.engines["m"] = EngineStats(pairs_planned=1, pairs_pruned=3)
        payload = stats.to_dict()
        assert payload["engines"]["m"]["probe_prune_rate"] == 0.75
