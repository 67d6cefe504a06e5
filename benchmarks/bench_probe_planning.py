"""Probe planning: encoded-pair reduction vs relation recall (Section 6.2).

The wide-table cost story: exhaustively probing a k-column table costs
k(k-1)/2 relation-head pairs — 120 encoder pair passes at k=16.  The
:class:`~repro.core.probe.ProbePlanner` prunes that universe with model-free
prefilters, ranks the survivors, and keeps a budgeted subset.  This bench
measures what that buys and what it costs on stitched multi-schema wide
tables (four WikiTable schemas side by side, so the gold pairs are each
schema's subject column against its own attributes — exactly the structure a
planner must rediscover without labels).

The model under the planner is the single-column (DosoloSCol) variant: its
relation head encodes each probed pair as its own two-column sequence, so
"pairs planned" is literally "encoder passes paid for" — the O(k²) cost the
planner exists to avoid — and its solo-column type pass stays
in-distribution on arbitrarily wide tables (the table-wise model would have
to split a 16-column serialization first; see ``core/wide.py``).

Two planner modes are swept across budgets:

* ``model_free`` — prefilters + ranking only, no model input (what the
  serving engine's ``probe_mode="planned"`` does inline).
* ``type_assisted`` — a prior type pass feeds the
  :func:`~repro.core.probe.relation_type_compatibility` prefilter (the
  two-phase pattern: cheap per-column types first, then plan the pairs).

For each budget the bench reports encoded pairs per table, the reduction
factor over exhaustive, and recall/precision of the planned run's gold-pair
relation predictions against the exhaustive run's own predictions.  The
full curve lands in ``benchmarks/probe_curves.json`` (uploaded as a CI
artifact next to ``multiproc_saturation.json``); the committed copy comes
from

    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest -q benchmarks/bench_probe_planning.py

Acceptance gate: some budget reaches >= 5x fewer encoded pairs while
keeping >= 0.95 recall of the exhaustive predictions.
"""

import json
from pathlib import Path

import numpy as np

from repro.core.probe import (
    ProbeBudget,
    ProbePlanner,
    relation_type_compatibility,
    subject_type_priors,
)
from repro.datasets import Column, Table
from repro.datasets.wikitable import SCHEMAS, generate_table
from repro.serving import AnnotationEngine, EngineConfig

from common import (
    SMOKE,
    custom_wikitable_trainer,
    knowledge_base,
    print_table,
    wikitable_splits,
)

# Four 4-column schemas stitched side by side -> 16 columns, 120 pairs.
STITCH_SCHEMAS = ("films_crew", "rosters", "albums", "books")
NUM_TABLES = 6 if SMOKE else 16
NUM_ROWS = 6
BUDGETS = (6, 9, 12, 16, 20, 24, None)  # None = prefilter-only

CURVES_FILE = Path(__file__).parent / "probe_curves.json"


def stitch_wide_table(kb, rng, index):
    """One 16-column table from four schemas, labels stripped for planning.

    Returns ``(table, gold)`` where ``gold`` maps each offset-shifted gold
    pair to its relation name — the planner and the model never see it.
    """
    by_name = {schema.name: schema for schema in SCHEMAS}
    columns = []
    gold = {}
    for name in STITCH_SCHEMAS:
        piece = generate_table(
            kb, by_name[name], rng, min_rows=NUM_ROWS, max_rows=NUM_ROWS,
            table_id=f"{name}-{index}",
        )
        offset = len(columns)
        for (i, j), relations in piece.relation_labels.items():
            gold[(i + offset, j + offset)] = relations[0]
        columns.extend(
            Column(values=list(column.values), header=column.header)
            for column in piece.columns
        )
    return Table(columns=columns, table_id=f"stitch-{index}"), gold


def top_relation(trainer, probs):
    return trainer.dataset.relation_vocab[int(np.argmax(probs))]


def evaluate_budget(trainer, tables, gold, reference, budget, type_inputs):
    """Plan + annotate every table under ``budget``; score vs exhaustive."""
    planner = ProbePlanner(ProbeBudget(max_pairs=budget, per_column=2))
    plans = []
    pairs_pruned = 0
    for index, table in enumerate(tables):
        if type_inputs is None:
            plan = planner.plan(table)
        else:
            type_probs, compatibility, priors = type_inputs
            plan = planner.plan(
                table,
                type_probs=type_probs[index],
                type_compatibility=compatibility,
                subject_priors=priors,
            )
        plans.append(list(plan.pairs))
        pairs_pruned += plan.pruned
    raw = trainer.annotate_batch(tables, pair_requests=plans)

    hits = covered = gold_total = 0
    for index, item in enumerate(raw):
        for pair, relation in reference[index].items():
            gold_total += 1
            if pair not in item.relation_probs:
                continue
            covered += 1
            if top_relation(trainer, item.relation_probs[pair]) == relation:
                hits += 1
    planned_total = sum(len(pairs) for pairs in plans)
    gold_planned = sum(
        1
        for index, pairs in enumerate(plans)
        for pair in pairs
        if pair in gold[index]
    )
    return {
        "budget": budget,
        "avg_planned": planned_total / len(tables),
        "reduction": (
            len(tables) * len(reference_universe(tables[0])) / planned_total
        ),
        "coverage": covered / gold_total,
        "recall": hits / gold_total,
        "precision": gold_planned / planned_total if planned_total else 0.0,
        "pairs_pruned": pairs_pruned,
    }


def reference_universe(table):
    k = table.num_columns
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def run_experiment():
    # 14 epochs even in smoke mode: the type-assisted prefilter needs type
    # predictions that have converged past the label-prior plateau, and the
    # single-column model trains fast enough to afford it in CI.
    trainer = custom_wikitable_trainer("probe-scol", single_column=True,
                                       epochs=14)
    kb = knowledge_base()
    rng = np.random.default_rng(41)

    tables, gold = [], []
    for index in range(NUM_TABLES):
        table, pairs = stitch_wide_table(kb, rng, index)
        tables.append(table)
        gold.append(pairs)

    # Exhaustive reference: every pair probed; its gold-pair predictions
    # are the recall target (planning should change cost, not answers).
    universe = reference_universe(tables[0])
    exhaustive = trainer.annotate_batch(
        tables, pair_requests=[list(universe)] * len(tables)
    )
    reference = [
        {
            pair: top_relation(trainer, item.relation_probs[pair])
            for pair in table_gold
        }
        for item, table_gold in zip(exhaustive, gold)
    ]
    type_probs = [item.type_probs for item in exhaustive]
    train_split = wikitable_splits().train
    compatibility = relation_type_compatibility(train_split)
    priors = subject_type_priors(train_split)

    curves = {"model_free": [], "type_assisted": []}
    for budget in BUDGETS:
        curves["model_free"].append(
            evaluate_budget(trainer, tables, gold, reference, budget, None)
        )
        curves["type_assisted"].append(
            evaluate_budget(
                trainer, tables, gold, reference, budget,
                (type_probs, compatibility, priors),
            )
        )

    # Byte-identity spot check: what a planned engine answers a pairs=None
    # request with must match an explicit request for the planned pair set
    # exactly (same floats, not just same argmax).
    planned = AnnotationEngine(
        trainer, EngineConfig(probe_mode="planned", probe_budget=12)
    ).annotate(tables[0]).annotated
    spot_pairs = ProbePlanner(ProbeBudget(max_pairs=12)).plan_pairs(tables[0])
    explicit = AnnotationEngine(trainer).annotate(
        tables[0], pairs=spot_pairs
    ).annotated
    assert planned.requested_pairs == explicit.requested_pairs == spot_pairs
    byte_identical = (
        planned.colrels == explicit.colrels
        and planned.type_scores == explicit.type_scores
        and np.array_equal(planned.colemb, explicit.colemb)
    )
    assert byte_identical

    rows = []
    for mode, entries in curves.items():
        for entry in entries:
            rows.append((
                mode,
                "prefilter" if entry["budget"] is None else entry["budget"],
                f"{entry['avg_planned']:.1f}",
                f"{entry['reduction']:.1f}x",
                f"{entry['recall'] * 100:.1f}",
                f"{entry['precision'] * 100:.1f}",
                f"{entry['coverage'] * 100:.1f}",
            ))
    print_table(
        f"Probe planning on {NUM_TABLES} stitched 16-column tables "
        f"({len(universe)} exhaustive pairs)",
        ["Mode", "Budget", "Pairs/table", "Reduction", "Recall",
         "Precision", "Coverage"],
        rows,
    )

    payload = {
        "smoke": SMOKE,
        "num_tables": NUM_TABLES,
        "columns": tables[0].num_columns,
        "exhaustive_pairs": len(universe),
        "gold_pairs_per_table": len(gold[0]),
        "byte_identical_spot_check": bool(byte_identical),
        "curves": curves,
    }
    CURVES_FILE.write_text(json.dumps(payload, indent=2) + "\n")

    best = max(
        (entry for entries in curves.values() for entry in entries
         if entry["reduction"] >= 5.0),
        key=lambda entry: entry["recall"],
        default=None,
    )
    payload["best_reduction_recall"] = None if best is None else best["recall"]
    return payload


def test_probe_planning(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    assert results["byte_identical_spot_check"]
    # The planner must make wide tables affordable without changing the
    # answers: >= 5x fewer encoded pairs at >= 0.95 recall of the
    # exhaustive run's gold-pair predictions.
    assert results["best_reduction_recall"] is not None
    assert results["best_reduction_recall"] >= 0.95
    # Prefilter-only planning never misses more than the duplicate/numeric
    # prefilters allow — coverage stays near total.
    prefilter = results["curves"]["model_free"][-1]
    assert prefilter["budget"] is None
    assert prefilter["coverage"] >= 0.95
