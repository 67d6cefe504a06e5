"""Figure 4: F1 vs training-data fraction on WikiTable, Doduo vs Dosolo.

The paper trains with 10/25/50/100% of the training tables and shows that
(a) F1 grows with data for both models, and (b) the multi-task Doduo
dominates the single-task Dosolo, especially at small fractions.  This bench
regenerates both curves (type and relation tasks).

Deviation: property (a) and the full-data ordering Doduo >= Dosolo
reproduce, but (b) does not.  At full scale Dosolo beats Doduo on types at
every partial fraction — 37.00 / 57.63 / 92.14 type F1 against Doduo's
31.14 / 48.21 / 79.02 at 10 / 25 / 50 % — where the paper has Doduo ahead,
most of all at small fractions.  Our hundred-times-smaller encoder shows
task *interference* instead of task transfer; the paper's smallest
fraction is still ~40k tables, two orders of magnitude more multi-task
signal than our largest.  The assertions below therefore pin the
monotone-growth shape and the full-data ordering, which are the claims
Table 6 cross-checks.
"""

from repro.evaluation import line_chart

from common import (
    doduo_wikitable,
    dosolo_wikitable,
    fraction_trainer,
    pct,
    print_block,
    print_table,
    wikitable_splits,
)

FRACTIONS = (0.10, 0.25, 0.50, 1.00)


def run_experiment():
    splits = wikitable_splits()
    curves = {"Doduo": {}, "Dosolo": {}}

    for fraction in FRACTIONS:
        if fraction == 1.00:
            doduo = doduo_wikitable()
            solo_type = dosolo_wikitable("type")
            solo_rel = dosolo_wikitable("relation")
        else:
            doduo = fraction_trainer(fraction, ("type", "relation"))
            solo_type = fraction_trainer(fraction, ("type",))
            solo_rel = fraction_trainer(fraction, ("relation",))
        doduo_scores = doduo.evaluate(splits.test)
        curves["Doduo"][fraction] = (
            doduo_scores["type"].f1, doduo_scores["relation"].f1
        )
        curves["Dosolo"][fraction] = (
            solo_type.evaluate(splits.test)["type"].f1,
            solo_rel.evaluate(splits.test)["relation"].f1,
        )

    for task_index, task in enumerate(("type", "relation")):
        rows = [
            (
                f"{int(fraction * 100)}%",
                pct(curves["Doduo"][fraction][task_index]),
                pct(curves["Dosolo"][fraction][task_index]),
            )
            for fraction in FRACTIONS
        ]
        print_table(
            f"Figure 4{'ab'[task_index]}: column {task} prediction vs training size",
            ["Training data", "Doduo F1", "Dosolo F1"],
            rows,
        )
        print_block(line_chart(
            {
                "Doduo": [curves["Doduo"][f][task_index] for f in FRACTIONS],
                "Dosolo": [curves["Dosolo"][f][task_index] for f in FRACTIONS],
            },
            x_labels=[f"{int(f * 100)}%" for f in FRACTIONS],
            title=f"Figure 4{'ab'[task_index]} ({task}) as a chart",
        ))
    return curves


def test_fig4_data_efficiency(benchmark):
    curves = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    # Shape: more data helps both models on both tasks.
    for model in ("Doduo", "Dosolo"):
        for task_index in (0, 1):
            assert (
                curves[model][1.00][task_index]
                >= curves[model][0.10][task_index] - 0.02
            )
    # Shape: with the full training set, multi-task learning is at least as
    # good as single-task on both tasks (the Table 6 ordering).
    for task_index in (0, 1):
        assert (
            curves["Doduo"][1.00][task_index]
            >= curves["Dosolo"][1.00][task_index] - 0.02
        )
