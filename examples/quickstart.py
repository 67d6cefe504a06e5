"""Quickstart: train DODUO and annotate tables in a few lines.

Mirrors the toolbox usage from the paper (Section 1: "can be used with just
a few lines of Python code"):

    1. build the substrate (KB -> corpus -> tokenizer -> pre-trained LM),
    2. fine-tune DODUO on a WikiTable-style training set,
    3. annotate an unseen table: column types, column relations, embeddings,
    4. serve a whole workload through the batched AnnotationEngine — one
       padded encoder pass per batch instead of four passes per table,
    5. push duplicate-heavy traffic through an EngineWorker, the serving
       front door, whose queue dedups content-identical requests.

Run:  python examples/quickstart.py
"""

from repro import (
    AnnotationEngine,
    Doduo,
    DoduoConfig,
    EngineConfig,
    EngineWorker,
)
from repro.core import PipelineConfig, build_knowledge_base, build_pretrained_lm
from repro.datasets import Column, Table, generate_wikitable_dataset, split_dataset


def main() -> None:
    # 1. Substrate: a synthetic knowledge base stands in for Wikipedia, and
    #    masked-LM pre-training on its verbalized facts stands in for BERT.
    pipeline = PipelineConfig(pretrain_epochs=2)
    print("building substrate (tokenizer + pre-trained LM)...")
    tokenizer, pretrained = build_pretrained_lm(pipeline)

    # 2. Fine-tune on column type + relation annotations (multi-task).
    dataset = generate_wikitable_dataset(
        num_tables=250, seed=7, kb=build_knowledge_base(pipeline)
    )
    splits = split_dataset(dataset, seed=1)
    print(f"fine-tuning on {len(splits.train)} tables "
          f"({dataset.num_types} types, {dataset.num_relations} relations)...")
    model = Doduo.train_on(
        splits.train,
        tokenizer,
        encoder_config=pipeline.encoder_config(tokenizer.vocab_size),
        config=DoduoConfig(epochs=10, batch_size=8, max_tokens_per_column=16),
        valid_dataset=splits.valid,
        pretrained_encoder_state=pretrained.encoder.state_dict(),
    )

    # 3. Annotate a hand-written table (the paper's Figure 2 example).
    films = Table(
        columns=[
            Column(values=["happy feet", "cars", "flushed away"]),
            Column(values=["george miller", "john lasseter", "david bowers"]),
            Column(values=["bill miller", "darla anderson", "dick clement"]),
            Column(values=["usa", "uk", "france"]),
        ],
        table_id="figure-2a",
    )
    annotated = model.annotate(films)

    print("\npredicted column types:")
    for i, names in enumerate(annotated.coltypes):
        print(f"  column {i}: {', '.join(names)}")
    print("\npredicted relations (subject column 0 -> column k):")
    for (i, j), names in sorted(annotated.colrels.items()):
        print(f"  ({i}, {j}): {', '.join(names)}")
    print(f"\ncontextualized column embeddings: {annotated.colemb.shape}")

    # 4. Serve a workload: the engine serializes each table once (LRU cache),
    #    runs each batch as one padding-free forward pass whatever the
    #    tables' widths, and derives types, scores, relations, and
    #    embeddings from it.
    engine = AnnotationEngine(model, EngineConfig(batch_size=16))
    results = engine.annotate_batch(splits.test.tables)
    stats = engine.stats
    print(f"\nengine: annotated {stats.requests} tables with "
          f"{stats.encoder_passes} encoder passes in {stats.batches} batches")
    first = results[0]
    print(f"  first table {first.table.table_id!r}: "
          f"top types {first.top_types(0, k=2)}")

    # 5. Heavy concurrent traffic: the worker's queue dedups
    #    content-identical requests onto one forward pass and fans the same
    #    result out to every waiter (see docs/serving.md for the tiers).
    with EngineWorker(engine) as worker:
        popular = splits.test.tables[0]
        futures = [worker.submit(popular) for _ in range(10)]
        answers = [future.result() for future in futures]
    print(f"\nworker: {len(answers)} waiters, "
          f"{worker.stats.dedup_hits} dedup hits, "
          f"{worker.stats.unique_annotated} annotation(s) computed")

    scores = model.trainer.evaluate(splits.test)
    print("\nheld-out micro-F1:",
          {task: round(prf.f1, 3) for task, prf in scores.items()})


if __name__ == "__main__":
    main()
