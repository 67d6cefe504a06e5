"""Multi-model serving: registry routes, eviction, and the asyncio API.

Walkthrough:
    1. fine-tune TWO models over the same label space (a "stable" model and
       a quick "canary" variant — in production these would be different
       checkpoints of the same service);
    2. register both in a ModelRegistry and serve an interleaved mixed
       corpus through ONE AnnotationGateway, routed per request;
    3. show fingerprint routing (content-addressed model selection);
    4. serve the same traffic from a coroutine with the asyncio-native
       asubmit/astream API — no thread burned per in-flight request;
    5. bound resident models with max_live and watch LRU eviction reload
       transparently.

Run:  PYTHONPATH=src python examples/multi_model_gateway.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro.core import Doduo, DoduoConfig, DoduoTrainer, save_annotator
from repro.datasets import generate_wikitable_dataset
from repro.nn import TransformerConfig
from repro.serving import AnnotationGateway, ModelRegistry
from repro.text import train_wordpiece


def train_variant(dataset, tokenizer, seed: int, epochs: int) -> DoduoTrainer:
    encoder_config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=32,
        num_layers=2,
        num_heads=2,
        ffn_dim=64,
        max_position=160,
        num_segments=8,
        dropout=0.0,
    )
    config = DoduoConfig(epochs=epochs, batch_size=8, seed=seed,
                         keep_best_checkpoint=False)
    trainer = DoduoTrainer(dataset, tokenizer, encoder_config, config)
    trainer.train()
    return trainer


def main() -> None:
    # 1. Two models over one label space.
    dataset = generate_wikitable_dataset(num_tables=40, seed=3, max_rows=4)
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=800)
    stable = train_variant(dataset, tokenizer, seed=0, epochs=3)
    canary = train_variant(dataset, tokenizer, seed=1, epochs=1)
    tables = dataset.tables[:6]

    # 2. One gateway, two routes.  In-memory registrations are live (and
    #    pinned) immediately; bundle-path registrations load lazily.
    registry = ModelRegistry()
    registry.register("stable", stable)   # first registered = default route
    registry.register("canary", canary)
    with AnnotationGateway(registry) as gateway:
        for table in tables[:2]:
            baseline = gateway.annotate(table)                  # default route
            candidate = gateway.annotate(table, model="canary")
            agree = baseline.coltypes == candidate.coltypes
            print(f"{table.table_id}: stable={baseline.coltypes[0]} "
                  f"canary={candidate.coltypes[0]} agree={agree}")

        # 3. Fingerprint routing: pin the exact weights you validated.
        fingerprint = registry.fingerprint_of("stable")
        pinned = gateway.annotate(tables[0], model=fingerprint)
        print(f"fingerprint route {fingerprint[:12]}… -> "
              f"{pinned.coltypes[0]} (same engine as 'stable')")

        # 4. The asyncio-native path: identical bytes, no blocked loop.
        async def serve_async():
            results = []
            async for result in gateway.astream(tables, model="canary"):
                results.append(result)
            return results

        async_results = asyncio.run(serve_async())
        print(f"astream served {len(async_results)} tables on the "
              f"canary route")
        stats = gateway.stats
        print(f"per-model annotations: "
              f"{ {name: s.unique_annotated for name, s in sorted(stats.models.items())} }")

    # 5. Bounded residency: save bundles, register by path, cap max_live.
    with tempfile.TemporaryDirectory() as root:
        for name, trainer in (("stable", stable), ("canary", canary)):
            save_annotator(Doduo(trainer), Path(root) / name)
        bounded = ModelRegistry(max_live=1)
        bounded.register("stable", Path(root) / "stable")
        bounded.register("canary", Path(root) / "canary")
        with AnnotationGateway(bounded) as gateway:
            gateway.annotate(tables[0], model="stable")   # loads stable
            gateway.annotate(tables[0], model="canary")   # evicts stable
            gateway.annotate(tables[0], model="stable")   # reloads, same bytes
        print(f"max_live=1: loads={bounded.stats.loads} "
              f"evictions={bounded.stats.evictions} "
              f"reloads={bounded.stats.reloads}")


if __name__ == "__main__":
    main()
