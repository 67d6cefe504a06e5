"""Test configuration: shared helpers on sys.path plus session fixtures."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture()
def walks(monkeypatch):
    """Counts calls of ``repro.encoding.cache.content_digest``: every table
    or column walk goes through it (composite keys over finished digests
    do not).  Clear with ``del walks[:]``."""
    from repro.encoding import cache

    calls = []
    inner = cache.content_digest

    def counting(chunks):
        calls.append(1)
        return inner(chunks)

    monkeypatch.setattr(cache, "content_digest", counting)
    return calls


@pytest.fixture(scope="session")
def shared_tiny_annotator():
    """A Doduo annotator fine-tuned for a few epochs on a tiny WikiTable.

    Session-scoped because several test modules (wide tables, CLI, examples)
    only need *a* trained annotator, not a good one; sharing one keeps the
    suite fast.
    """
    from repro.core import Doduo, DoduoConfig, DoduoTrainer
    from repro.datasets import generate_wikitable_dataset
    from repro.nn import TransformerConfig
    from repro.text import train_wordpiece

    dataset = generate_wikitable_dataset(num_tables=30, seed=17, max_rows=4)
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=800)
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
    config = DoduoConfig(epochs=2, batch_size=8, learning_rate=2e-3,
                         keep_best_checkpoint=False)
    trainer = DoduoTrainer(dataset, tokenizer, encoder_config, config)
    trainer.train()
    return Doduo(trainer)
