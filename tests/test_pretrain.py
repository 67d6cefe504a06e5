"""Tests for masked-LM pre-training and pseudo-perplexity scoring."""

import numpy as np
import pytest

from repro.nn import TransformerConfig
from repro.pretrain import (
    IGNORE_INDEX,
    MaskedLanguageModel,
    mask_tokens,
    pack_sentences,
    pretrain_mlm,
    sentence_pseudo_perplexity,
)
from repro.text import train_wordpiece

from helpers import rng

CORPUS = [
    "george miller directed happy feet",
    "happy feet is a film",
    "judy morris is a director",
    "cars is a film",
    "darla anderson produced cars",
    "george miller is a director",
] * 4


@pytest.fixture(scope="module")
def tokenizer():
    return train_wordpiece(CORPUS, vocab_size=400)


@pytest.fixture(scope="module")
def config(tokenizer):
    return TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=32,
        num_layers=2,
        num_heads=2,
        ffn_dim=64,
        max_position=64,
        dropout=0.0,
    )


class TestMaskTokens:
    def test_labels_only_at_masked_positions(self, tokenizer):
        ids = np.array([tokenizer.encode("george miller directed happy feet")])
        masked, labels = mask_tokens(ids, tokenizer, rng(0), mask_prob=0.5)
        changed = labels != IGNORE_INDEX
        # labels hold the original ids at selected positions
        np.testing.assert_array_equal(labels[changed], ids[changed])
        # unselected positions are untouched
        np.testing.assert_array_equal(masked[~changed], ids[~changed])

    def test_specials_never_masked(self, tokenizer):
        vocab = tokenizer.vocab
        ids = np.array([[vocab.cls_id, vocab.token_to_id("george"), vocab.sep_id]])
        for seed in range(20):
            _, labels = mask_tokens(ids, tokenizer, rng(seed), mask_prob=1.0)
            assert labels[0, 0] == IGNORE_INDEX
            assert labels[0, 2] == IGNORE_INDEX

    def test_at_least_one_position_masked(self, tokenizer):
        ids = np.array([tokenizer.encode("george")])
        _, labels = mask_tokens(ids, tokenizer, rng(0), mask_prob=0.0)
        assert (labels != IGNORE_INDEX).sum() >= 1

    def test_8020_split_roughly_holds(self, tokenizer):
        ids = np.array([tokenizer.encode("george miller directed happy feet " * 50)])
        masked, labels = mask_tokens(ids, tokenizer, rng(1), mask_prob=0.5)
        selected = labels != IGNORE_INDEX
        mask_id = tokenizer.vocab.mask_id
        frac_mask = (masked[selected] == mask_id).mean()
        assert 0.6 < frac_mask < 0.95


class TestPackSentences:
    def test_examples_start_with_cls(self, tokenizer):
        examples = pack_sentences(CORPUS, tokenizer, max_len=32)
        cls_id = tokenizer.vocab.cls_id
        assert all(e[0] == cls_id for e in examples)

    def test_respects_max_len(self, tokenizer):
        examples = pack_sentences(CORPUS, tokenizer, max_len=24)
        assert all(len(e) <= 24 for e in examples)

    def test_packs_multiple_sentences(self, tokenizer):
        examples = pack_sentences(CORPUS, tokenizer, max_len=64)
        sep_id = tokenizer.vocab.sep_id
        # at least one packed example has several [SEP]s
        assert any(sum(1 for t in e if t == sep_id) >= 2 for e in examples)

    def test_all_tokens_preserved(self, tokenizer):
        examples = pack_sentences(CORPUS, tokenizer, max_len=64)
        specials = {tokenizer.vocab.cls_id, tokenizer.vocab.sep_id}
        packed = [t for e in examples for t in e if t not in specials]
        direct = [t for s in CORPUS for t in tokenizer.encode(s)]
        assert sorted(packed) == sorted(direct)


class TestPretraining:
    def test_loss_decreases(self, tokenizer, config):
        result = pretrain_mlm(
            CORPUS, tokenizer, config, epochs=4, batch_size=8, lr=2e-3, seed=0
        )
        assert result.losses[-1] < result.losses[0]

    def test_model_in_eval_mode_after(self, tokenizer, config):
        result = pretrain_mlm(CORPUS, tokenizer, config, epochs=1, seed=0)
        assert not result.model.training

    def test_deterministic(self, tokenizer, config):
        a = pretrain_mlm(CORPUS, tokenizer, config, epochs=1, seed=3)
        b = pretrain_mlm(CORPUS, tokenizer, config, epochs=1, seed=3)
        np.testing.assert_allclose(a.losses, b.losses, rtol=1e-5)

    def test_encoder_property(self, tokenizer, config):
        result = pretrain_mlm(CORPUS, tokenizer, config, epochs=1, seed=0)
        assert result.encoder is result.model.encoder

    def test_padding_report_populated(self, tokenizer, config):
        result = pretrain_mlm(CORPUS, tokenizer, config, epochs=1, seed=0)
        padding = result.padding
        assert padding.padded_tokens >= padding.real_tokens > 0
        assert padding.batches > 0

    def test_exact_batching_has_zero_waste_and_still_learns(
        self, tokenizer, config
    ):
        result = pretrain_mlm(
            CORPUS, tokenizer, config, epochs=4, batch_size=8, lr=2e-3,
            seed=0, exact_batching=True,
        )
        assert result.padding.padded_tokens == result.padding.real_tokens
        assert result.losses[-1] < result.losses[0]
        # The default policy on the same corpus does waste slots, so the
        # exact planner is measurably tighter.
        default = pretrain_mlm(
            CORPUS, tokenizer, config, epochs=1, batch_size=8, seed=0
        )
        assert default.padding.padded_tokens > default.padding.real_tokens


class TestPseudoPerplexity:
    def test_positive_and_finite(self, tokenizer, config):
        model = MaskedLanguageModel(config, rng(0))
        ppl = sentence_pseudo_perplexity(model, tokenizer, "george miller is a director")
        assert np.isfinite(ppl) and ppl > 0

    def test_empty_sentence_infinite(self, tokenizer, config):
        model = MaskedLanguageModel(config, rng(0))
        assert sentence_pseudo_perplexity(model, tokenizer, "") == float("inf")

    def test_training_reduces_ppl_of_corpus_sentences(self, tokenizer, config):
        untrained = MaskedLanguageModel(config, rng(0))
        trained = pretrain_mlm(
            CORPUS, tokenizer, config, epochs=6, batch_size=8, lr=2e-3, seed=0
        ).model
        sentence = "george miller is a director"
        assert sentence_pseudo_perplexity(
            trained, tokenizer, sentence
        ) < sentence_pseudo_perplexity(untrained, tokenizer, sentence)
