"""Tests for the Sherlock, Sato (LDA + CRF), and TURL baselines."""

import itertools

import numpy as np
import pytest

from repro.baselines import (
    ColumnFeaturizer,
    FeatureConfig,
    HashedWordEmbeddings,
    LdaModel,
    LinearChainCRF,
    SatoConfig,
    SatoModel,
    SherlockConfig,
    SherlockModel,
    char_distribution,
    column_statistics,
    make_turl_trainer,
    paragraph_vector,
)
from repro.core import DoduoConfig
from repro.datasets import generate_viznet_dataset, generate_wikitable_dataset
from repro.nn import Tensor, TransformerConfig
from repro.text import train_wordpiece

from helpers import rng


class TestFeatures:
    def test_char_distribution_normalized(self):
        dist = char_distribution(["abc", "def"])
        assert dist.sum() == pytest.approx(1.0, rel=1e-5)

    def test_char_distribution_empty(self):
        assert char_distribution([]).sum() == 0.0

    def test_hashed_embeddings_deterministic(self):
        a = HashedWordEmbeddings(dim=16)
        b = HashedWordEmbeddings(dim=16)
        np.testing.assert_allclose(a.vector("george"), b.vector("george"))

    def test_hashed_embeddings_distinct_tokens(self):
        emb = HashedWordEmbeddings(dim=16)
        assert not np.allclose(emb.vector("george"), emb.vector("miller"))

    def test_word_feature_mean_max(self):
        emb = HashedWordEmbeddings(dim=8)
        feature = emb.column_feature(["george miller"])
        assert feature.shape == (16,)
        assert emb.column_feature([]).sum() == 0.0

    def test_paragraph_vector_unit_norm(self):
        vec = paragraph_vector(["hello world", "more text"], dim=16)
        assert np.linalg.norm(vec) == pytest.approx(1.0, rel=1e-4)

    def test_column_statistics_numeric_column(self):
        stats = column_statistics(["10", "20", "30"])
        assert stats[4] == pytest.approx(1.0)  # numeric fraction
        assert stats[8] == pytest.approx(1.0)  # uniqueness

    def test_column_statistics_empty(self):
        assert column_statistics([]).shape == (12,)

    def test_featurizer_batching(self):
        featurizer = ColumnFeaturizer()
        features = featurizer.featurize_many([["a", "b"], ["1", "2"]])
        config = FeatureConfig()
        assert features["char"].shape == (2, config.char_dim)
        assert features["word"].shape == (2, config.word_dim)
        assert features["stats"].shape == (2, config.stats_dim)


class TestSherlock:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_viznet_dataset(num_tables=80, seed=5)

    def test_fit_reduces_loss_and_predicts(self, dataset):
        model = SherlockModel(dataset, SherlockConfig(epochs=30, seed=0))
        losses = model.fit()
        assert losses[-1] < losses[0]
        prf = model.evaluate(dataset.tables[:20])
        assert prf.f1 > 0.5  # trained on these tables; should fit well

    def test_multilabel_mode(self):
        dataset = generate_wikitable_dataset(num_tables=30, seed=2)
        model = SherlockModel(dataset, SherlockConfig(epochs=10, multi_label=True))
        model.fit()
        predictions = model.predict([dataset.tables[0].columns[0].values])
        assert predictions.dtype == bool
        assert predictions.shape == (1, dataset.num_types)
        assert predictions.any()


class TestLda:
    def test_separates_two_topics(self):
        docs_a = ["apple banana fruit orange sweet"] * 10
        docs_b = ["engine wheel motor brake steel"] * 10
        lda = LdaModel(num_topics=2, iterations=30, seed=0)
        lda.fit(docs_a + docs_b)
        theta_a = lda.transform("apple banana fruit")
        theta_b = lda.transform("engine wheel motor")
        assert theta_a.argmax() != theta_b.argmax()

    def test_transform_is_distribution(self):
        lda = LdaModel(num_topics=3, iterations=10, seed=0)
        lda.fit(["a b c", "d e f", "a d"])
        theta = lda.transform("a b")
        assert theta.sum() == pytest.approx(1.0, rel=1e-5)
        assert (theta >= 0).all()

    def test_unknown_words_uniform(self):
        lda = LdaModel(num_topics=4, iterations=5, seed=0)
        lda.fit(["a b c"])
        theta = lda.transform("zzz qqq")
        np.testing.assert_allclose(theta, 0.25, atol=1e-6)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LdaModel(num_topics=2).transform("a")

    def test_invalid_topics(self):
        with pytest.raises(ValueError):
            LdaModel(num_topics=0)

    def test_top_words(self):
        lda = LdaModel(num_topics=2, iterations=20, seed=0)
        lda.fit(["apple banana"] * 5 + ["engine wheel"] * 5)
        words = lda.top_words(0, count=2)
        assert len(words) == 2


class TestCrf:
    def brute_force_best(self, unary, transitions):
        T, L = unary.shape
        best_score, best_path = -np.inf, None
        for path in itertools.product(range(L), repeat=T):
            score = sum(unary[t, path[t]] for t in range(T))
            score += sum(transitions[path[t - 1], path[t]] for t in range(1, T))
            if score > best_score:
                best_score, best_path = score, list(path)
        return best_path

    def test_viterbi_matches_brute_force(self):
        crf = LinearChainCRF(3, rng(0))
        crf.transitions.data = rng(1).standard_normal((3, 3)).astype(np.float32)
        unary = rng(2).standard_normal((4, 3))
        assert crf.viterbi(unary) == self.brute_force_best(
            unary, crf.transitions.data.astype(np.float64)
        )

    def test_log_likelihood_is_normalized(self):
        """Sum over all label sequences of exp(loglik) must be 1."""
        crf = LinearChainCRF(2, rng(0))
        crf.transitions.data = rng(1).standard_normal((2, 2)).astype(np.float32)
        unary_data = rng(2).standard_normal((3, 2)).astype(np.float32)
        total = 0.0
        for path in itertools.product(range(2), repeat=3):
            ll = crf.log_likelihood(Tensor(unary_data), np.array(path))
            total += np.exp(ll.item())
        assert total == pytest.approx(1.0, rel=1e-3)

    def test_training_increases_likelihood(self):
        crf = LinearChainCRF(3, rng(0))
        unary = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
        labels = np.array([0, 1, 2, 0])
        from repro.nn import Adam

        optimizer = Adam([unary, crf.transitions], lr=0.1)
        first = crf.negative_log_likelihood(unary, labels).item()
        for _ in range(30):
            loss = crf.negative_log_likelihood(unary, labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert crf.negative_log_likelihood(unary, labels).item() < first
        assert crf.viterbi(unary.data) == labels.tolist()

    def test_single_position_sequence(self):
        crf = LinearChainCRF(4, rng(0))
        unary = np.array([[0.0, 5.0, 0.0, 0.0]])
        assert crf.viterbi(unary) == [1]

    def test_empty_sequence_raises(self):
        crf = LinearChainCRF(2, rng(0))
        with pytest.raises(ValueError):
            crf.log_likelihood(Tensor(np.zeros((0, 2), dtype=np.float32)), np.array([]))


class TestSato:
    def test_fit_and_structured_predict(self):
        dataset = generate_viznet_dataset(num_tables=60, seed=9)
        model = SatoModel(dataset, SatoConfig(epochs=10, num_topics=6, lda_iterations=10))
        losses = model.fit()
        assert losses[-1] < losses[0]
        predictions = model.predict(dataset.tables[:5])
        for table, pred in zip(dataset.tables[:5], predictions):
            assert len(pred) == table.num_columns
            assert all(0 <= p < dataset.num_types for p in pred)

    def test_evaluate_on_training_data_fits(self):
        dataset = generate_viznet_dataset(num_tables=60, seed=9)
        model = SatoModel(dataset, SatoConfig(epochs=20, num_topics=6, lda_iterations=10))
        model.fit()
        assert model.evaluate(dataset.tables[:20]).f1 > 0.6


class TestTurl:
    def test_turl_trainer_uses_visibility(self):
        dataset = generate_wikitable_dataset(num_tables=20, seed=2, max_rows=4)
        tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=800)
        encoder_config = TransformerConfig(
            vocab_size=tokenizer.vocab_size, hidden_dim=32, num_layers=1,
            num_heads=2, ffn_dim=64, max_position=128, num_segments=8, dropout=0.0,
        )
        trainer = make_turl_trainer(
            dataset, tokenizer, encoder_config,
            DoduoConfig(epochs=1, keep_best_checkpoint=False),
        )
        assert trainer.config.use_visibility_matrix
        assert trainer.model.use_visibility_matrix
        trainer.train()
        assert trainer.history.task_losses
