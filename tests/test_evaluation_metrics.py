"""Tests for evaluation metrics (F1 variants, V-measure)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation import (
    homogeneity_completeness_v,
    multiclass_macro_f1,
    multiclass_micro_f1,
    multilabel_micro_prf,
    multilabel_per_label_f1,
    per_class_f1,
)


class TestMulticlass:
    def test_micro_equals_accuracy(self):
        prf = multiclass_micro_f1([0, 1, 2, 2], [0, 1, 1, 2])
        assert prf.f1 == pytest.approx(0.75)
        assert prf.precision == prf.recall == prf.f1

    def test_perfect(self):
        prf = multiclass_micro_f1([1, 2], [1, 2])
        assert prf.as_tuple() == (1.0, 1.0, 1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            multiclass_micro_f1([0, 1], [0])

    def test_per_class(self):
        scores = per_class_f1([0, 0, 1], [0, 1, 1], num_classes=2)
        assert scores[0].precision == 1.0
        assert scores[0].recall == pytest.approx(0.5)
        assert scores[1].precision == pytest.approx(0.5)
        assert scores[1].recall == 1.0

    def test_macro_averages_present_classes_only(self):
        # class 2 never appears in y_true -> excluded from the macro average
        macro = multiclass_macro_f1([0, 0, 1, 1], [0, 0, 1, 1], num_classes=3)
        assert macro == 1.0

    def test_macro_empty(self):
        assert multiclass_macro_f1([], [], num_classes=3) == 0.0


class TestMultilabel:
    def test_micro_prf(self):
        y_true = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
        y_pred = np.array([[1, 1, 0], [0, 1, 0]], dtype=bool)
        prf = multilabel_micro_prf(y_true, y_pred)
        # tp=2 fp=1 fn=1
        assert prf.precision == pytest.approx(2 / 3)
        assert prf.recall == pytest.approx(2 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            multilabel_micro_prf(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_per_label(self):
        y_true = np.array([[1, 0], [1, 1]], dtype=bool)
        y_pred = np.array([[1, 0], [0, 1]], dtype=bool)
        scores = multilabel_per_label_f1(y_true, y_pred)
        assert scores[0].recall == pytest.approx(0.5)
        assert scores[1].f1 == 1.0

    def test_empty_prediction_zero_f1(self):
        y_true = np.ones((2, 2), dtype=bool)
        y_pred = np.zeros((2, 2), dtype=bool)
        assert multilabel_micro_prf(y_true, y_pred).f1 == 0.0


class TestVMeasure:
    def test_perfect_clustering(self):
        h, c, v = homogeneity_completeness_v([0, 0, 1, 1], [5, 5, 9, 9])
        assert (h, c, v) == (1.0, 1.0, 1.0)

    def test_everything_in_one_cluster_complete_not_homogeneous(self):
        h, c, v = homogeneity_completeness_v([0, 0, 1, 1], [0, 0, 0, 0])
        assert h == pytest.approx(0.0, abs=1e-9)
        assert c == 1.0
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_singletons_homogeneous_not_complete(self):
        h, c, v = homogeneity_completeness_v([0, 0, 1, 1], [0, 1, 2, 3])
        assert h == 1.0
        assert c < 1.0

    def test_label_permutation_invariance(self):
        base = homogeneity_completeness_v([0, 0, 1, 1, 2], [1, 1, 0, 0, 2])
        renamed = homogeneity_completeness_v([0, 0, 1, 1, 2], [7, 7, 3, 3, 9])
        assert base == pytest.approx(renamed)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            homogeneity_completeness_v([0], [0, 1])

    @settings(max_examples=40, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 3), min_size=2, max_size=30),
        seed=st.integers(0, 100),
    )
    def test_property_bounds_and_self_clustering(self, labels, seed):
        generator = np.random.default_rng(seed)
        predicted = generator.integers(0, 4, size=len(labels)).tolist()
        h, c, v = homogeneity_completeness_v(labels, predicted)
        assert -1e-9 <= h <= 1 + 1e-9
        assert -1e-9 <= c <= 1 + 1e-9
        assert -1e-9 <= v <= 1 + 1e-9
        # clustering identical to the truth is always perfect
        assert homogeneity_completeness_v(labels, labels)[2] == pytest.approx(1.0)
