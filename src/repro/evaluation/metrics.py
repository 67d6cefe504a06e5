"""Evaluation metrics used across the paper's experiments.

* micro / macro precision, recall, F1 for multi-class prediction (VizNet),
* micro precision / recall / F1 for multi-label prediction (WikiTable),
* per-class F1 (Tables 5, 10, Figure 5),
* homogeneity / completeness / V-measure for the clustering case study
  (Table 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class PRF:
    """Precision / recall / F1 triple."""

    precision: float
    recall: float
    f1: float

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.precision, self.recall, self.f1)


def _prf(tp: float, fp: float, fn: float) -> PRF:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return PRF(precision, recall, f1)


# ---------------------------------------------------------------------------
# Multi-class (single-label) metrics
# ---------------------------------------------------------------------------

def multiclass_micro_f1(y_true: Sequence[int], y_pred: Sequence[int]) -> PRF:
    """Micro-averaged PRF; for single-label tasks this equals accuracy."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    correct = float((y_true == y_pred).sum())
    total = float(len(y_true))
    return _prf(correct, total - correct, total - correct)


def per_class_f1(
    y_true: Sequence[int], y_pred: Sequence[int], num_classes: int
) -> List[PRF]:
    """One PRF per class (one-vs-rest)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = []
    for cls in range(num_classes):
        tp = float(((y_pred == cls) & (y_true == cls)).sum())
        fp = float(((y_pred == cls) & (y_true != cls)).sum())
        fn = float(((y_pred != cls) & (y_true == cls)).sum())
        scores.append(_prf(tp, fp, fn))
    return scores


def multiclass_macro_f1(
    y_true: Sequence[int], y_pred: Sequence[int], num_classes: int
) -> float:
    """Simple average of per-class F1 over classes present in y_true."""
    scores = per_class_f1(y_true, y_pred, num_classes)
    present = sorted(set(np.asarray(y_true).tolist()))
    if not present:
        return 0.0
    return float(np.mean([scores[c].f1 for c in present]))


# ---------------------------------------------------------------------------
# Multi-label metrics
# ---------------------------------------------------------------------------

def multilabel_micro_prf(y_true: np.ndarray, y_pred: np.ndarray) -> PRF:
    """Micro PRF over a binary indicator matrix ``(samples, labels)``."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    if y_true.shape != y_pred.shape:
        raise ValueError("indicator matrices must have the same shape")
    tp = float((y_true & y_pred).sum())
    fp = float((~y_true & y_pred).sum())
    fn = float((y_true & ~y_pred).sum())
    return _prf(tp, fp, fn)


def multilabel_per_label_f1(y_true: np.ndarray, y_pred: np.ndarray) -> List[PRF]:
    """Per-label PRF over an indicator matrix."""
    y_true = np.asarray(y_true, dtype=bool)
    y_pred = np.asarray(y_pred, dtype=bool)
    scores = []
    for label in range(y_true.shape[1]):
        tp = float((y_true[:, label] & y_pred[:, label]).sum())
        fp = float((~y_true[:, label] & y_pred[:, label]).sum())
        fn = float((y_true[:, label] & ~y_pred[:, label]).sum())
        scores.append(_prf(tp, fp, fn))
    return scores


# ---------------------------------------------------------------------------
# Clustering metrics (Table 9): homogeneity / completeness / V-measure
# ---------------------------------------------------------------------------

def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-(probs * np.log(probs)).sum())


def _contingency(labels_true: Sequence[int], labels_pred: Sequence[int]) -> np.ndarray:
    true_ids = {label: i for i, label in enumerate(sorted(set(labels_true)))}
    pred_ids = {label: i for i, label in enumerate(sorted(set(labels_pred)))}
    table = np.zeros((len(true_ids), len(pred_ids)), dtype=np.float64)
    for t, p in zip(labels_true, labels_pred):
        table[true_ids[t], pred_ids[p]] += 1
    return table


def homogeneity_completeness_v(
    labels_true: Sequence[int], labels_pred: Sequence[int]
) -> Tuple[float, float, float]:
    """Rosenberg & Hirschberg's homogeneity, completeness, V-measure.

    The paper reports these as Precision / Recall / F1 of the case study.
    """
    if len(labels_true) != len(labels_pred):
        raise ValueError("label sequences must have the same length")
    table = _contingency(labels_true, labels_pred)
    n = table.sum()
    if n == 0:
        return (1.0, 1.0, 1.0)

    h_true = _entropy(table.sum(axis=1))
    h_pred = _entropy(table.sum(axis=0))

    # Conditional entropies H(true|pred) and H(pred|true).
    h_true_given_pred = 0.0
    for j in range(table.shape[1]):
        column = table[:, j]
        weight = column.sum() / n
        h_true_given_pred += weight * _entropy(column)
    h_pred_given_true = 0.0
    for i in range(table.shape[0]):
        row = table[i]
        weight = row.sum() / n
        h_pred_given_true += weight * _entropy(row)

    homogeneity = 1.0 if h_true == 0 else 1.0 - h_true_given_pred / h_true
    completeness = 1.0 if h_pred == 0 else 1.0 - h_pred_given_true / h_pred
    if homogeneity + completeness == 0:
        v_measure = 0.0
    else:
        v_measure = 2 * homogeneity * completeness / (homogeneity + completeness)
    return (homogeneity, completeness, v_measure)
