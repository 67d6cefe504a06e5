"""Linear-chain conditional random field over a table's column sequence.

Sato places a CRF on top of per-column (unary) scores so that column-type
predictions within the same table are made jointly — its "structured output
prediction" component.  Training maximizes the exact sequence log-likelihood
(forward algorithm); decoding uses Viterbi.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..nn import Module, Tensor
from ..nn import functional as F


class LinearChainCRF(Module):
    """Pairwise transition potentials between adjacent columns."""

    def __init__(self, num_labels: int, rng: np.random.Generator) -> None:
        super().__init__()
        if num_labels < 1:
            raise ValueError("num_labels must be >= 1")
        self.num_labels = num_labels
        self.transitions = Tensor(
            (rng.standard_normal((num_labels, num_labels)) * 0.01).astype(np.float32),
            requires_grad=True,
        )

    # -- training objective ------------------------------------------------------
    def log_likelihood(self, unary: Tensor, labels: np.ndarray) -> Tensor:
        """Log p(labels | unary) for one sequence.

        Parameters
        ----------
        unary:
            Tensor ``(T, L)`` of per-position label scores.
        labels:
            Integer array ``(T,)`` of gold labels.
        """
        labels = np.asarray(labels)
        T = unary.shape[0]
        if T == 0:
            raise ValueError("empty sequence")
        if labels.shape != (T,):
            raise ValueError(f"labels shape {labels.shape} != ({T},)")

        # Gold path score.
        positions = np.arange(T)
        score = unary[(positions, labels)].sum()
        if T > 1:
            score = score + self.transitions[(labels[:-1], labels[1:])].sum()

        # Partition function via the forward algorithm.
        alpha = unary[0]
        for t in range(1, T):
            # (L_prev, 1) + (L_prev, L_next) + (1, L_next) -> logsumexp over prev
            scores = (
                alpha.reshape(self.num_labels, 1)
                + self.transitions
                + unary[t].reshape(1, self.num_labels)
            )
            alpha = F.logsumexp(scores, axis=0)
        log_z = F.logsumexp(alpha, axis=0)
        return score - log_z

    def negative_log_likelihood(self, unary: Tensor, labels: np.ndarray) -> Tensor:
        return -self.log_likelihood(unary, labels)

    # -- decoding -----------------------------------------------------------------
    def viterbi(self, unary: np.ndarray) -> List[int]:
        """Most likely label sequence for ``unary`` scores ``(T, L)``."""
        unary = np.asarray(unary, dtype=np.float64)
        T, L = unary.shape
        transitions = self.transitions.data.astype(np.float64)
        delta = unary[0].copy()
        backpointers = np.zeros((T, L), dtype=np.int64)
        for t in range(1, T):
            scores = delta[:, None] + transitions + unary[t][None, :]
            backpointers[t] = scores.argmax(axis=0)
            delta = scores.max(axis=0)
        path = [int(delta.argmax())]
        for t in range(T - 1, 0, -1):
            path.append(int(backpointers[t, path[-1]]))
        path.reverse()
        return path
