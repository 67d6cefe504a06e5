"""Optimizers and learning-rate schedules.

The paper fine-tunes with Adam (eps=1e-8), initial learning rate 5e-5 and a
linear decay schedule with no warm-up; both pieces are reproduced here.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base optimizer interface over a list of parameters."""

    def __init__(self, params: Sequence[Tensor], lr: float) -> None:
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba) with the paper's defaults."""

    def __init__(
        self,
        params: Sequence[Tensor],
        lr: float = 5e-5,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        max_grad_norm: Optional[float] = 1.0,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.max_grad_norm = max_grad_norm
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def _clip_gradients(self) -> None:
        if self.max_grad_norm is None:
            return
        total = 0.0
        for param in self.params:
            if param.grad is not None:
                total += float((param.grad.astype(np.float64) ** 2).sum())
        norm = np.sqrt(total)
        if norm > self.max_grad_norm and norm > 0:
            scale = self.max_grad_norm / norm
            for param in self.params:
                if param.grad is not None:
                    param.grad *= scale

    def step(self) -> None:
        self._clip_gradients()
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for i, param in enumerate(self.params):
            grad = param.grad
            if grad is None:
                continue
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * param.data
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad * grad
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class LinearDecayScheduler:
    """Linearly decays the optimizer learning rate to zero (no warm-up).

    Matches the schedule in Section 5.3 of the paper.
    """

    def __init__(self, optimizer: Optimizer, total_steps: int) -> None:
        if total_steps <= 0:
            raise ValueError(f"total_steps must be positive: {total_steps}")
        self.optimizer = optimizer
        self.total_steps = total_steps
        self.base_lr = optimizer.lr
        self._step_count = 0

    def step(self) -> None:
        self._step_count += 1
        fraction = max(0.0, 1.0 - self._step_count / self.total_steps)
        self.optimizer.lr = self.base_lr * fraction
