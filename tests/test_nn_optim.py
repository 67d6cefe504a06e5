"""Tests for optimizers, the LR schedule, and checkpoint serialization."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    LinearDecayScheduler,
    Tensor,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn.serialization import copy_parameters

from helpers import rng


def quadratic_loss(param: Tensor) -> Tensor:
    target = Tensor(np.array([3.0, -2.0], dtype=np.float32))
    diff = param - target
    return (diff * diff).sum()


class TestAdam:
    def test_requires_trainable_params(self):
        with pytest.raises(ValueError):
            Adam([Tensor([1.0])], lr=0.1)

    def test_minimizes_quadratic(self):
        param = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        optimizer = Adam([param], lr=0.1)
        for _ in range(200):
            loss = quadratic_loss(param)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-2)

    def test_skips_params_without_grad(self):
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        optimizer = Adam([a, b], lr=0.1)
        loss = quadratic_loss(a)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        np.testing.assert_allclose(b.data, 1.0)  # untouched

    def test_gradient_clipping(self):
        param = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        optimizer = Adam([param], lr=1.0, max_grad_norm=1.0)
        param.grad = np.array([30.0, 40.0], dtype=np.float32)
        optimizer._clip_gradients()
        assert np.linalg.norm(param.grad) == pytest.approx(1.0, rel=1e-5)

    def test_weight_decay_shrinks(self):
        param = Tensor(np.full(2, 10.0, dtype=np.float32), requires_grad=True)
        optimizer = Adam([param], lr=0.1, weight_decay=0.1, max_grad_norm=None)
        for _ in range(50):
            optimizer.zero_grad()
            param.grad = np.zeros(2, dtype=np.float32)
            optimizer.step()
        assert np.abs(param.data).max() < 10.0


class TestScheduler:
    def test_linear_decay_to_zero(self):
        param = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        optimizer = Adam([param], lr=1.0)
        scheduler = LinearDecayScheduler(optimizer, total_steps=10)
        for step in range(10):
            scheduler.step()
        assert optimizer.lr == pytest.approx(0.0, abs=1e-9)

    def test_halfway(self):
        param = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        optimizer = Adam([param], lr=1.0)
        scheduler = LinearDecayScheduler(optimizer, total_steps=4)
        scheduler.step()
        scheduler.step()
        assert optimizer.lr == pytest.approx(0.5)

    def test_invalid_total_steps(self):
        param = Tensor(np.zeros(1, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            LinearDecayScheduler(Adam([param]), total_steps=0)


class TestCheckpoints:
    def test_save_load_roundtrip(self, tmp_path):
        a = Linear(3, 4, rng(0))
        b = Linear(3, 4, rng(1))
        path = tmp_path / "ckpt.npz"
        save_checkpoint(a, path)
        load_checkpoint(b, path)
        np.testing.assert_allclose(a.weight.data, b.weight.data)
        np.testing.assert_allclose(a.bias.data, b.bias.data)

    def test_copy_parameters(self):
        a = Linear(3, 4, rng(0))
        b = Linear(3, 4, rng(1))
        copy_parameters(a, b)
        np.testing.assert_allclose(a.weight.data, b.weight.data)
        # copies are independent
        b.weight.data[0, 0] += 1.0
        assert a.weight.data[0, 0] != b.weight.data[0, 0]
