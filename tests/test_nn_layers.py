"""Tests for Module machinery and core layers."""

import numpy as np
import pytest

from repro.nn import Dropout, Embedding, LayerNorm, Linear, Module, Tensor

from helpers import rng


class TestModule:
    def test_named_parameters_nested(self):
        class Outer(Module):
            def __init__(self):
                super().__init__()
                self.linear = Linear(2, 3, rng(0))
                self.blocks = [Linear(3, 3, rng(1)), Linear(3, 3, rng(2))]

        outer = Outer()
        names = {name for name, _ in outer.named_parameters()}
        assert "linear.weight" in names
        assert "linear.bias" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names

    def test_num_parameters(self):
        layer = Linear(4, 5, rng(0))
        assert layer.num_parameters() == 4 * 5 + 5

    def test_state_dict_roundtrip(self):
        a = Linear(3, 3, rng(1))
        b = Linear(3, 3, rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_shape_mismatch(self):
        a = Linear(3, 3, rng(1))
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_load_state_dict_missing_key(self):
        a = Linear(3, 3, rng(1))
        state = a.state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_train_eval_mode_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5, rng(0))
                self.children_list = [Dropout(0.3, rng(1))]

        net = Net()
        net.eval()
        assert not net.drop.training
        assert not net.children_list[0].training
        net.train()
        assert net.drop.training

    def test_zero_grad(self):
        layer = Linear(2, 2, rng(0))
        out = layer(Tensor(np.ones((1, 2), dtype=np.float32)))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 6, rng(0))
        out = layer(Tensor(np.zeros((2, 3, 4), dtype=np.float32)))
        assert out.shape == (2, 3, 6)

    def test_no_bias(self):
        layer = Linear(4, 6, rng(0), bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_affine_correct(self):
        layer = Linear(2, 1, rng(0))
        layer.weight.data = np.array([[2.0], [3.0]], dtype=np.float32)
        layer.bias.data = np.array([1.0], dtype=np.float32)
        out = layer(Tensor(np.array([[1.0, 1.0]], dtype=np.float32)))
        assert out.data[0, 0] == pytest.approx(6.0)

    def test_xavier_scale(self):
        layer = Linear(100, 100, rng(0))
        bound = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= bound + 1e-6


class TestEmbedding:
    def test_lookup_shape(self):
        emb = Embedding(10, 4, rng(0))
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_out_of_range_raises(self):
        emb = Embedding(10, 4, rng(0))
        with pytest.raises(IndexError):
            emb(np.array([10]))
        with pytest.raises(IndexError):
            emb(np.array([-1]))

    def test_gradient_scatters(self):
        emb = Embedding(5, 2, rng(0))
        emb(np.array([0, 0, 1])).sum().backward()
        assert emb.weight.grad[0, 0] == pytest.approx(2.0)
        assert emb.weight.grad[4].sum() == 0.0


class TestLayerNorm:
    def test_normalizes(self):
        ln = LayerNorm(8)
        x = Tensor(rng(0).standard_normal((3, 8)).astype(np.float32) * 5 + 2)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)

    def test_parameters(self):
        ln = LayerNorm(8)
        names = {name for name, _ in ln.named_parameters()}
        assert names == {"gamma", "beta"}


class TestDropout:
    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, rng(0))

    def test_eval_identity(self):
        drop = Dropout(0.9, rng(0))
        drop.eval()
        x = Tensor(np.ones(10, dtype=np.float32))
        np.testing.assert_allclose(drop(x).data, 1.0)
