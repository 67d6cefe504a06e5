"""Unit and property-based tests for the autograd tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concatenate

from helpers import gradcheck, numerical_gradient, rng


class TestBasicOps:
    def test_add_values(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        np.testing.assert_allclose((a + b).data, [4.0, 6.0])

    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_add_broadcast_backward(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_scalar_broadcast(self):
        a = Tensor(np.full((2, 2), 3.0, dtype=np.float32), requires_grad=True)
        out = (a * 2.0 + 1.0).sum()
        out.backward()
        assert out.item() == pytest.approx(28.0)
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0

    def test_matmul_values(self):
        a = Tensor(np.array([[1.0, 2.0]], dtype=np.float32))
        b = Tensor(np.array([[3.0], [4.0]], dtype=np.float32))
        np.testing.assert_allclose((a @ b).data, [[11.0]])

    def test_matmul_backward(self):
        a_data = rng(1).standard_normal((3, 4)).astype(np.float32)
        b = Tensor(rng(2).standard_normal((4, 2)).astype(np.float32))
        gradcheck(lambda x: x @ b, a_data)

    def test_batched_matmul_backward(self):
        b = Tensor(rng(3).standard_normal((2, 4, 3)).astype(np.float32))
        a_data = rng(4).standard_normal((2, 5, 4)).astype(np.float32)
        gradcheck(lambda x: x @ b, a_data)


class TestElementwise:
    @pytest.mark.parametrize("name", ["relu"])
    def test_gradcheck(self, name):
        data = rng(7).uniform(-2, 2, size=(3, 4))
        # keep relu away from its kink
        data[np.abs(data) < 0.1] = 0.5
        gradcheck(lambda x: getattr(x, name)(), data)


class TestReductions:
    def test_sum_axis(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        out = t.sum(axis=0)
        np.testing.assert_allclose(out.data, [3.0, 5.0, 7.0])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_sum_keepdims(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32))
        assert t.sum(axis=1, keepdims=True).shape == (2, 1)

class TestShapes:
    def test_reshape_roundtrip(self):
        gradcheck(lambda x: x.reshape(6), rng(10).standard_normal((2, 3)))

    def test_transpose(self):
        gradcheck(lambda x: x.transpose(1, 0), rng(11).standard_normal((2, 3)))

    def test_transpose_default_reverses(self):
        t = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert t.transpose().shape == (4, 3, 2)

    def test_swapaxes(self):
        gradcheck(lambda x: x.swapaxes(0, 1), rng(12).standard_normal((2, 3)))

    def test_getitem_slice(self):
        t = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        t[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_fancy_repeated_index_accumulates(self):
        t = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        idx = np.array([0, 0, 2])
        t[idx].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_getitem_tuple_index(self):
        t = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
        rows = np.array([0, 2])
        cols = np.array([1, 3])
        picked = t[(rows, cols)]
        np.testing.assert_allclose(picked.data, [1.0, 11.0])
        picked.sum().backward()
        assert t.grad[0, 1] == 1.0 and t.grad[2, 3] == 1.0
        assert t.grad.sum() == 2.0


class TestCombinators:
    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0  # x used twice
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a * b).backward()  # d/dx 6x^2 = 12x
        assert x.grad[0] == pytest.approx(12.0)

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(500):
            y = y + 1.0
        y.backward()
        assert x.grad[0] == 1.0


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 1000),
)
def test_property_add_mul_grads(shape, seed):
    """For z = sum(a*b + a), dz/da = b + 1 and dz/db = a."""
    generator = np.random.default_rng(seed)
    a = Tensor(generator.standard_normal(shape).astype(np.float32), requires_grad=True)
    b = Tensor(generator.standard_normal(shape).astype(np.float32), requires_grad=True)
    (a * b + a).sum().backward()
    np.testing.assert_allclose(a.grad, b.data + 1.0, rtol=1e-4, atol=1e-5)
    np.testing.assert_allclose(b.grad, a.data, rtol=1e-4, atol=1e-5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_sum_then_broadcast_grad_is_ones(seed):
    generator = np.random.default_rng(seed)
    shape = (int(generator.integers(1, 5)), int(generator.integers(1, 5)))
    x = Tensor(generator.standard_normal(shape).astype(np.float32), requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones(shape))
