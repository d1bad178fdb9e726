"""Gradient checks and behaviour tests for the autodiff engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, concatenate, stack


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad.ravel()[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, atol=1e-5):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=shape)

    def value(x):
        t = Tensor(x.copy(), requires_grad=True)
        return build_loss(t).item()

    t = Tensor(x0.copy(), requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    analytic = t.grad
    numeric = numeric_gradient(value, x0.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


class TestElementwiseGradients:
    def test_add_mul(self):
        check_gradient(lambda t: ((t * 3.0 + 2.0) * t).sum(), (4, 3))

    def test_sub_div(self):
        check_gradient(lambda t: ((t - 0.5) / (t * t + 2.0)).sum(), (3, 3))

    def test_pow(self):
        check_gradient(lambda t: ((t * t + 1.0) ** 1.5).sum(), (5,))

    def test_exp_log(self):
        check_gradient(lambda t: ((t * t + 1.0).log() + t.exp()).sum(), (4,))

    def test_tanh_sigmoid_relu(self):
        check_gradient(lambda t: (t.tanh() + t.sigmoid() + (t + 0.3).relu()).sum(), (6,))

    def test_abs(self):
        check_gradient(lambda t: (t.abs()).sum(), (7,), seed=3)

    def test_sqrt(self):
        check_gradient(lambda t: ((t * t + 1.0).sqrt()).sum(), (4,))


class TestMatmulAndShapes:
    def test_matmul(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 2))
        check_gradient(lambda t: (t @ Tensor(w)).sum(), (4, 3))

    def test_matmul_right_operand(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3))
        check_gradient(lambda t: (Tensor(x) @ t).sum(), (3, 2))

    def test_reshape_transpose(self):
        check_gradient(lambda t: (t.reshape(6).transpose()).sum(), (2, 3))

    def test_getitem(self):
        check_gradient(lambda t: (t[1:3, :2] * 2.0).sum(), (4, 3))

    def test_overlapping_slices_and_a_dense_use_of_one_tensor(self):
        def loss(t):
            return (t[0:3] * t[1:4]).sum() + (t[2] ** 2).sum() + (t * 0.5).sum()

        check_gradient(loss, (4, 3))

    def test_fancy_index_with_repeated_positions(self):
        check_gradient(lambda t: (t[[0, 2, 0], 1:] ** 2).sum(), (3, 3))

    def test_slice_gradient_leaves_a_gradient_shared_with_another_tensor_alone(self):
        # The adds hand ``t`` and ``u`` the same gradient array, and ``t[0]``'s
        # gradient arrives before ``u`` is done: it must not be added into
        # that shared array in place.
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        u = Tensor(np.ones((2, 2)), requires_grad=True)
        (t + (t[0] + u)).sum().backward()
        np.testing.assert_array_equal(u.grad, np.ones((2, 2)))
        np.testing.assert_array_equal(t.grad, [[3.0, 3.0], [1.0, 1.0]])

    def test_concatenate(self):
        def loss(t):
            return (concatenate([t, t * 2.0], axis=0) ** 2).sum()

        check_gradient(loss, (2, 3))

    def test_stack(self):
        def loss(t):
            return (stack([t, t * 0.5], axis=0)).sum()

        check_gradient(loss, (2, 2))


class TestReductions:
    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), (4, 3))

    def test_mean_axis_keepdims(self):
        check_gradient(lambda t: (t.mean(axis=1, keepdims=True) * t).sum(), (3, 5))

    def test_max(self):
        check_gradient(lambda t: t.max(axis=1).sum(), (3, 4), seed=7)

    def test_broadcast_add(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(3,))
        check_gradient(lambda t: ((t + Tensor(b)) ** 2).sum(), (4, 3))

    def test_broadcast_mul_with_grad_on_small(self):
        rng = np.random.default_rng(6)
        big = rng.normal(size=(4, 3))
        check_gradient(lambda t: (Tensor(big) * t).sum(), (3,))


class TestTensorBehaviour:
    def test_backward_requires_grad(self):
        t = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            t.backward()

    def test_backward_nonscalar_requires_grad_arg(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_gradient_accumulates_across_backward_calls(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        first = t.grad.copy()
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * first)

    def test_detach_stops_gradient(self):
        t = Tensor(np.ones(2), requires_grad=True)
        loss = (t.detach() * t).sum()
        loss.backward()
        np.testing.assert_allclose(t.grad, np.ones(2))

    def test_item_and_numpy(self):
        t = Tensor(3.5)
        assert t.item() == 3.5
        assert t.numpy().shape == ()

    def test_shared_node_gradient_counted_once_per_path(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        y = t * t  # dy/dt = 2t = 4
        z = y + y  # dz/dt = 8
        z.sum().backward()
        np.testing.assert_allclose(t.grad, [8.0])

    def test_only_leaves_keep_a_gradient(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        y = t * 3.0
        loss = (y * y).sum()
        loss.backward()
        assert y.grad is None and loss.grad is None
        np.testing.assert_allclose(t.grad, 18.0 * t.data)

    def test_ndarray_on_the_left_defers_to_the_tensor(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        left = np.array([3.0, 5.0])
        for result in (left * t, left + t, left - t, left / t):
            assert isinstance(result, Tensor)
        (left * t + left / t - left).sum().backward()
        np.testing.assert_allclose(t.grad, left - left / t.data**2)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_sum_grad_is_ones(self, rows, cols):
        t = Tensor(np.random.default_rng(0).normal(size=(rows, cols)), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((rows, cols)))
