"""Gradient checking of the autodiff engine against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import MLP, BiLSTM, Linear, TemporalConv, Tensor
from repro.nn.gradcheck import (
    check_module_gradients,
    check_tensor_gradient,
    max_gradient_error,
    numerical_gradient,
)
from repro.nn.losses import binary_cross_entropy_with_logits, softmax_cross_entropy

TOLERANCE = 1e-5


class TestNumericalGradient:
    def test_quadratic(self):
        value = np.array([1.0, -2.0, 3.0])
        grad = numerical_gradient(lambda x: float(np.sum(x**2)), value)
        np.testing.assert_allclose(grad, 2 * value, atol=1e-6)


class TestTensorGradients:
    def test_elementwise_chain(self):
        value = np.array([[0.3, -0.7], [1.2, 0.05]])
        error = max_gradient_error(lambda t: (t.tanh() * t.sigmoid()).sum(), value)
        assert error < TOLERANCE

    def test_matmul_and_relu(self):
        rng = np.random.default_rng(0)
        weight = Tensor(rng.normal(size=(3, 2)))
        value = rng.normal(size=(4, 3))
        error = max_gradient_error(lambda t: (t @ weight).relu().sum(), value)
        assert error < TOLERANCE

    def test_division_and_log(self):
        value = np.array([0.5, 1.5, 2.5])
        error = max_gradient_error(lambda t: ((t + 1.0).log() / 2.0).sum(), value)
        assert error < TOLERANCE

    def test_analytic_matches_numerical_shapes(self):
        value = np.arange(6, dtype=float).reshape(2, 3) / 10.0
        analytic, numerical = check_tensor_gradient(lambda t: (t * t).sum(), value)
        assert analytic.shape == numerical.shape == value.shape

    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=2, max_size=6)
    )
    @settings(max_examples=25, deadline=None)
    def test_sum_of_exp_property(self, values):
        value = np.array(values)
        error = max_gradient_error(lambda t: t.exp().sum(), value)
        assert error < 1e-4


class TestModuleGradients:
    def test_linear_layer(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 2, rng=rng)
        inputs = Tensor(rng.normal(size=(5, 4)))
        targets = np.array([0, 1, 1, 0, 1], dtype=np.float64)

        def loss_fn(module):
            logits = module(inputs).sum(axis=-1)
            return binary_cross_entropy_with_logits(logits, targets)

        errors = check_module_gradients(layer, loss_fn)
        assert errors, "expected at least one parameter checked"
        assert max(errors.values()) < 1e-4

    def test_mlp_with_cross_entropy(self):
        rng = np.random.default_rng(5)
        mlp = MLP(3, [4, 3], final_activation=False, rng=rng)
        mlp.eval()  # disable dropout so the loss is deterministic
        inputs = Tensor(rng.normal(size=(6, 3)))
        labels = rng.integers(0, 3, size=6)

        def loss_fn(module):
            return softmax_cross_entropy(module(inputs), labels)

        errors = check_module_gradients(mlp, loss_fn)
        assert max(errors.values()) < 1e-4


class TestBatchKernelGradients:
    """Finite differences for the training half of the one batch definitions.

    The served arrays equal the ``Tensor`` outputs exactly (see
    ``test_inference_twins.py``); these checks pin that the graph those
    ``Tensor`` outputs carry differentiates correctly, with respect to the
    input batch and every parameter, on ragged batches.
    """

    LENGTHS = np.array([4, 2, 3])  # two rows shorter than T

    @staticmethod
    def weighted_sum(out, seed):
        """A scalar loss that weighs every output element differently."""
        return (out * np.random.default_rng(seed).normal(size=out.shape)).sum()

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_bilstm_forward_batch(self, num_layers, stacked):
        rng = np.random.default_rng(7)
        bilstm = BiLSTM(3, 2, num_layers=num_layers, rng=rng)
        batch = rng.normal(size=(3, 4, 3))
        batch[1, 2:] = batch[2, 3:] = 0.0  # right padding

        def forward(sequence):
            out = bilstm.forward_batch(sequence, self.LENGTHS, stacked_channels=stacked)
            return self.weighted_sum(out, 11)

        errors = check_module_gradients(bilstm, lambda module: forward(Tensor(batch)))
        assert len(errors) == 6 * num_layers
        assert max(errors.values()) < 1e-6
        assert max_gradient_error(forward, batch) < 1e-6

    def test_temporal_conv_forward_batch(self):
        rng = np.random.default_rng(8)
        conv = TemporalConv(width=3, kernel_height=3, rng=rng)
        stacked = rng.normal(size=(2, 5, 3, 2))

        def forward(states):
            return self.weighted_sum(conv.forward_batch(states).relu(), 12)

        errors = check_module_gradients(conv, lambda module: forward(Tensor(stacked)))
        assert set(errors) == {"conv.weight", "conv.bias"}
        assert max(errors.values()) < 1e-6
        assert max_gradient_error(forward, stacked) < 1e-6
