"""Feed-forward building blocks: Linear, activations, Dropout, Sequential, MLP.

The paper initialises every fully-connected layer with Gaussian noise of
standard deviation 0.01 and stacks ``Linear -> ReLU`` blocks (``Qf``, ``Qe``,
``Qe'`` and ``Qc`` layers deep in the featurizer, embeddings and judge); these
classes provide exactly those pieces.

``Linear``, ``ReLU``, ``Dropout``, ``Sequential`` and ``MLP`` accept either
a ``Tensor`` or an ``ndarray`` and return the same kind, through the
type-dispatching ops of :mod:`repro.nn.autograd`.  Inside
:func:`repro.nn.autograd.inference_mode` :meth:`MLP.forward` hands its layers
the plain array, so serving runs the same NumPy ops in the same order on
``param.data`` read at call time: outputs are bit-identical to the ``Tensor``
path with no autograd bookkeeping and nothing to invalidate after training.
Dropout is skipped in that mode.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.autograd import Tensor, is_inference_mode, lift, read, relu
from repro.nn.module import Module, Parameter


class Linear(Module):
    """A dense layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    init_std:
        Standard deviation of the Gaussian initialiser.  ``None`` (default)
        uses the fan-in-scaled He value ``sqrt(2 / in_features)``; the paper's
        fixed 0.01 remains available by passing it explicitly.
    rng:
        Source of randomness; pass a seeded generator for reproducibility.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        if init_std is None:
            init_std = float(np.sqrt(2.0 / in_features))
        self.weight = Parameter(rng.normal(0.0, init_std, size=(in_features, out_features)))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x):
        return x @ read(self.weight, x) + read(self.bias, x)


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x):
        return relu(x)


class Sigmoid(Module):
    """Logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Dropout(Module):
    """Inverted dropout; active only in training mode.

    The paper keeps units with probability 0.8 at the LSTM layer and before
    every fully-connected layer during training, and disables dropout at test
    time.
    """

    def __init__(self, keep_prob: float = 0.8, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 < keep_prob <= 1.0:
            raise ValueError("keep_prob must be in (0, 1]")
        self.keep_prob = keep_prob
        self._rng = rng or np.random.default_rng()

    def forward(self, x):
        if not self.training or self.keep_prob >= 1.0 or is_inference_mode():
            return x
        mask = (self._rng.random(x.shape) < self.keep_prob).astype(np.float64) / self.keep_prob
        return x * lift(mask, x)


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x):
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)


class MLP(Module):
    """A stack of ``Linear -> ReLU`` blocks with optional dropout.

    ``hidden_sizes`` lists the output size of every layer; ReLU follows each
    layer except (optionally) the last — the paper's classifier heads end in a
    linear layer feeding a softmax/sigmoid, while its embedding stacks apply
    ReLU throughout.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        final_activation: bool = True,
        keep_prob: float = 1.0,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if not hidden_sizes:
            raise ValueError("MLP needs at least one layer size")
        rng = rng or np.random.default_rng()
        layers: list[Module] = []
        previous = in_features
        for i, size in enumerate(hidden_sizes):
            if keep_prob < 1.0:
                layers.append(Dropout(keep_prob, rng=rng))
            layers.append(Linear(previous, size, init_std=init_std, rng=rng))
            is_last = i == len(hidden_sizes) - 1
            if final_activation or not is_last:
                layers.append(ReLU())
            previous = size
        self.net = Sequential(*layers)
        self.out_features = hidden_sizes[-1]

    def forward(self, x):
        """Run the stack; inside inference mode a ``Tensor`` input runs as its array."""
        if is_inference_mode() and isinstance(x, Tensor):
            return Tensor(self.net(x.data))
        return self.net(x)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Differentiable L2 normalisation along ``axis`` (the paper's ``normalize``).

    Uses only operators a plain ``np.ndarray`` shares with :class:`Tensor`, so
    it normalises arrays too, with the same result.
    """
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps) ** 0.5
    return x / norm

