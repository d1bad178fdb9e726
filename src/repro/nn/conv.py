"""Convolution layers used by the BiLSTM-C content encoder.

The paper stacks a convolution on top of the bidirectional LSTM: the forward
and backward hidden-state sequences form a ``T x N x 2`` tensor viewed as a
2-channel image, a ``3 x N`` filter (spanning both channels) plus a ReLU
produce a ``(T-2) x N`` feature map, and the mean over the first dimension is
the fixed ``N``-dimensional content feature ``Fc(r)``.

:class:`Conv2D` is a general valid-mode 2-D convolution over ``(H, W, C_in)``
inputs; :class:`TemporalConv` is the specific "3-row filter bank over time"
instantiation the featurizer uses.  Their ``forward_batch`` is written once
over the type-dispatching ops of :mod:`repro.nn.autograd`: a ``Tensor`` batch
(training) and an ``ndarray`` batch (serving) run the same NumPy ops.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor, concatenate, read
from repro.nn.module import Module, Parameter


class Conv2D(Module):
    """Valid-mode 2-D convolution for channels-last inputs ``(H, W, C_in)``.

    The output has shape ``(H - kh + 1, W - kw + 1, out_channels)``.
    :meth:`forward`, the scalar reference, loops over output positions;
    :meth:`forward_batch` is one GEMM over all of them.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_height: int,
        kernel_width: int,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if min(in_channels, out_channels, kernel_height, kernel_width) <= 0:
            raise ValueError("convolution dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_height = kernel_height
        self.kernel_width = kernel_width
        fan_in = kernel_height * kernel_width * in_channels
        if init_std is None:
            init_std = float(np.sqrt(2.0 / fan_in))
        self.weight = Parameter(rng.normal(0.0, init_std, size=(fan_in, out_channels)))
        self.bias = Parameter(np.zeros(out_channels))

    def _output_size(self, height: int, width: int, channels: int) -> tuple[int, int]:
        """The valid-mode ``(H', W')`` of an input, after checking it fits."""
        if channels != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {channels}")
        out_h = height - self.kernel_height + 1
        out_w = width - self.kernel_width + 1
        if out_h <= 0 or out_w <= 0:
            raise ValueError(
                "input is smaller than the kernel: "
                f"({height}, {width}) vs ({self.kernel_height}, {self.kernel_width})"
            )
        return out_h, out_w

    def forward(self, image: Tensor) -> Tensor:
        height, width, channels = image.shape
        out_h, out_w = self._output_size(height, width, channels)
        rows = []
        for i in range(out_h):
            cols = []
            for j in range(out_w):
                patch = image[i : i + self.kernel_height, j : j + self.kernel_width, :]
                flat = patch.reshape(1, self.kernel_height * self.kernel_width * channels)
                cols.append(flat @ self.weight + self.bias)
            row = concatenate(cols, axis=0).reshape(1, out_w, self.out_channels)
            rows.append(row)
        return concatenate(rows, axis=0)

    def forward_batch(self, images):
        """Convolve a ``(B, H, W, C_in)`` batch into ``(B, H', W', C_out)``.

        One GEMM over every output position of every image (im2col): the
        ``B * H' * W'`` patches are laid out as the rows of one
        ``(B * H' * W', fan_in)`` matrix, in the ``(kh, kw, C_in)`` order of
        the weight, which meets the ``(fan_in, C_out)`` weight once; the bias
        is added once to the result.  Each row matches :meth:`forward` within
        1e-9.
        """
        batch, height, width, channels = images.shape
        out_h, out_w = self._output_size(height, width, channels)
        kh, kw = self.kernel_height, self.kernel_width
        # One (kw, C_in) window per output column, then the kh row taps:
        # out_w + kh slices, not kh * kw (TemporalConv's full-width filter has
        # a single output column, so its window is the whole image row).
        columns = concatenate(
            [
                images[:, :, j : j + kw].reshape(batch, height, 1, kw * channels)
                for j in range(out_w)
            ],
            axis=2,
        )
        patches = concatenate([columns[:, r : r + out_h] for r in range(kh)], axis=3)
        flat = patches.reshape(batch * out_h * out_w, kh * kw * channels)
        grid = flat @ read(self.weight, images) + read(self.bias, images)
        return grid.reshape(batch, out_h, out_w, self.out_channels)


class TemporalConv(Module):
    """The BiLSTM-C convolution: a full-width, height-3 filter bank over time.

    Consumes the ``(T, N, 2)`` stacked hidden states, applies ``N`` filters of
    shape ``3 x N x 2`` in valid mode and returns the ``(T-2, N)`` feature map
    (before the ReLU + mean pooling done by the content encoder).
    """

    def __init__(
        self,
        width: int,
        kernel_height: int = 3,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.width = width
        self.kernel_height = kernel_height
        self.conv = Conv2D(
            in_channels=2,
            out_channels=width,
            kernel_height=kernel_height,
            kernel_width=width,
            init_std=init_std,
            rng=rng,
        )

    def forward(self, stacked_states: Tensor) -> Tensor:
        steps, width, channels = stacked_states.shape
        if width != self.width or channels != 2:
            raise ValueError(f"expected (T, {self.width}, 2) input, got {stacked_states.shape}")
        feature_map = self.conv(stacked_states)  # (T - kh + 1, 1, width)
        out_h = steps - self.kernel_height + 1
        return feature_map.reshape(out_h, self.width)

    def forward_batch(self, stacked_states):
        """Convolve a ``(B, T, N, 2)`` batch of stacked states into ``(B, T - kh + 1, N)``."""
        batch, steps, width, channels = stacked_states.shape
        if width != self.width or channels != 2:
            raise ValueError(f"expected (B, T, {self.width}, 2) input, got {stacked_states.shape}")
        feature_map = self.conv.forward_batch(stacked_states)  # (B, T - kh + 1, 1, width)
        return feature_map.reshape(batch, steps - self.kernel_height + 1, self.width)
