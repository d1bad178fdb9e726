"""Recurrent layers: LSTM cell, LSTM, bidirectional LSTM and a 1-D ConvLSTM.

The paper encodes the word-vector sequence of a recent tweet with a
bidirectional LSTM (plus a convolution layer on top — ``BiLSTM-C``, see
:mod:`repro.nn.conv`), and compares against a plain ``BLSTM`` variant and a
``ConvLSTM`` variant whose input-to-state and state-to-state transitions are
convolutions.

Every layer offers two paths:

* ``forward`` — the scalar reference path over one ``(T, M)`` sequence,
  kept as the documented ground truth for the equivalence tests.
* ``forward_batch`` — the batch path over a right-padded ``(B, T, M)`` batch
  with a per-row length vector.  Each time step runs one fused gate matmul of
  shape ``(B, 4N)`` instead of ``B`` separate ``(1, 4N)`` calls, and rows
  whose sequence has ended keep (forward direction) or have not yet started
  (backward direction) a frozen state, so per-row outputs at valid positions
  match the scalar path within 1e-9 (``tests/nn/test_recurrent_batch.py`` and
  ``tests/features/test_content_batch.py`` pin the contract).  It is written
  once over the type-dispatching ops of :mod:`repro.nn.autograd`: training
  passes a ``Tensor`` and gets the autograd graph, serving passes an
  ``ndarray`` and runs the same NumPy ops in the same order with no
  ``Tensor`` built per step, so the two are bit-identical by construction
  (``tests/nn/test_inference_twins.py`` pins exact equality).

Positions at or beyond a row's length carry frozen/zero filler states; callers
must mask them out when pooling (see :mod:`repro.nn.pooling`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.nn.autograd import Tensor, concatenate, lift, read, sigmoid, stack, tanh
from repro.nn.module import Module, Parameter


def time_mask(lengths: np.ndarray, steps: int) -> np.ndarray:
    """The ``(B, steps)`` validity mask of right-padded sequences.

    ``mask[b, t]`` is 1.0 iff ``t < lengths[b]``; lengths clip at zero so a
    shortened length vector (e.g. conv-output lengths ``L - kh + 1``) is safe.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)


def masked_state(new, old, column: np.ndarray):
    """Blend one recurrent-state update by a ``(B,)`` validity column.

    Rows with column 1.0 advance to ``new``; rows with 0.0 keep ``old`` — the
    state freeze that makes right-padded batches match the scalar recurrence
    at every valid position.  ``new`` and ``old`` are both ``Tensor``s or both
    arrays.  Callers skip the blend on all-valid steps (see :func:`run_masked`).
    """
    keep = column[:, None]
    return new * keep + old * (1.0 - keep)


def run_masked(step, sequence, lengths: np.ndarray, states: tuple, reverse: bool = False):
    """Step a recurrence over a right-padded ``(B, T, M)`` batch, freezing finished rows.

    ``step(x_t, *states)`` returns the next states, the first of which is the
    output.  All-valid steps are found once per sequence and skip the
    :func:`masked_state` blend.  Returns the ``(B, T, hidden)`` outputs.
    """
    steps = sequence.shape[1]
    mask = time_mask(lengths, steps)
    all_valid = mask.all(axis=0).tolist()
    outputs = [None] * steps
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        advanced = step(sequence[:, t, :], *states)
        if all_valid[t]:
            states = advanced
        else:
            states = tuple(masked_state(new, old, mask[:, t]) for new, old in zip(advanced, states))
        outputs[t] = states[0]
    return stack(outputs, axis=1)


def lstm_step(w_x, w_h, bias, x, h, c):
    """One LSTM step on parameters already read as the kind of ``x`` (see :func:`read`)."""
    gates = x @ w_x + h @ w_h + bias
    n = bias.shape[-1] // 4
    i_gate = sigmoid(gates[..., 0:n])
    f_gate = sigmoid(gates[..., n : 2 * n])
    g_gate = tanh(gates[..., 2 * n : 3 * n])
    o_gate = sigmoid(gates[..., 3 * n : 4 * n])
    c_next = f_gate * c + i_gate * g_gate
    h_next = o_gate * tanh(c_next)
    return h_next, c_next


class LSTMCell(Module):
    """A single LSTM step with the standard gate formulation."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        std_x = init_std if init_std is not None else float(np.sqrt(1.0 / input_size))
        std_h = init_std if init_std is not None else float(np.sqrt(1.0 / hidden_size))
        # One fused weight matrix for the four gates: input, forget, cell, output.
        self.weight_x = Parameter(rng.normal(0.0, std_x, size=(input_size, 4 * hidden_size)))
        self.weight_h = Parameter(rng.normal(0.0, std_h, size=(hidden_size, 4 * hidden_size)))
        self.bias = Parameter(np.zeros(4 * hidden_size))

    def params_like(self, x) -> tuple:
        """``(weight_x, weight_h, bias)`` read as the kind of ``x``."""
        return read(self.weight_x, x), read(self.weight_h, x), read(self.bias, x)

    def forward(self, x, h, c):
        """One step: ``x`` is ``(input_size,)``, ``(1, input_size)`` or ``(B, input_size)``."""
        return lstm_step(*self.params_like(x), x, h, c)


class LSTM(Module):
    """Unidirectional LSTM over a ``(T, input_size)`` sequence.

    Returns the ``(T, hidden_size)`` sequence of hidden states.  The initial
    state is zero, matching the paper's initialisation.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, init_std=init_std, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor, reverse: bool = False) -> Tensor:
        steps = sequence.shape[0]
        h = Tensor(np.zeros((1, self.hidden_size)))
        c = Tensor(np.zeros((1, self.hidden_size)))
        order = range(steps - 1, -1, -1) if reverse else range(steps)
        outputs: list[Tensor] = [None] * steps  # type: ignore[list-item]
        for t in order:
            x_t = sequence[t : t + 1, :]
            h, c = self.cell(x_t, h, c)
            outputs[t] = h
        return concatenate(outputs, axis=0)

    def forward_batch(self, sequence, lengths: np.ndarray, reverse: bool = False):
        """Run the recurrence over a right-padded ``(B, T, input_size)`` batch.

        Returns the ``(B, T, hidden_size)`` hidden states, of the same kind
        as ``sequence``.  Rows shorter than ``T`` freeze their state once
        past ``lengths[b]`` (forward) or stay at the zero initial state until
        entering the valid region (backward), so outputs at valid positions
        match :meth:`forward` row by row; outputs at padded positions are
        filler the caller must mask out.
        """
        zero = lift(np.zeros((sequence.shape[0], self.hidden_size)), sequence)
        # Parameters are read once per sequence, not once per step.
        step = partial(lstm_step, *self.cell.params_like(sequence))
        return run_masked(step, sequence, lengths, (zero, zero), reverse=reverse)


class BiLSTM(Module):
    """Bidirectional LSTM; concatenates forward and backward hidden states.

    Output shape is ``(T, 2 * hidden_size)`` when ``stacked_channels`` is False
    (the plain ``BLSTM`` baseline) and ``(T, hidden_size, 2)`` when True (the
    2-channel "image" the BiLSTM-C convolution consumes).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng()
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.forward_layers = []
        self.backward_layers = []
        current = input_size
        for _ in range(num_layers):
            self.forward_layers.append(LSTM(current, hidden_size, init_std=init_std, rng=rng))
            self.backward_layers.append(LSTM(current, hidden_size, init_std=init_std, rng=rng))
            current = 2 * hidden_size

    def forward(self, sequence: Tensor, stacked_channels: bool = False) -> Tensor:
        current = sequence
        fwd = bwd = None
        for fwd_layer, bwd_layer in zip(self.forward_layers, self.backward_layers):
            fwd = fwd_layer(current)
            bwd = bwd_layer(current, reverse=True)
            current = concatenate([fwd, bwd], axis=1)
        assert fwd is not None and bwd is not None
        if stacked_channels:
            return stack([fwd, bwd], axis=2)
        return current

    def forward_batch(self, sequence, lengths: np.ndarray, stacked_channels: bool = False):
        """Batched bidirectional pass over a right-padded ``(B, T, M)`` batch.

        Output shape is ``(B, T, 2 * hidden_size)`` (or ``(B, T, hidden_size,
        2)`` with ``stacked_channels``); valid positions match :meth:`forward`.
        """
        current = sequence
        fwd = bwd = None
        for fwd_layer, bwd_layer in zip(self.forward_layers, self.backward_layers):
            fwd = fwd_layer.forward_batch(current, lengths)
            bwd = bwd_layer.forward_batch(current, lengths, reverse=True)
            current = concatenate([fwd, bwd], axis=2)
        assert fwd is not None and bwd is not None
        if stacked_channels:
            return stack([fwd, bwd], axis=3)
        return current


class ConvLSTMCell(Module):
    """A 1-D ConvLSTM cell (Shi et al., 2015) over the feature dimension.

    Input-to-state and state-to-state transitions are 1-D convolutions along
    the word-vector dimension, so each position of the hidden state only mixes
    nearby embedding dimensions.  This is the ``ConvLSTM`` baseline of Table 3.
    """

    def __init__(
        self,
        width: int,
        kernel_size: int = 3,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd so padding keeps the width")
        rng = rng or np.random.default_rng()
        self.width = width
        self.kernel_size = kernel_size
        if init_std is None:
            init_std = float(np.sqrt(1.0 / kernel_size))
        self.weight_x = Parameter(rng.normal(0.0, init_std, size=(4, kernel_size)))
        self.weight_h = Parameter(rng.normal(0.0, init_std, size=(4, kernel_size)))
        self.bias = Parameter(np.zeros((4, width)))

    def _conv1d(self, signal: Tensor, kernel_row: Tensor) -> Tensor:
        """Same-padded 1-D convolution of a ``(width,)`` signal with a small kernel."""
        pad = self.kernel_size // 2
        padded = concatenate(
            [Tensor(np.zeros(pad)), signal, Tensor(np.zeros(pad))], axis=0
        )
        taps = []
        for k in range(self.kernel_size):
            taps.append(padded[k : k + self.width] * kernel_row[k])
        out = taps[0]
        for tap in taps[1:]:
            out = out + tap
        return out

    def _conv1d_batch(self, signal, kernel_row):
        """Same-padded 1-D convolution of every row of a ``(B, width)`` signal.

        Tap order and per-element arithmetic mirror :meth:`_conv1d`, so each
        row equals the scalar convolution of that row exactly.
        """
        pad = self.kernel_size // 2
        zeros = lift(np.zeros((signal.shape[0], pad)), signal)
        padded = concatenate([zeros, signal, zeros], axis=1)
        taps = [padded[:, k : k + self.width] * kernel_row[k] for k in range(self.kernel_size)]
        out = taps[0]
        for tap in taps[1:]:
            out = out + tap
        return out

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One step over a ``(width,)`` input."""
        i_gate = (self._conv1d(x, self.weight_x[0]) + self._conv1d(h, self.weight_h[0]) + self.bias[0]).sigmoid()
        f_gate = (self._conv1d(x, self.weight_x[1]) + self._conv1d(h, self.weight_h[1]) + self.bias[1]).sigmoid()
        g_gate = (self._conv1d(x, self.weight_x[2]) + self._conv1d(h, self.weight_h[2]) + self.bias[2]).tanh()
        o_gate = (self._conv1d(x, self.weight_x[3]) + self._conv1d(h, self.weight_h[3]) + self.bias[3]).sigmoid()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next

    def forward_batch(self, x, h, c):
        """One step over a ``(B, width)`` input with ``(B, width)`` states."""
        conv = self._conv1d_batch
        w_x, w_h, bias = read(self.weight_x, x), read(self.weight_h, x), read(self.bias, x)
        i_gate = sigmoid(conv(x, w_x[0]) + conv(h, w_h[0]) + bias[0])
        f_gate = sigmoid(conv(x, w_x[1]) + conv(h, w_h[1]) + bias[1])
        g_gate = tanh(conv(x, w_x[2]) + conv(h, w_h[2]) + bias[2])
        o_gate = sigmoid(conv(x, w_x[3]) + conv(h, w_h[3]) + bias[3])
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * tanh(c_next)
        return h_next, c_next


class ConvLSTM(Module):
    """Runs a :class:`ConvLSTMCell` over a ``(T, width)`` sequence."""

    def __init__(
        self,
        width: int,
        kernel_size: int = 3,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.cell = ConvLSTMCell(width, kernel_size=kernel_size, init_std=init_std, rng=rng)
        self.width = width

    def forward(self, sequence: Tensor) -> Tensor:
        steps = sequence.shape[0]
        h = Tensor(np.zeros(self.width))
        c = Tensor(np.zeros(self.width))
        outputs = []
        for t in range(steps):
            h, c = self.cell(sequence[t], h, c)
            outputs.append(h.reshape(1, self.width))
        return concatenate(outputs, axis=0)

    def forward_batch(self, sequence, lengths: np.ndarray):
        """Run the ConvLSTM over a right-padded ``(B, T, width)`` batch.

        Returns ``(B, T, width)`` states of the same kind as ``sequence``;
        rows freeze once past ``lengths[b]`` so valid positions match
        :meth:`forward` and padded positions are filler the caller must mask
        out.
        """
        zero = lift(np.zeros((sequence.shape[0], self.width)), sequence)
        return run_masked(self.cell.forward_batch, sequence, lengths, (zero, zero))
