"""Recurrent layers: LSTM cell, LSTM, bidirectional LSTM and a 1-D ConvLSTM.

The paper encodes the word-vector sequence of a recent tweet with a
bidirectional LSTM (plus a convolution layer on top — ``BiLSTM-C``, see
:mod:`repro.nn.conv`), and compares against a plain ``BLSTM`` variant and a
``ConvLSTM`` variant whose input-to-state and state-to-state transitions are
convolutions.

Every layer offers three paths:

* ``forward`` — the scalar reference path over one ``(T, M)`` sequence,
  kept as the documented ground truth for the equivalence tests.
* ``forward_batch`` — the training hot path over a right-padded
  ``(B, T, M)`` batch with a per-row length vector.  Each time step runs one
  fused gate matmul of shape ``(B, 4N)`` instead of ``B`` separate ``(1, 4N)``
  calls, and rows whose sequence has ended keep (forward direction) or have
  not yet started (backward direction) a frozen state, so per-row outputs at
  valid positions match the scalar path within 1e-9
  (``tests/nn/test_recurrent_batch.py`` and
  ``tests/features/test_content_batch.py`` pin the contract).
* ``infer_batch`` — the serving path: the plain-NumPy twin of
  ``forward_batch``.  It runs the same NumPy ops in the same order on
  ``param.data`` read at call time, so its outputs are bit-identical to
  ``forward_batch`` without building ``Tensor`` objects or an autograd graph
  (``tests/nn/test_inference_twins.py`` pins exact equality).

Positions at or beyond a row's length carry frozen/zero filler states; callers
must mask them out when pooling (see :mod:`repro.nn.pooling`).
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor, concatenate, sigmoid_array, stack
from repro.nn.module import Module, Parameter


def time_mask(lengths: np.ndarray, steps: int) -> np.ndarray:
    """The ``(B, steps)`` validity mask of right-padded sequences.

    ``mask[b, t]`` is 1.0 iff ``t < lengths[b]``; lengths clip at zero so a
    shortened length vector (e.g. conv-output lengths ``L - kh + 1``) is safe.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    return (np.arange(steps)[None, :] < lengths[:, None]).astype(np.float64)


def masked_state(new: Tensor, old: Tensor, column: np.ndarray) -> Tensor:
    """Blend one recurrent-state update by a ``(B,)`` validity column.

    Rows with column 1.0 advance to ``new``; rows with 0.0 keep ``old`` — the
    state freeze that makes right-padded batches match the scalar recurrence
    at every valid position.  An all-valid column skips the blend graph.
    """
    if column.all():
        return new
    keep = Tensor(column[:, None])
    return new * keep + old * Tensor(1.0 - column[:, None])


def masked_state_array(new: np.ndarray, old: np.ndarray, column: np.ndarray) -> np.ndarray:
    """Plain-NumPy twin of :func:`masked_state`."""
    if column.all():
        return new
    return new * column[:, None] + old * (1.0 - column[:, None])


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

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One step: ``x`` is ``(input_size,)`` (or ``(1, input_size)``) shaped."""
        gates = x @ self.weight_x + h @ self.weight_h + self.bias
        n = self.hidden_size
        i_gate = gates[..., 0:n].sigmoid()
        f_gate = gates[..., n : 2 * n].sigmoid()
        g_gate = gates[..., 2 * n : 3 * n].tanh()
        o_gate = gates[..., 3 * n : 4 * n].sigmoid()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next

    def infer(self, x: np.ndarray, h: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Plain-NumPy twin of :meth:`forward`."""
        gates = x @ self.weight_x.data + h @ self.weight_h.data + self.bias.data
        n = self.hidden_size
        i_gate = sigmoid_array(gates[..., 0:n])
        f_gate = sigmoid_array(gates[..., n : 2 * n])
        g_gate = np.tanh(gates[..., 2 * n : 3 * n])
        o_gate = sigmoid_array(gates[..., 3 * n : 4 * n])
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * np.tanh(c_next)
        return h_next, c_next


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

    def forward_batch(self, sequence: Tensor, lengths: np.ndarray, reverse: bool = False) -> Tensor:
        """Run the recurrence over a right-padded ``(B, T, input_size)`` batch.

        Returns the ``(B, T, hidden_size)`` hidden states.  Rows shorter than
        ``T`` freeze their state once past ``lengths[b]`` (forward) or stay at
        the zero initial state until entering the valid region (backward), so
        outputs at valid positions match :meth:`forward` row by row; outputs
        at padded positions are filler the caller must mask out.
        """
        batch, steps = sequence.shape[0], sequence.shape[1]
        h = Tensor(np.zeros((batch, self.hidden_size)))
        c = Tensor(np.zeros((batch, self.hidden_size)))
        mask = time_mask(lengths, steps)
        order = range(steps - 1, -1, -1) if reverse else range(steps)
        outputs: list[Tensor] = [None] * steps  # type: ignore[list-item]
        for t in order:
            h_next, c_next = self.cell(sequence[:, t, :], h, c)
            column = mask[:, t]
            h = masked_state(h_next, h, column)
            c = masked_state(c_next, c, column)
            outputs[t] = h
        return stack(outputs, axis=1)

    def infer_batch(
        self, sequence: np.ndarray, lengths: np.ndarray, reverse: bool = False
    ) -> np.ndarray:
        """Plain-NumPy twin of :meth:`forward_batch`.

        States are written straight into the ``(B, T, hidden)`` output and
        all-valid steps are found once up front (one ``mask.all`` per
        sequence instead of two ``column.all()`` calls per step inside
        :func:`masked_state_array`, which is measurably faster on the
        all-valid short batches serving sees); neither changes a value.
        """
        batch, steps = sequence.shape[0], sequence.shape[1]
        h = np.zeros((batch, self.hidden_size))
        c = np.zeros((batch, self.hidden_size))
        mask = time_mask(lengths, steps)
        all_valid = mask.all(axis=0).tolist()
        outputs = np.empty((batch, steps, self.hidden_size))
        for t in range(steps - 1, -1, -1) if reverse else range(steps):
            h_next, c_next = self.cell.infer(sequence[:, t, :], h, c)
            if all_valid[t]:
                h, c = h_next, c_next
            else:
                h = masked_state_array(h_next, h, mask[:, t])
                c = masked_state_array(c_next, c, mask[:, t])
            outputs[:, t] = h
        return outputs


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

    def forward_batch(
        self, sequence: Tensor, lengths: np.ndarray, stacked_channels: bool = False
    ) -> Tensor:
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

    def infer_batch(
        self, sequence: np.ndarray, lengths: np.ndarray, stacked_channels: bool = False
    ) -> np.ndarray:
        """Plain-NumPy twin of :meth:`forward_batch`."""
        current = sequence
        fwd = bwd = None
        for fwd_layer, bwd_layer in zip(self.forward_layers, self.backward_layers):
            fwd = fwd_layer.infer_batch(current, lengths)
            bwd = bwd_layer.infer_batch(current, lengths, reverse=True)
            current = np.concatenate([fwd, bwd], axis=2)
        assert fwd is not None and bwd is not None
        if stacked_channels:
            return np.stack([fwd, bwd], axis=3)
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

    def _conv1d_batch(self, signal: Tensor, kernel_row: Tensor) -> Tensor:
        """Same-padded 1-D convolution of every row of a ``(B, width)`` signal.

        Tap order and per-element arithmetic mirror :meth:`_conv1d`, so each
        row equals the scalar convolution of that row exactly.
        """
        pad = self.kernel_size // 2
        zeros = Tensor(np.zeros((signal.shape[0], pad)))
        padded = concatenate([zeros, signal, zeros], axis=1)
        taps = []
        for k in range(self.kernel_size):
            taps.append(padded[:, k : k + self.width] * kernel_row[k])
        out = taps[0]
        for tap in taps[1:]:
            out = out + tap
        return out

    def _conv1d_infer(self, signal: np.ndarray, kernel_row: np.ndarray) -> np.ndarray:
        """Plain-NumPy twin of :meth:`_conv1d_batch`."""
        pad = self.kernel_size // 2
        zeros = np.zeros((signal.shape[0], pad))
        padded = np.concatenate([zeros, signal, zeros], axis=1)
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

    def forward_batch(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One step over a ``(B, width)`` input with ``(B, width)`` states."""
        conv = self._conv1d_batch
        i_gate = (conv(x, self.weight_x[0]) + conv(h, self.weight_h[0]) + self.bias[0]).sigmoid()
        f_gate = (conv(x, self.weight_x[1]) + conv(h, self.weight_h[1]) + self.bias[1]).sigmoid()
        g_gate = (conv(x, self.weight_x[2]) + conv(h, self.weight_h[2]) + self.bias[2]).tanh()
        o_gate = (conv(x, self.weight_x[3]) + conv(h, self.weight_h[3]) + self.bias[3]).sigmoid()
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next

    def infer_batch(
        self, x: np.ndarray, h: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Plain-NumPy twin of :meth:`forward_batch`."""
        conv = self._conv1d_infer
        w_x, w_h, bias = self.weight_x.data, self.weight_h.data, self.bias.data
        i_gate = sigmoid_array(conv(x, w_x[0]) + conv(h, w_h[0]) + bias[0])
        f_gate = sigmoid_array(conv(x, w_x[1]) + conv(h, w_h[1]) + bias[1])
        g_gate = np.tanh(conv(x, w_x[2]) + conv(h, w_h[2]) + bias[2])
        o_gate = sigmoid_array(conv(x, w_x[3]) + conv(h, w_h[3]) + bias[3])
        c_next = f_gate * c + i_gate * g_gate
        h_next = o_gate * np.tanh(c_next)
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

    def forward_batch(self, sequence: Tensor, lengths: np.ndarray) -> Tensor:
        """Run the ConvLSTM over a right-padded ``(B, T, width)`` batch.

        Returns ``(B, T, width)`` states; rows freeze once past ``lengths[b]``
        so valid positions match :meth:`forward` and padded positions are
        filler the caller must mask out.
        """
        batch, steps = sequence.shape[0], sequence.shape[1]
        h = Tensor(np.zeros((batch, self.width)))
        c = Tensor(np.zeros((batch, self.width)))
        mask = time_mask(lengths, steps)
        outputs = []
        for t in range(steps):
            h_next, c_next = self.cell.forward_batch(sequence[:, t, :], h, c)
            column = mask[:, t]
            h = masked_state(h_next, h, column)
            c = masked_state(c_next, c, column)
            outputs.append(h)
        return stack(outputs, axis=1)

    def infer_batch(self, sequence: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Plain-NumPy twin of :meth:`forward_batch` (see :meth:`LSTM.infer_batch`)."""
        batch, steps = sequence.shape[0], sequence.shape[1]
        h = np.zeros((batch, self.width))
        c = np.zeros((batch, self.width))
        mask = time_mask(lengths, steps)
        all_valid = mask.all(axis=0).tolist()
        outputs = np.empty((batch, steps, self.width))
        for t in range(steps):
            h_next, c_next = self.cell.infer_batch(sequence[:, t, :], h, c)
            if all_valid[t]:
                h, c = h_next, c_next
            else:
                h = masked_state_array(h_next, h, mask[:, t])
                c = masked_state_array(c_next, c, mask[:, t])
            outputs[:, t] = h
        return outputs
