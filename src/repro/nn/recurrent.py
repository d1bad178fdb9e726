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
  with a per-row length vector.  :class:`LSTM` (one direction) and
  :class:`BiLSTM` (two) both run :func:`lstm_layer`, which steps the
  directions together with the input projection hoisted out of the time
  loop; the GRU and ConvLSTM step one direction at a time through
  :func:`run_masked`.  Rows whose sequence has ended keep (forward
  direction) or have not yet started (backward direction) a frozen state, so
  per-row outputs at valid positions match the scalar path within 1e-9
  (``tests/nn/test_recurrent_batch.py`` and
  ``tests/features/test_content_batch.py`` pin the contract).  It is written
  once over the type-dispatching ops of :mod:`repro.nn.autograd`: training
  passes a ``Tensor`` and gets the autograd graph (``tests/nn/test_gradcheck.py``
  checks its gradients), serving passes an ``ndarray`` and runs the same
  NumPy ops in the same order with no ``Tensor`` built per step, so the two
  are bit-identical by construction (``tests/nn/test_inference_twins.py``
  pins exact equality).

Positions at or beyond a row's length carry frozen/zero filler states; callers
must mask them out when pooling (see :mod:`repro.nn.pooling`).
"""

from __future__ import annotations

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


def lstm_update(gates, c):
    """The LSTM state update from ``(..., 4N)`` pre-activation gates.

    The gate block is ordered input, forget, cell, output: one ``sigmoid``
    covers the whole block (the cell slice of it is unused) and a ``tanh``
    the cell slice.  Returns ``(h_next, c_next)``.  The scalar
    :meth:`LSTMCell.forward` and the batch kernel :func:`lstm_layer` share it,
    so the gate math exists once.
    """
    n = c.shape[-1]
    act = sigmoid(gates)
    c_next = act[..., n : 2 * n] * c + act[..., 0:n] * tanh(gates[..., 2 * n : 3 * n])
    return act[..., 3 * n :] * tanh(c_next), c_next


def lstm_layer(cells, sequence, lengths: np.ndarray, reverse):
    """Run ``D`` LSTM directions over one right-padded ``(B, T, M)`` batch.

    ``cells`` holds one :class:`LSTMCell` per direction and ``reverse`` says
    which of them run backward in time.  The directions step together as one
    stacked recurrence over a ``(D, B, N)`` state:

    * the input projection of every step and direction is one
      ``(T*B, M) @ (M, D*4N)`` GEMM, the biases added into its result (in
      place for arrays);
    * each step gathers its ``(D, B, 4N)`` gate inputs straight out of that
      ``(T, B, D, 4N)`` projection (no reordered copy of it is made; at step
      ``k`` a backward direction reads position ``T-1-k``), adds one batched
      ``(D, B, N) @ (D, N, 4N)`` recurrent matmul and runs
      :func:`lstm_update`;
    * a forward row freezes its state past its length, a backward row stays
      at the zero state until it enters its valid region, and steps where
      every row of every direction is valid skip the blend.

    Parameters are read on every call (a reload or an optimiser step is seen
    at once).  Returns the ``D`` per-direction ``(B, T, N)`` hidden-state
    sequences, of the same kind as ``sequence``.
    """
    batch, steps, width = sequence.shape
    depth, n = len(cells), cells[0].hidden_size
    w_x = concatenate([read(cell.weight_x, sequence) for cell in cells], axis=1)
    bias = concatenate([read(cell.bias, sequence) for cell in cells], axis=0)
    w_h = stack([read(cell.weight_h, sequence) for cell in cells], axis=0)
    # Time-major rows, so each step's gate inputs are one (B, 4N) block per direction.
    rows = sequence.transpose(1, 0, 2).reshape(steps * batch, width)
    projected = rows @ w_x
    projected += bias  # in place on an array; a Tensor (no __iadd__) gets a graph node
    projected = projected.reshape(steps, batch, depth, 4 * n)
    # (T, D): the position each direction reads at each step.
    order = np.array([[steps - 1 - k if back else k for back in reverse] for k in range(steps)])
    directions = np.arange(depth)
    # (T, D, B, 1): step k of a backward direction masks position T-1-k.
    keep = time_mask(lengths, steps).T[order][..., None]
    drop = 1.0 - keep
    all_valid = keep.all(axis=(1, 2, 3)).tolist()
    h = c = lift(np.zeros((depth, batch, n)), sequence)
    outputs = [None] * steps
    for k in range(steps):
        gathered = projected[order[k], :, directions]  # (D, B, 4N)
        h_next, c_next = lstm_update(gathered + h @ w_h, c)
        if all_valid[k]:
            h, c = h_next, c_next
        else:
            h, c = h_next * keep[k] + h * drop[k], c_next * keep[k] + c * drop[k]
        outputs[k] = h
    states = stack(outputs, axis=0)  # (T, D, B, N), step order
    return [
        (states[::-1, d] if back else states[:, d]).transpose(1, 0, 2)
        for d, back in enumerate(reverse)
    ]


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

    def forward(self, x, h, c):
        """One step: ``x`` is ``(input_size,)``, ``(1, input_size)`` or ``(B, input_size)``."""
        gates = x @ read(self.weight_x, x) + read(self.bias, x) + h @ read(self.weight_h, x)
        return lstm_update(gates, c)


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

        :func:`lstm_layer` with one direction.  Returns the ``(B, T,
        hidden_size)`` hidden states, of the same kind as ``sequence``.
        Rows shorter than ``T`` freeze their state once past ``lengths[b]``
        (forward) or stay at the zero initial state until entering the valid
        region (backward), so outputs at valid positions match
        :meth:`forward` row by row within 1e-9; outputs at padded positions
        are filler the caller must mask out.
        """
        return lstm_layer([self.cell], sequence, lengths, (reverse,))[0]


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

        Each layer is one :func:`lstm_layer` call over both directions, so
        the two share one input GEMM and one stacked recurrent matmul per
        step.  Output shape is ``(B, T, 2 * hidden_size)`` (or ``(B, T,
        hidden_size, 2)`` with ``stacked_channels``); valid positions match
        :meth:`forward` within 1e-9.
        """
        current = sequence
        fwd = bwd = None
        for fwd_layer, bwd_layer in zip(self.forward_layers, self.backward_layers):
            fwd, bwd = lstm_layer([fwd_layer.cell, bwd_layer.cell], current, lengths, (False, True))
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
