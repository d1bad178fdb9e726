"""Gated recurrent units: GRU cell, GRU and bidirectional GRU.

The paper's content encoder is a bidirectional LSTM (plus convolution —
``BiLSTM-C``); a GRU encoder is a natural lighter-weight alternative that the
reproduction ships as an extension approach (``BGRU`` in
:mod:`repro.features.content`).  Interfaces mirror :mod:`repro.nn.recurrent`:
``forward`` is the scalar ``(T, input_size)`` reference path,
``forward_batch`` steps a right-padded ``(B, T, input_size)`` batch with a
length vector, fusing the gate matmuls into ``(B, ...)`` calls and freezing
finished rows' states so valid positions match the scalar path.  The batch
path is written once over the type-dispatching ops of
:mod:`repro.nn.autograd`, so training passes ``Tensor``s and serving passes
arrays through the same definition.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor, concatenate, lift, read, sigmoid, tanh
from repro.nn.module import Module, Parameter
from repro.nn.recurrent import run_masked


class GRUCell(Module):
    """A single GRU step with the standard update/reset/candidate gates."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("GRU dimensions must be positive")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        std_x = init_std if init_std is not None else float(np.sqrt(1.0 / input_size))
        std_h = init_std if init_std is not None else float(np.sqrt(1.0 / hidden_size))
        # Fused weights for the update (z) and reset (r) gates.
        self.weight_x_zr = Parameter(rng.normal(0.0, std_x, size=(input_size, 2 * hidden_size)))
        self.weight_h_zr = Parameter(rng.normal(0.0, std_h, size=(hidden_size, 2 * hidden_size)))
        self.bias_zr = Parameter(np.zeros(2 * hidden_size))
        # Candidate state weights.
        self.weight_x_n = Parameter(rng.normal(0.0, std_x, size=(input_size, hidden_size)))
        self.weight_h_n = Parameter(rng.normal(0.0, std_h, size=(hidden_size, hidden_size)))
        self.bias_n = Parameter(np.zeros(hidden_size))

    def forward(self, x, h):
        """One step: ``x`` is ``(1, input_size)`` or ``(B, input_size)``, ``h`` matches."""
        gates = sigmoid(
            x @ read(self.weight_x_zr, x) + h @ read(self.weight_h_zr, x) + read(self.bias_zr, x)
        )
        n = self.hidden_size
        z_gate = gates[..., 0:n]
        r_gate = gates[..., n : 2 * n]
        candidate = tanh(
            x @ read(self.weight_x_n, x)
            + (r_gate * h) @ read(self.weight_h_n, x)
            + read(self.bias_n, x)
        )
        return z_gate * h + (1.0 - z_gate) * candidate


class GRU(Module):
    """Unidirectional GRU over a ``(T, input_size)`` sequence.

    Returns the ``(T, hidden_size)`` sequence of hidden states, starting from
    a zero initial state.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, init_std=init_std, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor, reverse: bool = False) -> Tensor:
        steps = sequence.shape[0]
        h = Tensor(np.zeros((1, self.hidden_size)))
        order = range(steps - 1, -1, -1) if reverse else range(steps)
        outputs: list[Tensor] = [None] * steps  # type: ignore[list-item]
        for t in order:
            x_t = sequence[t : t + 1, :]
            h = self.cell(x_t, h)
            outputs[t] = h
        return concatenate(outputs, axis=0)

    def forward_batch(self, sequence, lengths: np.ndarray, reverse: bool = False):
        """Run the GRU over a right-padded ``(B, T, input_size)`` batch.

        Returns ``(B, T, hidden_size)`` states of the same kind as
        ``sequence``; see :meth:`repro.nn.recurrent.LSTM.forward_batch` for
        the masking contract.
        """
        zero = lift(np.zeros((sequence.shape[0], self.hidden_size)), sequence)

        def step(x_t, h):
            return (self.cell.forward(x_t, h),)

        return run_masked(step, sequence, lengths, (zero,), reverse=reverse)


class BiGRU(Module):
    """Bidirectional GRU; concatenates forward and backward hidden states.

    Output shape is ``(T, 2 * hidden_size)``, matching what the plain
    ``BLSTM`` baseline produces so the two encoders are drop-in replacements
    for each other.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        init_std: float | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.forward_gru = GRU(input_size, hidden_size, init_std=init_std, rng=rng)
        self.backward_gru = GRU(input_size, hidden_size, init_std=init_std, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor) -> Tensor:
        forward_states = self.forward_gru(sequence)
        backward_states = self.backward_gru(sequence, reverse=True)
        return concatenate([forward_states, backward_states], axis=-1)

    def forward_batch(self, sequence, lengths: np.ndarray):
        """Batched bidirectional pass; ``(B, T, 2 * hidden_size)`` states."""
        forward_states = self.forward_gru.forward_batch(sequence, lengths)
        backward_states = self.backward_gru.forward_batch(sequence, lengths, reverse=True)
        return concatenate([forward_states, backward_states], axis=-1)
