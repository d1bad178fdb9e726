"""Gated recurrent units: GRU cell, GRU and bidirectional GRU.

The paper's content encoder is a bidirectional LSTM (plus convolution —
``BiLSTM-C``); a GRU encoder is a natural lighter-weight alternative that the
reproduction ships as an extension approach (``BGRU`` in
:mod:`repro.features.content`).  Interfaces mirror :mod:`repro.nn.recurrent`:
``forward`` is the scalar ``(T, input_size)`` reference path,
``forward_batch`` steps a right-padded ``(B, T, input_size)`` batch with a
length vector, fusing the gate matmuls into ``(B, ...)`` calls and freezing
finished rows' states so valid positions match the scalar path, and
``infer_batch`` is its bit-identical plain-NumPy serving twin.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor, concatenate, sigmoid_array, stack
from repro.nn.module import Module, Parameter
from repro.nn.recurrent import masked_state, masked_state_array, time_mask


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

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """One step: ``x`` is ``(1, input_size)``, ``h`` is ``(1, hidden_size)``."""
        gates = (x @ self.weight_x_zr + h @ self.weight_h_zr + self.bias_zr).sigmoid()
        n = self.hidden_size
        z_gate = gates[..., 0:n]
        r_gate = gates[..., n : 2 * n]
        candidate = (x @ self.weight_x_n + (r_gate * h) @ self.weight_h_n + self.bias_n).tanh()
        return z_gate * h + (1.0 - z_gate) * candidate

    def infer(self, x: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Plain-NumPy twin of :meth:`forward`."""
        gates = sigmoid_array(
            x @ self.weight_x_zr.data + h @ self.weight_h_zr.data + self.bias_zr.data
        )
        n = self.hidden_size
        z_gate = gates[..., 0:n]
        r_gate = gates[..., n : 2 * n]
        candidate = np.tanh(
            x @ self.weight_x_n.data + (r_gate * h) @ self.weight_h_n.data + self.bias_n.data
        )
        return z_gate * h + (1.0 + (-z_gate)) * candidate


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

    def forward_batch(self, sequence: Tensor, lengths: np.ndarray, reverse: bool = False) -> Tensor:
        """Run the GRU over a right-padded ``(B, T, input_size)`` batch.

        Returns ``(B, T, hidden_size)`` states; see
        :meth:`repro.nn.recurrent.LSTM.forward_batch` for the masking contract.
        """
        batch, steps = sequence.shape[0], sequence.shape[1]
        h = Tensor(np.zeros((batch, self.hidden_size)))
        mask = time_mask(lengths, steps)
        order = range(steps - 1, -1, -1) if reverse else range(steps)
        outputs: list[Tensor] = [None] * steps  # type: ignore[list-item]
        for t in order:
            h = masked_state(self.cell(sequence[:, t, :], h), h, mask[:, t])
            outputs[t] = h
        return stack(outputs, axis=1)

    def infer_batch(
        self, sequence: np.ndarray, lengths: np.ndarray, reverse: bool = False
    ) -> np.ndarray:
        """Plain-NumPy twin of :meth:`forward_batch` (see :meth:`LSTM.infer_batch`)."""
        batch, steps = sequence.shape[0], sequence.shape[1]
        h = np.zeros((batch, self.hidden_size))
        mask = time_mask(lengths, steps)
        all_valid = mask.all(axis=0).tolist()
        outputs = np.empty((batch, steps, self.hidden_size))
        for t in range(steps - 1, -1, -1) if reverse else range(steps):
            h_next = self.cell.infer(sequence[:, t, :], h)
            h = h_next if all_valid[t] else masked_state_array(h_next, h, mask[:, t])
            outputs[:, t] = h
        return outputs


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

    def forward_batch(self, sequence: Tensor, lengths: np.ndarray) -> Tensor:
        """Batched bidirectional pass; ``(B, T, 2 * hidden_size)`` states."""
        forward_states = self.forward_gru.forward_batch(sequence, lengths)
        backward_states = self.backward_gru.forward_batch(sequence, lengths, reverse=True)
        return concatenate([forward_states, backward_states], axis=-1)

    def infer_batch(self, sequence: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Plain-NumPy twin of :meth:`forward_batch`."""
        forward_states = self.forward_gru.infer_batch(sequence, lengths)
        backward_states = self.backward_gru.infer_batch(sequence, lengths, reverse=True)
        return np.concatenate([forward_states, backward_states], axis=-1)
