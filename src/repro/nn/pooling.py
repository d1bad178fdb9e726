"""Pooling over the time axis of recurrent-state sequences.

``BiLSTM-C`` reduces its convolutional feature map with a mean over the time
axis (paper Eq. 3).  The reproduction also offers max pooling and a learned
attention pooling so the content-encoder ablation can compare reduction
strategies, not just recurrent architectures.  All modules take a ``(T, N)``
tensor and return a ``(N,)``-shaped (or ``(1, N)``) summary.

The batched content encoders pool right-padded ``(B, T, N)`` sequences
instead; :func:`masked_mean_over_time`, :func:`masked_softmax_over_time` and
:meth:`AttentionPooling.forward_batch` take the ``(B, T)`` validity mask of
:func:`repro.nn.recurrent.time_mask` and reduce each row over its valid
positions only, matching the scalar reductions within 1e-9.  They accept a
``Tensor`` (training) or an ``ndarray`` (serving) and run the same NumPy ops
on either, and a row's result does not depend on how far the batch pads it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor, exp, tanh
from repro.nn.layers import Linear
from repro.nn.module import Module


class MeanOverTime(Module):
    """Mean of the hidden states across the time axis (the paper's reduction)."""

    def forward(self, sequence: Tensor) -> Tensor:
        return sequence.mean(axis=0)


class MaxOverTime(Module):
    """Element-wise maximum of the hidden states across the time axis."""

    def forward(self, sequence: Tensor) -> Tensor:
        return sequence.max(axis=0)


def softmax_over_time(scores: Tensor) -> Tensor:
    """Differentiable softmax of a ``(T, 1)`` (or ``(T,)``) score tensor."""
    shifted = scores - Tensor(np.max(scores.data))
    exponentials = shifted.exp()
    return exponentials / exponentials.sum()


def masked_mean_over_time(sequence, mask: np.ndarray):
    """Per-row mean over the valid positions of a ``(B, T, N)`` sequence.

    ``mask`` is the ``(B, T)`` validity mask; every row must have at least one
    valid position.  Padded positions contribute exact zeros to the sum, so
    each row equals the scalar ``states.mean(axis=0)`` of its valid prefix.
    """
    counts = mask.sum(axis=1)
    weighted = sequence * mask[:, :, None]
    return weighted.sum(axis=1) * (1.0 / counts)[:, None]


def masked_softmax_over_time(scores, mask: np.ndarray):
    """Softmax over axis 1 of ``(B, T, 1)`` scores, restricted to valid positions.

    Matches :func:`softmax_over_time` on each row's valid prefix within 1e-9:
    the per-row peak is taken over valid positions only and padded positions
    get exactly zero weight.
    """
    column_mask = mask[:, :, None]
    raw = scores.data if isinstance(scores, Tensor) else scores
    peaks = np.where(column_mask > 0.0, raw, -np.inf).max(axis=1, keepdims=True)  # (B, 1, 1)
    # Zero the shifted scores at padded positions *before* exp: a filler-state
    # score far above the row's valid peak would otherwise overflow exp() to
    # inf, and inf * 0 would poison the row with NaN.
    exponentials = exp((scores - peaks) * column_mask) * column_mask
    # Sum over time left to right, one step at a time.  ``sum(axis=1)`` of a
    # (B, T, 1) array reduces a contiguous run with pairwise summation, whose
    # grouping changes with the padded length T, so a row would depend on the
    # longest tweet it is batched with.  Trailing padding adds exact zeros here.
    total = exponentials[:, 0:1]
    for t in range(1, exponentials.shape[1]):
        total = total + exponentials[:, t : t + 1]
    return exponentials / total


class AttentionPooling(Module):
    """Additive (Bahdanau-style) attention pooling over the time axis.

    Each hidden state is scored with a small feed-forward scorer; the summary
    is the attention-weighted sum of the states.  This gives the content
    encoder a way to focus on location-bearing words ("liberty", "strip")
    instead of averaging them together with stop-word noise.
    """

    def __init__(
        self,
        num_features: int,
        attention_dim: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if num_features <= 0:
            raise ValueError("AttentionPooling feature count must be positive")
        rng = rng or np.random.default_rng()
        attention_dim = attention_dim or max(num_features // 2, 1)
        self.projection = Linear(num_features, attention_dim, rng=rng)
        self.score = Linear(attention_dim, 1, rng=rng)
        self.num_features = num_features

    def attention_weights(self, sequence: Tensor) -> np.ndarray:
        """The ``(T,)`` attention distribution for inspection/visualisation."""
        scores = self.score(self.projection(sequence).tanh())
        return softmax_over_time(scores).numpy().reshape(-1)

    def forward(self, sequence: Tensor) -> Tensor:
        scores = self.score(self.projection(sequence).tanh())  # (T, 1)
        weights = softmax_over_time(scores)  # (T, 1)
        weighted = sequence * weights  # broadcast over features
        return weighted.sum(axis=0)

    def forward_batch(self, sequence, mask: np.ndarray):
        """Attention-pool a right-padded ``(B, T, N)`` batch into ``(B, N)``.

        ``mask`` is the ``(B, T)`` validity mask; padded positions receive
        zero attention so each row matches :meth:`forward` on its valid prefix.
        """
        scores = self.score(tanh(self.projection(sequence)))  # (B, T, 1)
        weights = masked_softmax_over_time(scores, mask)  # (B, T, 1)
        return (sequence * weights).sum(axis=1)


class LastState(Module):
    """Take the final hidden state as the sequence summary."""

    def forward(self, sequence: Tensor) -> Tensor:
        steps = sequence.shape[0]
        return sequence[steps - 1 : steps, :].reshape(-1)


def make_pooling(name: str, num_features: int, rng: np.random.Generator | None = None) -> Module:
    """Factory mapping a pooling name to a module.

    Recognised names: ``mean``, ``max``, ``attention``, ``last``.
    """
    normalised = name.strip().lower()
    if normalised == "mean":
        return MeanOverTime()
    if normalised == "max":
        return MaxOverTime()
    if normalised == "attention":
        return AttentionPooling(num_features, rng=rng)
    if normalised == "last":
        return LastState()
    raise ValueError(f"unknown pooling {name!r}; expected mean, max, attention or last")
