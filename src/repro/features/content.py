"""Content encoders for the recent tweet (paper Section 4.2).

The paper converts the recent tweet into skip-gram word vectors and encodes
the sequence with **BiLSTM-C**: a bidirectional LSTM whose forward/backward
hidden-state sequences are stacked into a 2-channel image, convolved with a
full-width height-3 filter bank, rectified and mean-pooled into the fixed
``N``-dimensional content feature ``Fc(r)``.

Two alternatives from Table 3 are provided for the ablations:

* :class:`BLSTMContentEncoder` — the same bidirectional LSTM but without the
  convolution layer (mean-pooled hidden states).
* :class:`ConvLSTMContentEncoder` — a ConvLSTM (convolutional state
  transitions) instead of BiLSTM-C.

Two further extension encoders (not in the paper) back the encoder-ablation
benchmarks:

* :class:`BiGRUContentEncoder` — a bidirectional GRU, a lighter recurrent cell.
* :class:`AttentionContentEncoder` — a bidirectional LSTM whose states are
  reduced with learned attention pooling instead of a mean.

All encoders share a :class:`TextVectorizer` that tokenises, maps to
vocabulary ids, looks up the (frozen) skip-gram vectors and pads very short
(or empty) tweets so the convolution always has at least ``kernel_height``
rows.  Its per-profile word-vector cache is a bounded
:class:`repro.store.HotStore` (:attr:`TextVectorizer.cache_stats` is the
store's ``stats()``), so long-running serving cannot leak one entry per
distinct tweet forever.

**Batch contract.**  Every encoder exposes two paths:

* ``encode(profile)`` — the scalar reference implementation, one profile at a
  time; kept as the documented ground truth.
* ``encode_batch(profiles)`` — the hot path:
  ``TextVectorizer.vectorize_batch`` right-pads the ``B`` tweets into one
  ``(B, T, M)`` batch with a length vector, the recurrent layers step over
  time once for the whole batch (the bidirectional LSTM steps both
  directions together: one input-projection GEMM for all steps, then one
  stacked ``(2, B, N)`` recurrent matmul per step; see
  :func:`repro.nn.recurrent.lstm_layer`), BiLSTM-C's convolution is one GEMM
  over every output position, and masked mean/attention pooling restricts
  each row's reduction to its valid positions.  Rows match ``encode`` within
  1e-9 (``tests/features/test_content_batch.py`` pins the contract) and do
  not depend on the other profiles of the batch
  (``tests/features/test_inference_path.py::TestBatchIndependence``).  Each
  encoder's ``_encode_batch`` is written once over layers that accept a
  ``Tensor`` or an ``ndarray``: training hands it a ``Tensor`` and gets the
  autograd graph; inside :func:`repro.nn.autograd.inference_mode` it gets
  the plain array and runs the same NumPy ops in the same order on
  ``param.data`` read at call time, so serving rows are bit-identical to the
  ``Tensor`` path with no graph and nothing to invalidate after training
  (``tests/nn/test_inference_twins.py`` pins exact equality).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.protocols import UNREVISIONED
from repro.data.records import Profile
from repro.nn.autograd import Tensor, is_inference_mode, relu
from repro.nn.conv import TemporalConv
from repro.nn.gru import BiGRU
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.pooling import AttentionPooling, masked_mean_over_time
from repro.nn.recurrent import BiLSTM, ConvLSTM, time_mask
from repro.store.base import EngineCacheInfo
from repro.store.hot import HotStore
from repro.text.skipgram import SkipGramModel
from repro.text.tokenize import STOPWORD_TOKEN, Tokenizer, Vocabulary


@dataclass
class ContentEncoderConfig:
    """Shared hyper-parameters of the content encoders."""

    #: Output feature dimensionality ``N``.
    feature_dim: int = 16
    #: Maximum number of tokens fed to the encoder (tweets are short anyway).
    max_tokens: int = 16
    #: Minimum sequence length after padding (>= the convolution height).
    min_tokens: int = 4
    #: Number of stacked bidirectional LSTM layers ``Ql``.
    num_lstm_layers: int = 1
    #: Gaussian init std; ``None`` uses fan-in (He) scaling.
    init_std: float | None = None
    seed: int = 31


class TextVectorizer:
    """Tokenise + encode + embed tweet text into a ``(T, M)`` word-vector matrix.

    Parameters
    ----------
    cache_size:
        Maximum number of per-profile word-vector matrices kept in the
        cache, a :class:`repro.store.HotStore` like the serving engine's hot
        tier.  ``0`` disables caching.  Training scans revisit every profile
        each epoch, so trainers should size the cache at least as large as
        the training set (the pipeline does) or the cache thrashes.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        skipgram: SkipGramModel,
        tokenizer: Tokenizer | None = None,
        max_tokens: int = 16,
        min_tokens: int = 4,
        cache_size: int = 4096,
    ):
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.vocabulary = vocabulary
        self.skipgram = skipgram
        self.tokenizer = tokenizer or Tokenizer()
        self.max_tokens = max_tokens
        self.min_tokens = min_tokens
        self._pad_id = vocabulary.token_to_id.get(STOPWORD_TOKEN, vocabulary.unknown_id)
        #: Word-vector matrices keyed by :func:`repro.core.profile_key` with the
        #: visit history blanked (``len`` 0, unrevisioned): they read the tweet only.
        self._cache = HotStore(cache_size)

    @property
    def word_dim(self) -> int:
        """Dimensionality ``M`` of the word vectors."""
        return self.skipgram.embedding_dim

    @property
    def cache_size(self) -> int:
        """Row bound of the word-vector cache."""
        return self._cache.capacity

    @property
    def cache_stats(self) -> EngineCacheInfo:
        """Current word-vector cache statistics (one in-RAM tier, so every hit is hot)."""
        return self._cache.stats()

    def token_ids(self, text: str) -> list[int]:
        """Vocabulary ids of a tweet, truncated/padded to the configured bounds.

        Empty and whitespace-only tweets tokenise to nothing and come back as
        an all-pad sequence; the floor of one token (even with
        ``min_tokens=0``) guarantees every profile yields a non-empty
        sequence the recurrent encoders can consume.
        """
        tokens = self.tokenizer.tokenize(text)[: self.max_tokens]
        ids = self.vocabulary.encode(tokens) if tokens else []
        while len(ids) < max(1, self.min_tokens):
            ids.append(self._pad_id)
        return ids

    def vectorize(self, profile: Profile) -> np.ndarray:
        """The ``(T, M)`` word-vector matrix of a profile's recent tweet (cached)."""
        key = (profile.uid, profile.ts, profile.content, 0, UNREVISIONED)
        matrix = self._cache.get(key)
        if matrix is None:
            matrix = self.skipgram.encode_sequence(self.token_ids(profile.content))
            self._cache.put(key, matrix)
        return matrix

    def vectorize_batch(self, profiles: list[Profile]) -> tuple[np.ndarray, np.ndarray]:
        """Right-pad the profiles' word-vector matrices into one batch tensor.

        Returns the ``(B, T, M)`` tensor (``T`` the longest sequence, shorter
        rows zero-padded on the right) and the ``(B,)`` length vector the
        batched encoders mask with.  Per-profile matrices go through
        :meth:`vectorize`, so the cache is shared with the scalar path.
        """
        if not profiles:
            return np.zeros((0, max(1, self.min_tokens), self.word_dim)), np.zeros(0, dtype=np.int64)
        matrices = [self.vectorize(profile) for profile in profiles]
        lengths = np.array([matrix.shape[0] for matrix in matrices], dtype=np.int64)
        batch = np.zeros((len(matrices), int(lengths.max()), self.word_dim))
        for row, matrix in enumerate(matrices):
            batch[row, : matrix.shape[0]] = matrix
        return batch, lengths


class ContentEncoder(Module):
    """Base class: turns a profile into an ``N``-dimensional content feature."""

    def __init__(self, vectorizer: TextVectorizer, config: ContentEncoderConfig):
        super().__init__()
        self.vectorizer = vectorizer
        self.config = config

    @property
    def feature_dim(self) -> int:
        return self.config.feature_dim

    def encode(self, profile: Profile) -> Tensor:
        """The ``(feature_dim,)`` content feature of one profile (scalar reference)."""
        raise NotImplementedError

    def encode_batch(self, profiles: list[Profile]) -> Tensor:
        """The ``(B, feature_dim)`` content features of a batch of profiles.

        The hot path: one padded ``(B, T, M)`` batch, batched recurrence and
        masked pooling.  Each row matches :meth:`encode` within 1e-9.  Inside
        :func:`repro.nn.autograd.inference_mode` :meth:`_encode_batch` runs on
        the plain array, bit-identical and graph-free.
        """
        if not profiles:
            return Tensor(np.zeros((0, self.config.feature_dim)))
        batch, lengths = self.vectorizer.vectorize_batch(profiles)
        if is_inference_mode():
            return Tensor(self._encode_batch(batch, lengths))
        return self._encode_batch(Tensor(batch), lengths)

    def _encode_batch(self, sequences, lengths: np.ndarray):
        """Encode a padded ``(B, T, M)`` ``Tensor`` or array with its length vector.

        Returns ``(B, feature_dim)`` rows of the same kind as ``sequences``.
        """
        raise NotImplementedError

    def forward(self, profile: Profile) -> Tensor:
        return self.encode(profile)


class BiLSTMCContentEncoder(ContentEncoder):
    """The paper's BiLSTM-C encoder (BLSTM + convolution + ReLU + mean pooling)."""

    def __init__(self, vectorizer: TextVectorizer, config: ContentEncoderConfig | None = None):
        config = config or ContentEncoderConfig()
        super().__init__(vectorizer, config)
        rng = np.random.default_rng(config.seed)
        self.bilstm = BiLSTM(
            input_size=vectorizer.word_dim,
            hidden_size=config.feature_dim,
            num_layers=config.num_lstm_layers,
            init_std=config.init_std,
            rng=rng,
        )
        self.conv = TemporalConv(width=config.feature_dim, kernel_height=3, init_std=config.init_std, rng=rng)

    def encode(self, profile: Profile) -> Tensor:
        sequence = Tensor(self.vectorizer.vectorize(profile))
        stacked = self.bilstm(sequence, stacked_channels=True)  # (T, N, 2)
        feature_map = self.conv(stacked).relu()  # (T - 2, N)
        return feature_map.mean(axis=0)

    def _conv_mask(self, lengths: np.ndarray, positions: int) -> np.ndarray:
        """The ``(B, T - kh + 1)`` validity mask of the convolution output."""
        kernel_height = self.conv.kernel_height
        if int(lengths.min()) < kernel_height:
            raise ValueError(
                f"every sequence must have at least {kernel_height} tokens for the "
                "BiLSTM-C convolution; raise TextVectorizer.min_tokens"
            )
        # Conv position i is valid iff its last row i + kh - 1 is a real token.
        return time_mask(lengths - (kernel_height - 1), positions)

    def _encode_batch(self, sequences, lengths: np.ndarray):
        conv_mask = self._conv_mask(lengths, sequences.shape[1] - self.conv.kernel_height + 1)
        stacked = self.bilstm.forward_batch(sequences, lengths, stacked_channels=True)
        feature_map = relu(self.conv.forward_batch(stacked))  # (B, T - 2, N)
        return masked_mean_over_time(feature_map, conv_mask)



class BLSTMContentEncoder(ContentEncoder):
    """Bidirectional LSTM without the convolution layer (the *BLSTM* approach)."""

    def __init__(self, vectorizer: TextVectorizer, config: ContentEncoderConfig | None = None):
        config = config or ContentEncoderConfig()
        super().__init__(vectorizer, config)
        rng = np.random.default_rng(config.seed)
        self.bilstm = BiLSTM(
            input_size=vectorizer.word_dim,
            hidden_size=config.feature_dim,
            num_layers=config.num_lstm_layers,
            init_std=config.init_std,
            rng=rng,
        )
        self.project = Linear(2 * config.feature_dim, config.feature_dim, init_std=config.init_std, rng=rng)

    def encode(self, profile: Profile) -> Tensor:
        sequence = Tensor(self.vectorizer.vectorize(profile))
        states = self.bilstm(sequence)  # (T, 2N)
        pooled = states.mean(axis=0).reshape(1, 2 * self.config.feature_dim)
        return self.project(pooled).relu().reshape(self.config.feature_dim)

    def _encode_batch(self, sequences, lengths: np.ndarray):
        states = self.bilstm.forward_batch(sequences, lengths)  # (B, T, 2N)
        pooled = masked_mean_over_time(states, time_mask(lengths, states.shape[1]))
        return relu(self.project(pooled))



class ConvLSTMContentEncoder(ContentEncoder):
    """ConvLSTM encoder (convolutional input/state transitions, Shi et al. 2015)."""

    def __init__(self, vectorizer: TextVectorizer, config: ContentEncoderConfig | None = None):
        config = config or ContentEncoderConfig()
        super().__init__(vectorizer, config)
        rng = np.random.default_rng(config.seed)
        self.convlstm = ConvLSTM(width=vectorizer.word_dim, kernel_size=3, init_std=config.init_std, rng=rng)
        self.project = Linear(vectorizer.word_dim, config.feature_dim, init_std=config.init_std, rng=rng)

    def encode(self, profile: Profile) -> Tensor:
        sequence = Tensor(self.vectorizer.vectorize(profile))
        states = self.convlstm(sequence)  # (T, M)
        pooled = states.mean(axis=0).reshape(1, self.vectorizer.word_dim)
        return self.project(pooled).relu().reshape(self.config.feature_dim)

    def _encode_batch(self, sequences, lengths: np.ndarray):
        states = self.convlstm.forward_batch(sequences, lengths)  # (B, T, M)
        pooled = masked_mean_over_time(states, time_mask(lengths, states.shape[1]))
        return relu(self.project(pooled))



class BiGRUContentEncoder(ContentEncoder):
    """Bidirectional GRU encoder (extension; lighter than the BLSTM variant)."""

    def __init__(self, vectorizer: TextVectorizer, config: ContentEncoderConfig | None = None):
        config = config or ContentEncoderConfig()
        super().__init__(vectorizer, config)
        rng = np.random.default_rng(config.seed)
        self.bigru = BiGRU(
            input_size=vectorizer.word_dim,
            hidden_size=config.feature_dim,
            init_std=config.init_std,
            rng=rng,
        )
        self.project = Linear(2 * config.feature_dim, config.feature_dim, init_std=config.init_std, rng=rng)

    def encode(self, profile: Profile) -> Tensor:
        sequence = Tensor(self.vectorizer.vectorize(profile))
        states = self.bigru(sequence)  # (T, 2N)
        pooled = states.mean(axis=0).reshape(1, 2 * self.config.feature_dim)
        return self.project(pooled).relu().reshape(self.config.feature_dim)

    def _encode_batch(self, sequences, lengths: np.ndarray):
        states = self.bigru.forward_batch(sequences, lengths)  # (B, T, 2N)
        pooled = masked_mean_over_time(states, time_mask(lengths, states.shape[1]))
        return relu(self.project(pooled))



class AttentionContentEncoder(ContentEncoder):
    """BLSTM states reduced with learned attention pooling (extension).

    Attention lets the encoder weight location-bearing tokens ("liberty",
    "strip") above stop-word noise instead of averaging them together.
    """

    def __init__(self, vectorizer: TextVectorizer, config: ContentEncoderConfig | None = None):
        config = config or ContentEncoderConfig()
        super().__init__(vectorizer, config)
        rng = np.random.default_rng(config.seed)
        self.bilstm = BiLSTM(
            input_size=vectorizer.word_dim,
            hidden_size=config.feature_dim,
            num_layers=config.num_lstm_layers,
            init_std=config.init_std,
            rng=rng,
        )
        self.pooling = AttentionPooling(2 * config.feature_dim, rng=rng)
        self.project = Linear(2 * config.feature_dim, config.feature_dim, init_std=config.init_std, rng=rng)

    def encode(self, profile: Profile) -> Tensor:
        sequence = Tensor(self.vectorizer.vectorize(profile))
        states = self.bilstm(sequence)  # (T, 2N)
        pooled = self.pooling(states).reshape(1, 2 * self.config.feature_dim)
        return self.project(pooled).relu().reshape(self.config.feature_dim)

    def _encode_batch(self, sequences, lengths: np.ndarray):
        states = self.bilstm.forward_batch(sequences, lengths)  # (B, T, 2N)
        pooled = self.pooling.forward_batch(states, time_mask(lengths, states.shape[1]))
        return relu(self.project(pooled))


    def attention_weights(self, profile: Profile) -> np.ndarray:
        """The per-token attention distribution (for inspection)."""
        sequence = Tensor(self.vectorizer.vectorize(profile))
        return self.pooling.attention_weights(self.bilstm(sequence))


CONTENT_ENCODERS = {
    "bilstm-c": BiLSTMCContentEncoder,
    "blstm": BLSTMContentEncoder,
    "convlstm": ConvLSTMContentEncoder,
    "bgru": BiGRUContentEncoder,
    "attention": AttentionContentEncoder,
}


def make_content_encoder(
    kind: str, vectorizer: TextVectorizer, config: ContentEncoderConfig | None = None
) -> ContentEncoder:
    """Factory mapping an encoder name (Table 3 row) to an instance."""
    try:
        encoder_cls = CONTENT_ENCODERS[kind]
    except KeyError as exc:
        raise ValueError(f"unknown content encoder {kind!r}; choose from {sorted(CONTENT_ENCODERS)}") from exc
    return encoder_cls(vectorizer, config)
