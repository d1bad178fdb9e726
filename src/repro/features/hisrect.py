"""The HisRect featurizer ``F``, the POI classifier ``P`` and the embedding ``E``.

Section 4.3 of the paper: the historical-visit feature ``Fv(r)`` and the
content feature ``Fc(r)`` are concatenated and pushed through ``Qf`` stacked
fully-connected + ReLU layers to obtain the HisRect feature ``F(r)``.  The POI
classifier ``P`` (used by the supervised loss ``L_poi`` and by the Comp2Loc
judge and POI-inference experiments) and the normalised embedding ``E`` (used
by the unsupervised SSL loss ``L_u``) both sit on top of ``F``.

The featurizer also covers the paper's feature ablations through its config:
*History-only*, *Tweet-only* and *One-hot* are all instances of
:class:`HisRectFeaturizer` with the corresponding parts switched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.protocols import UNREVISIONED, ProfileKey
from repro.data.records import Profile
from repro.errors import ConfigurationError
from repro.features.content import (
    ContentEncoder,
    ContentEncoderConfig,
    TextVectorizer,
    make_content_encoder,
)
from repro.features.history import (
    HistoricalVisitFeaturizer,
    HistoryFeatureConfig,
    OneHotHistoryFeaturizer,
)
from repro.geo.poi import POIRegistry
from repro.nn.autograd import Tensor, concatenate, inference_mode
from repro.nn.layers import MLP, Dropout, Linear, l2_normalize
from repro.nn.module import Module
from repro.store import HotStore, resolve_rows


@dataclass
class HisRectConfig:
    """Architecture and feature-selection knobs of the HisRect featurizer."""

    #: Use the historical-visit feature ``Fv``.
    use_history: bool = True
    #: Use the recent-tweet content feature ``Fc``.
    use_content: bool = True
    #: History encoding: ``"temporal"`` (Eq. 1-2) or ``"onehot"`` (the One-hot approach).
    history_encoding: str = "temporal"
    #: Content encoder: ``"bilstm-c"`` (HisRect), ``"blstm"`` or ``"convlstm"``.
    content_encoder: str = "bilstm-c"
    #: Dimensionality ``N`` of the content feature.
    content_dim: int = 16
    #: Number of fully-connected layers ``Qf`` in the combiner.
    num_fc_layers: int = 2
    #: Width of the combiner layers / the HisRect feature dimensionality.
    feature_dim: int = 32
    #: Number of stacked bidirectional LSTM layers ``Ql``.
    num_lstm_layers: int = 1
    #: Dropout keep probability applied before fully-connected layers.
    keep_prob: float = 0.8
    #: Embedding dimensionality and depth (``E`` of the SSL loss, ``Qe`` layers).
    embedding_dim: int = 16
    num_embedding_layers: int = 2
    #: Gaussian init std.  ``None`` uses fan-in (He) scaling, which at the
    #: reproduction's small widths trains much faster than the paper's fixed
    #: 0.01 without changing the comparisons; pass 0.01 for the paper's setup.
    init_std: float | None = None
    history: HistoryFeatureConfig = field(default_factory=HistoryFeatureConfig)
    seed: int = 47

    def __post_init__(self) -> None:
        if not (self.use_history or self.use_content):
            raise ConfigurationError("HisRect needs at least one of history/content features")
        if self.history_encoding not in ("temporal", "onehot"):
            raise ConfigurationError("history_encoding must be 'temporal' or 'onehot'")
        if self.num_fc_layers < 1 or self.num_embedding_layers < 1:
            raise ConfigurationError("layer counts must be >= 1")


def _register_featurizer_variants() -> None:
    """Register the paper's featurizer ablations under the ``"featurizer"`` kind.

    Each factory maps a serialised :class:`HisRectConfig` dictionary to a
    config with the variant-defining fields forced, so a judge variant and its
    featurizer variant can never drift apart.
    """
    from repro.registry import register

    variants: dict[str, tuple[str, dict[str, object]]] = {
        "hisrect": ("the full HisRect featurizer (history + content)", {}),
        "history-only": ("historical-visit feature only", {"use_content": False}),
        "tweet-only": ("recent-tweet content feature only", {"use_history": False}),
        "one-hot": ("one-hot (untimed) history encoding", {"history_encoding": "onehot"}),
        "blstm": ("plain BLSTM content encoder", {"content_encoder": "blstm"}),
        "convlstm": ("ConvLSTM content encoder", {"content_encoder": "convlstm"}),
    }

    def make_factory(overrides: dict[str, object]):
        def factory(config: dict | None = None) -> HisRectConfig:
            from dataclasses import replace

            from repro.io.configs import config_from_dict

            return replace(config_from_dict(HisRectConfig, config or {}), **overrides)

        return factory

    for name, (description, overrides) in variants.items():
        register("featurizer", name, factory=make_factory(overrides), description=description)


_register_featurizer_variants()


class HisRectFeaturizer(Module):
    """The HisRect featurizer ``F`` (paper Sections 4.1-4.3)."""

    #: Default bound on memoised ``Fv(r)`` rows; the history memo is a
    #: :class:`repro.store.HotStore`, bounded like the vectorizer's and the
    #: engine's.  Trainers should raise the instance's ``history_cache_size``
    #: to the training-set size (the pipeline does) so epoch scans stay warm.
    HISTORY_CACHE_SIZE = 8192

    def __init__(
        self,
        registry: POIRegistry,
        vectorizer: TextVectorizer | None,
        config: HisRectConfig | None = None,
    ):
        super().__init__()
        self.config = config or HisRectConfig()
        self.registry = registry
        cfg = self.config
        if cfg.use_content and vectorizer is None:
            raise ConfigurationError("a TextVectorizer is required when use_content is True")
        rng = np.random.default_rng(cfg.seed)

        if cfg.history_encoding == "temporal":
            self.history_featurizer = HistoricalVisitFeaturizer(registry, cfg.history)
        else:
            self.history_featurizer = OneHotHistoryFeaturizer(registry)

        self.content_encoder: ContentEncoder | None = None
        if cfg.use_content:
            encoder_config = ContentEncoderConfig(
                feature_dim=cfg.content_dim,
                num_lstm_layers=cfg.num_lstm_layers,
                init_std=cfg.init_std,
                seed=cfg.seed + 1,
            )
            self.content_encoder = make_content_encoder(cfg.content_encoder, vectorizer, encoder_config)

        input_dim = 0
        if cfg.use_history:
            input_dim += self.history_featurizer.feature_dim
        if cfg.use_content:
            input_dim += cfg.content_dim
        self.combiner = MLP(
            input_dim,
            [cfg.feature_dim] * cfg.num_fc_layers,
            final_activation=True,
            keep_prob=cfg.keep_prob,
            init_std=cfg.init_std,
            rng=rng,
        )
        self._history_cache = HotStore(self.HISTORY_CACHE_SIZE)

    # ----------------------------------------------------------------- pieces
    @property
    def feature_dim(self) -> int:
        """Dimensionality of ``F(r)``."""
        return self.config.feature_dim

    @property
    def history_cache_size(self) -> int:
        """Row bound of the ``Fv(r)`` memo."""
        return self._history_cache.capacity

    @history_cache_size.setter
    def history_cache_size(self, size: int) -> None:
        self._history_cache.capacity = size

    def history_feature(self, profile: Profile) -> np.ndarray:
        """``Fv(r)`` with memoisation (it does not depend on trainable weights)."""
        key = self._history_key(profile)
        cached = self._history_cache.get(key)
        if cached is None:
            cached = self.history_featurizer.featurize(profile)
            self._history_cache.put(key, cached)
        return cached

    @staticmethod
    def _history_key(profile: Profile) -> ProfileKey:
        """Memo key of ``Fv(r)``: :func:`repro.core.profile_key` with the tweet blanked.

        ``Fv(r)`` ignores the tweet.  The builder-stamped revision keeps a
        capped history that slid its window — same length, different
        visits — from hitting the stale row.
        """
        revision = UNREVISIONED if profile.revision is None else int(profile.revision)
        return (profile.uid, profile.ts, "", len(profile.visit_history), revision)

    def warm_history_row(self, profile: Profile, row: np.ndarray) -> None:
        """Seed the ``Fv(r)`` memo with an externally computed row.

        The live-serving hook: :class:`repro.service.stream.StreamScorer`
        computes the profile's history row incrementally
        (:meth:`repro.features.history.HistoricalVisitFeaturizer.featurize_delta`
        is bit-identical to the scratch batch path) and plants it here, so the
        serving gather's cold miss skips the Eq. (1)-(2) distance kernel and
        only runs the content encoder + combiner.
        """
        if not self.config.use_history:
            return
        if row.shape != (self.history_featurizer.feature_dim,):
            raise ValueError(
                f"history row has shape {row.shape}, "
                f"expected ({self.history_featurizer.feature_dim},)"
            )
        self._history_cache.put(self._history_key(profile), row, copy=True)

    def _history_rows(self, profiles: list[Profile]) -> np.ndarray:
        """The ``(B, |P|)`` history rows of a batch through the ``Fv(r)`` memo.

        One vectorised ``featurize_batch`` call replaces per-profile Eq. (1)-(2)
        loops for every cache miss in the batch; rows come back directly, so
        the result is right even when the batch outgrows the cache bound.
        """
        keys = [self._history_key(p) for p in profiles]
        featurize = self.history_featurizer.featurize_batch
        return resolve_rows(self._history_cache, keys, lambda at: featurize([profiles[i] for i in at]))[0]

    def raw_feature(self, profile: Profile) -> Tensor:
        """The concatenated ``[Fv(r), Fc(r)]`` of one profile (scalar reference).

        Uses the content encoder's scalar ``encode``; :meth:`forward` takes
        the batched path and must match this row by row within 1e-9.
        """
        parts: list[Tensor] = []
        if self.config.use_history:
            parts.append(Tensor(self.history_feature(profile)))
        if self.config.use_content:
            assert self.content_encoder is not None
            parts.append(self.content_encoder.encode(profile))
        if len(parts) == 1:
            return parts[0]
        return concatenate(parts, axis=0)

    # ---------------------------------------------------------------- forward
    def forward(self, profiles: list[Profile]) -> Tensor:
        """The HisRect features ``F(r)`` of a batch of profiles, ``(B, feature_dim)``.

        Both feature halves take their vectorised fast paths: histories warm
        through one ``featurize_batch`` call and the content encoder runs its
        batched recurrence (``ContentEncoder.encode_batch``), so training and
        cold-miss serving never loop the Python-level per-profile encoders.
        """
        if not profiles:
            raise ValueError("forward() needs at least one profile")
        parts: list[Tensor] = []
        if self.config.use_history:
            parts.append(Tensor(self._history_rows(profiles)))
        if self.config.use_content:
            assert self.content_encoder is not None
            parts.append(self.content_encoder.encode_batch(profiles))
        raw = parts[0] if len(parts) == 1 else concatenate(parts, axis=1)
        return self.combiner(raw)

    def featurize(self, profiles: list[Profile]) -> np.ndarray:
        """Detached features as a NumPy array (used once the featurizer is frozen).

        Runs :meth:`forward` inside :func:`repro.nn.autograd.inference_mode`,
        so ``ContentEncoder.encode_batch`` and the combiner's ``MLP.forward``
        run their layers' one batch definition on plain arrays: no autograd
        graph, dropout skipped, rows bit-identical to the ``Tensor`` path.  The module's
        ``training`` flag is never touched, so concurrent callers and a
        featurizer left in training mode get the same rows.

        A single profile is featurized as a pair with itself and the
        duplicate row dropped: at ``B=1`` BLAS takes its gemv kernels, whose
        rows drift ~1e-16 from the batched ones, so this keeps every row
        bit-identical to its value in any batch.
        """
        with inference_mode():
            if len(profiles) == 1:
                return self.forward([profiles[0], profiles[0]]).data[:1]
            return self.forward(profiles).data

    def featurize_batch(self, profiles: list[Profile]) -> np.ndarray:
        """Detached feature rows via one batched forward, ``(B, feature_dim)``.

        :meth:`featurize` plus an empty-batch guard.  The serving stack
        reaches the batch path through :meth:`featurize_profiles`, which
        chunks unbounded batches before taking the same forward.
        """
        if not profiles:
            return np.zeros((0, self.feature_dim))
        return self.featurize(profiles)

    def featurize_profiles(self, profiles: list[Profile]) -> np.ndarray:
        """Detached feature rows in bounded chunks, ``(B, feature_dim)``.

        The judges' ``featurize_profiles`` delegate here.  Serving builds no
        autograd graph, so the chunk bounds the padded ``(B, T, M)`` word-vector
        batch and the per-step state arrays of one forward pass, while each
        chunk still takes the vectorised history and batched content paths.
        """
        from repro.core.protocols import featurize_in_chunks

        return featurize_in_chunks(self, profiles)


class POIClassifier(Module):
    """The POI classifier ``P``: HisRect feature -> POI logits."""

    def __init__(
        self,
        feature_dim: int,
        num_pois: int,
        hidden_dim: int | None = None,
        num_layers: int = 1,
        keep_prob: float = 1.0,
        init_std: float | None = None,
        seed: int = 53,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.num_pois = num_pois
        layers: list[Module] = []
        current = feature_dim
        hidden_dim = hidden_dim or feature_dim
        for _ in range(max(0, num_layers - 1)):
            layers.append(MLP(current, [hidden_dim], final_activation=True, keep_prob=keep_prob,
                              init_std=init_std, rng=rng))
            current = hidden_dim
        self.hidden = layers
        self.dropout = Dropout(keep_prob, rng=rng) if keep_prob < 1.0 else None
        self.output = Linear(current, num_pois, init_std=init_std, rng=rng)

    def forward(self, features: Tensor) -> Tensor:
        x = features
        for layer in self.hidden:
            x = layer(x)
        if self.dropout is not None:
            x = self.dropout(x)
        return self.output(x)

    def _logits(self, features: np.ndarray) -> np.ndarray:
        """Serving logits: :meth:`forward` with no autograd graph and no dropout."""
        with inference_mode():
            return self.forward(Tensor(features)).data

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard POI (dense index) predictions from detached features."""
        return self._logits(features).argmax(axis=-1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """POI probability distribution per row of ``features``."""
        logits = self._logits(features)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=-1, keepdims=True)


class EmbeddingNetwork(Module):
    """The normalised embedding ``E`` (or ``E'``): a small MLP + L2 normalisation."""

    def __init__(
        self,
        input_dim: int,
        embedding_dim: int,
        num_layers: int = 2,
        normalize: bool = True,
        init_std: float | None = None,
        keep_prob: float = 1.0,
        seed: int = 59,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        sizes = [embedding_dim] * num_layers
        self.mlp = MLP(input_dim, sizes, final_activation=False, keep_prob=keep_prob,
                       init_std=init_std, rng=rng)
        self.normalize = normalize
        self.embedding_dim = embedding_dim

    def forward(self, features: Tensor) -> Tensor:
        embedded = self.mlp(features)
        if self.normalize:
            return l2_normalize(embedded, axis=-1)
        return embedded
