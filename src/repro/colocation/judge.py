"""The HisRect-based co-location judge (paper Section 5).

Given the frozen HisRect features ``F(r_i)`` and ``F(r_j)`` of the two profiles
in a pair, the judge embeds both with a second embedding network ``E'``, feeds
the element-wise absolute difference ``|E'(F(r_i)) - E'(F(r_j))|`` to a
feed-forward classifier ``C`` topped by a sigmoid, and declares the pair
co-located when the probability exceeds a threshold (0.5 by default).

Because the featurizer is fixed at this stage, profiles are featurised once
into NumPy arrays and the judge trains on plain vectors, which keeps the
second phase fast (this mirrors the paper's observation that judging a pair
takes ~1 ms once the networks are trained).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.protocols import (
    profile_key,
    symmetric_probability_matrix,
    upper_triangle_pairs,
)
from repro.data.records import Pair, Profile
from repro.errors import NotFittedError, TrainingError
from repro.features.hisrect import EmbeddingNetwork, HisRectFeaturizer
from repro.nn.autograd import Tensor, inference_mode, sigmoid
from repro.nn.layers import MLP, Linear
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.module import Module
from repro.nn.optim import Adam, clip_grad_norm
from repro.store import HotStore, resolve_rows


@dataclass
class JudgeConfig:
    """Architecture and training hyper-parameters of the co-location judge."""

    #: Embedding dimensionality and depth of ``E'`` (``Q_e'`` layers).
    embedding_dim: int = 16
    num_embedding_layers: int = 2
    #: Width and depth of the classifier ``C`` (``Q_c`` layers).
    classifier_dim: int = 16
    num_classifier_layers: int = 3
    keep_prob: float = 0.8
    #: Gaussian init std; ``None`` uses fan-in (He) scaling.
    init_std: float | None = None
    #: Decision threshold on the co-location probability.
    threshold: float = 0.5
    # Training.
    batch_size: int = 32
    epochs: int = 40
    learning_rate: float = 0.01
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    lr_decay: float = 1e-3
    #: Fraction of negative pairs kept per epoch (paper: 1/10).
    negative_fraction: float = 0.2
    seed: int = 71


class CoLocationJudgeNetwork(Module):
    """``E'`` + ``C`` + sigmoid head operating on pairs of feature vectors."""

    def __init__(self, feature_dim: int, config: JudgeConfig):
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.embedding = EmbeddingNetwork(
            feature_dim,
            config.embedding_dim,
            num_layers=config.num_embedding_layers,
            normalize=False,
            init_std=config.init_std,
            keep_prob=config.keep_prob,
            seed=config.seed + 1,
        )
        self.classifier = MLP(
            config.embedding_dim,
            [config.classifier_dim] * max(1, config.num_classifier_layers - 1),
            final_activation=True,
            keep_prob=config.keep_prob,
            init_std=config.init_std,
            rng=rng,
        )
        self.output = Linear(config.classifier_dim, 1, init_std=config.init_std, rng=rng)

    def forward(self, left_features: Tensor, right_features: Tensor) -> Tensor:
        """Raw co-location logits, shape ``(B,)``."""
        left_emb = self.embedding(left_features)
        right_emb = self.embedding(right_features)
        difference = (left_emb - right_emb).abs()
        hidden = self.classifier(difference)
        return self.output(hidden).reshape(difference.shape[0])


@dataclass
class JudgeTrainingHistory:
    """Loss trace of judge training."""

    losses: list[float] = field(default_factory=list)


class HisRectCoLocationJudge:
    """Phase-two model: featurize with a frozen ``F`` and judge co-location."""

    #: Default bound on memoised feature rows (Comp2Loc's memo shares it).
    #: :meth:`fit` raises its memo's capacity to the training set's
    #: distinct-profile count so epoch scans never thrash.
    FEATURE_CACHE_SIZE = 8192

    def __init__(self, featurizer: HisRectFeaturizer, config: JudgeConfig | None = None):
        self.featurizer = featurizer
        self.config = config or JudgeConfig()
        self.network = CoLocationJudgeNetwork(featurizer.feature_dim, self.config)
        self._rng = np.random.default_rng(self.config.seed)
        self._feature_cache = HotStore(self.FEATURE_CACHE_SIZE)
        self._fitted = False

    # ---------------------------------------------------------------- features
    def featurize_profiles(self, profiles: list[Profile]) -> np.ndarray:
        """Frozen HisRect feature rows for profiles (uncached, chunked).

        Delegates to the featurizer's own batch path, so each chunk computes
        its history features in one vectorised pass.
        """
        return self.featurizer.featurize_profiles(profiles)

    def profile_features(self, profiles: list[Profile]) -> np.ndarray:
        """Frozen HisRect features for profiles, memoised across calls.

        The memo is a bounded :class:`repro.store.HotStore` keyed by the
        revision-carrying :func:`repro.core.profile_key`, so a mutated
        profile (higher revision) can never read a stale row; dead
        generations are reclaimed by :meth:`invalidate`.  Serving-layer
        callers should prefer the engine's cache; this memo backs direct
        judge calls and training epochs.
        """
        keys = [profile_key(p) for p in profiles]
        featurize = self.featurize_profiles
        return resolve_rows(self._feature_cache, keys, lambda at: featurize([profiles[i] for i in at]))[0]

    def invalidate(self, uids: list[int]) -> int:
        """Drop memoised rows of the given users; returns rows dropped."""
        return self._feature_cache.invalidate(uids)

    def clear_cache(self) -> None:
        """Drop memoised features (needed if the featurizer is retrained)."""
        self._feature_cache.clear()

    # ---------------------------------------------------------------- training
    def fit(self, labeled_pairs: list[Pair]) -> JudgeTrainingHistory:
        """Train ``E'`` and ``C`` on labelled pairs with the featurizer frozen."""
        positives = [p for p in labeled_pairs if p.is_positive]
        negatives = [p for p in labeled_pairs if p.is_negative]
        if not positives or not negatives:
            raise TrainingError("judge training needs both positive and negative pairs")

        cfg = self.config
        profiles = []
        for pair in labeled_pairs:
            profiles.append(pair.left)
            profiles.append(pair.right)
        # Warm the feature memo once for all involved profiles, raising its
        # bound to the training set's distinct-profile count first so the
        # epoch batch loop re-reads warm rows instead of thrashing.
        distinct = len({profile_key(p) for p in profiles})
        self._feature_cache.capacity = max(self._feature_cache.capacity, distinct)
        self.profile_features(profiles)

        optimizer = Adam(self.network.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        history = JudgeTrainingHistory()
        self.network.train()
        for _ in range(cfg.epochs):
            epoch_pairs = list(positives)
            if 0.0 < cfg.negative_fraction < 1.0:
                keep = max(1, int(round(len(negatives) * cfg.negative_fraction)))
                indices = self._rng.choice(len(negatives), size=min(keep, len(negatives)), replace=False)
                epoch_pairs += [negatives[int(i)] for i in indices]
            else:
                epoch_pairs += negatives
            order = self._rng.permutation(len(epoch_pairs))
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(epoch_pairs), cfg.batch_size):
                batch = [epoch_pairs[int(i)] for i in order[start : start + cfg.batch_size]]
                left = self.profile_features([p.left for p in batch])
                right = self.profile_features([p.right for p in batch])
                labels = np.array([p.co_label for p in batch], dtype=np.float64)
                logits = self.network(Tensor(left), Tensor(right))
                loss = binary_cross_entropy_with_logits(logits, labels)
                self.network.zero_grad()
                loss.backward()
                clip_grad_norm(optimizer.parameters, cfg.grad_clip)
                optimizer.decay_lr(cfg.lr_decay)
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            history.losses.append(epoch_loss / max(1, batches))
        self.network.eval()
        self._fitted = True
        return history

    # --------------------------------------------------------------- inference
    @property
    def decision_threshold(self) -> float:
        """The probability threshold behind :meth:`predict`."""
        return self.config.threshold

    def score_feature_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Co-location probabilities from two aligned HisRect feature matrices."""
        if not self._fitted:
            raise NotFittedError("the co-location judge has not been fitted")
        if len(left) == 0:
            return np.zeros(0)
        with inference_mode():
            logits = self.network(Tensor(left), Tensor(right)).data
        return sigmoid(logits)

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability for each pair."""
        if not self._fitted:
            raise NotFittedError("the co-location judge has not been fitted")
        if not pairs:
            return np.zeros(0)
        left = self.profile_features([p.left for p in pairs])
        right = self.profile_features([p.right for p in pairs])
        return self.score_feature_pairs(left, right)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions (1 = co-located)."""
        return (self.predict_proba(pairs) >= self.config.threshold).astype(int)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """The ``N x N`` pairwise co-location probability matrix (clustering input)."""
        if not self._fitted:
            raise NotFittedError("the co-location judge has not been fitted")
        n = len(profiles)
        if n < 2:
            return np.zeros((n, n))
        features = self.profile_features(profiles)
        index_pairs = upper_triangle_pairs(n)
        left = np.stack([features[i] for i, _ in index_pairs])
        right = np.stack([features[j] for _, j in index_pairs])
        probs = self.score_feature_pairs(left, right)
        return symmetric_probability_matrix(n, index_pairs, probs)
