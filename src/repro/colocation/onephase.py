"""One-phase: end-to-end training of featurizer + judge on the pair loss only.

The paper's *One-phase* baseline skips the HisRect feature-training stage: the
featurizer ``F``, the pair embedding ``E'`` and the classifier ``C`` are wired
together and trained jointly on ``L_co`` over the labelled pairs.  Because it
never sees the labelled profiles outside pairs nor any unlabelled data, it
exploits less information than the two-phase HisRect approach — which is the
point of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.colocation.judge import CoLocationJudgeNetwork, JudgeConfig
from repro.core.protocols import pairwise_probability_matrix
from repro.data.records import Pair, Profile
from repro.errors import NotFittedError, TrainingError
from repro.features.hisrect import HisRectFeaturizer
from repro.nn.autograd import Tensor, inference_mode, sigmoid
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.optim import Adam, clip_grad_norm


@dataclass
class OnePhaseConfig:
    """Training hyper-parameters of the One-phase model."""

    judge: JudgeConfig = field(default_factory=JudgeConfig)
    batch_size: int = 8
    max_iterations: int = 200
    learning_rate: float = 0.01
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    lr_decay: float = 1e-3
    #: Fraction of negative pairs kept in the sampling pool (paper: 1/10).
    negative_fraction: float = 0.1
    seed: int = 83


class OnePhaseModel:
    """Featurizer + judge trained end-to-end on the co-location loss."""

    def __init__(self, featurizer: HisRectFeaturizer, config: OnePhaseConfig | None = None):
        self.featurizer = featurizer
        self.config = config or OnePhaseConfig()
        self.network = CoLocationJudgeNetwork(featurizer.feature_dim, self.config.judge)
        self._rng = np.random.default_rng(self.config.seed)
        self._fitted = False

    def fit(self, labeled_pairs: list[Pair]) -> list[float]:
        """Jointly train ``F``, ``E'`` and ``C``; returns the per-step loss trace."""
        positives = [p for p in labeled_pairs if p.is_positive]
        negatives = [p for p in labeled_pairs if p.is_negative]
        if not positives or not negatives:
            raise TrainingError("One-phase training needs both positive and negative pairs")
        cfg = self.config
        pool = list(positives)
        if 0.0 < cfg.negative_fraction < 1.0 and negatives:
            keep = max(1, int(round(len(negatives) * cfg.negative_fraction)))
            indices = self._rng.choice(len(negatives), size=min(keep, len(negatives)), replace=False)
            pool += [negatives[int(i)] for i in indices]
        else:
            pool += negatives

        optimizer = Adam(
            self.featurizer.parameters() + self.network.parameters(),
            lr=cfg.learning_rate,
            weight_decay=cfg.weight_decay,
        )
        losses: list[float] = []
        self.featurizer.train()
        self.network.train()
        for _ in range(cfg.max_iterations):
            indices = self._rng.choice(len(pool), size=min(cfg.batch_size, len(pool)), replace=False)
            batch = [pool[int(i)] for i in indices]
            left = self.featurizer([p.left for p in batch])
            right = self.featurizer([p.right for p in batch])
            labels = np.array([p.co_label for p in batch], dtype=np.float64)
            logits = self.network(left, right)
            loss = binary_cross_entropy_with_logits(logits, labels)
            self.featurizer.zero_grad()
            self.network.zero_grad()
            loss.backward()
            clip_grad_norm(optimizer.parameters, cfg.grad_clip)
            optimizer.decay_lr(cfg.lr_decay)
            optimizer.step()
            losses.append(loss.item())
        self.featurizer.eval()
        self.network.eval()
        self._fitted = True
        return losses

    @property
    def decision_threshold(self) -> float:
        """The probability threshold behind :meth:`predict`."""
        return self.config.judge.threshold

    def featurize_profiles(self, profiles: list[Profile]) -> np.ndarray:
        """Feature rows for profiles through the jointly-trained featurizer.

        Delegates to the featurizer's own batch path, so each chunk computes
        its history features in one vectorised pass.
        """
        if not self._fitted:
            raise NotFittedError("the One-phase model has not been fitted")
        return self.featurizer.featurize_profiles(profiles)

    def score_feature_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Co-location probabilities from two aligned feature matrices."""
        if not self._fitted:
            raise NotFittedError("the One-phase model has not been fitted")
        if len(left) == 0:
            return np.zeros(0)
        with inference_mode():
            logits = self.network(Tensor(left), Tensor(right)).data
        return sigmoid(logits)

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probabilities for pairs."""
        if not self._fitted:
            raise NotFittedError("the One-phase model has not been fitted")
        if not pairs:
            return np.zeros(0)
        left = self.featurizer.featurize([p.left for p in pairs])
        right = self.featurizer.featurize([p.right for p in pairs])
        return self.score_feature_pairs(left, right)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions."""
        return (self.predict_proba(pairs) >= self.config.judge.threshold).astype(int)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """Pairwise probability matrix via the generic pair-scoring fallback.

        The :class:`repro.api.ColocationEngine` computes the same matrix from
        cached per-profile features, featurizing each profile exactly once.
        """
        if not self._fitted:
            raise NotFittedError("the One-phase model has not been fitted")
        return pairwise_probability_matrix(self, profiles)
