"""A co-location judge augmented with social and frequent-pattern features.

The paper's future-work section suggests that social relationships and shared
visit patterns could strengthen co-location judgement.  This module stacks a
small logistic layer on top of an already-trained HisRect judge: the stacked
model sees the base judge's logit plus the :class:`SocialFeatureExtractor`
features and learns how much to trust each signal.  Keeping the base judge
frozen mirrors how the paper trains the judge on top of a frozen featurizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.protocols import pairwise_probability_matrix
from repro.data.records import Pair, Profile
from repro.errors import NotFittedError, TrainingError
from repro.nn import (
    Adam,
    Linear,
    Tensor,
    binary_cross_entropy_with_logits,
    clip_grad_norm,
    inference_mode,
)
from repro.social.features import SocialFeatureExtractor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.dataset import ColocationDataset


@dataclass
class SocialJudgeConfig:
    """Hyperparameters of the stacked social judge."""

    epochs: int = 40
    learning_rate: float = 0.05
    weight_decay: float = 1e-4
    batch_size: int = 64
    grad_clip: float = 5.0
    threshold: float = 0.5
    seed: int = 53

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise TrainingError("epochs must be at least 1")
        if not 0.0 < self.threshold < 1.0:
            raise TrainingError("threshold must be in (0, 1)")


@dataclass
class SocialJudgeHistory:
    """Loss trace of the stacked-model training."""

    losses: list[float] = field(default_factory=list)


def _logit(probabilities: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    clipped = np.clip(probabilities, eps, 1.0 - eps)
    return np.log(clipped / (1.0 - clipped))


class SocialCoLocationJudge:
    """Stack social features on top of a trained base co-location judge.

    ``base_judge`` is anything exposing ``predict_proba(pairs) -> np.ndarray``
    (the HisRect judge, the One-phase model or the pipeline itself).
    """

    def __init__(
        self,
        base_judge,
        extractor: SocialFeatureExtractor,
        config: SocialJudgeConfig | None = None,
    ):
        self.base_judge = base_judge
        self.extractor = extractor
        self.config = config or SocialJudgeConfig()
        self._rng = np.random.default_rng(self.config.seed)
        # +1 for the base judge's logit.
        self.stacker = Linear(extractor.feature_dim + 1, 1, init_std=0.01, rng=self._rng)
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None
        self._fitted = False

    # ---------------------------------------------------------------- features
    def _design_matrix(self, pairs: list[Pair]) -> np.ndarray:
        base_logits = _logit(np.asarray(self.base_judge.predict_proba(pairs), dtype=float))
        social = self.extractor.featurize_pairs(pairs)
        if self._feature_mean is not None and self._feature_std is not None:
            social = (social - self._feature_mean) / self._feature_std
        return np.column_stack([base_logits, social])

    # ---------------------------------------------------------------- training
    def fit(self, labeled_pairs: list[Pair]) -> SocialJudgeHistory:
        """Train the stacking layer on labelled pairs (base judge stays frozen)."""
        labeled = [p for p in labeled_pairs if p.is_labeled]
        positives = [p for p in labeled if p.is_positive]
        negatives = [p for p in labeled if p.is_negative]
        if not positives or not negatives:
            raise TrainingError("social judge training needs both positive and negative pairs")

        raw_social = self.extractor.featurize_pairs(labeled)
        self._feature_mean = raw_social.mean(axis=0)
        std = raw_social.std(axis=0)
        std[std < 1e-8] = 1.0
        self._feature_std = std

        design = self._design_matrix(labeled)
        labels = np.array([p.co_label for p in labeled], dtype=np.float64)

        cfg = self.config
        optimizer = Adam(self.stacker.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
        history = SocialJudgeHistory()
        num_rows = design.shape[0]
        for _ in range(cfg.epochs):
            order = self._rng.permutation(num_rows)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, num_rows, cfg.batch_size):
                index = order[start : start + cfg.batch_size]
                logits = self.stacker(Tensor(design[index])).reshape(len(index))
                loss = binary_cross_entropy_with_logits(logits, labels[index])
                self.stacker.zero_grad()
                loss.backward()
                clip_grad_norm(optimizer.parameters, cfg.grad_clip)
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            history.losses.append(epoch_loss / max(1, batches))
        self._fitted = True
        return history

    # --------------------------------------------------------------- inference
    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("the social co-location judge has not been fitted")

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability for each pair, blending HisRect and social signals."""
        self._require_fitted()
        if not pairs:
            return np.zeros(0)
        design = self._design_matrix(pairs)
        with inference_mode():
            logits = self.stacker(Tensor(design)).data.reshape(-1)
        return 1.0 / (1.0 + np.exp(-logits))

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions (1 = co-located)."""
        return (self.predict_proba(pairs) >= self.config.threshold).astype(int)

    @property
    def decision_threshold(self) -> float:
        """The probability threshold behind :meth:`predict`."""
        return self.config.threshold

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """Pairwise co-location probability matrix (generic pair-scoring path).

        Social features are defined per *pair*, so there is no feature-level
        shortcut; every unordered pair is scored through the stacker.
        """
        self._require_fitted()
        return pairwise_probability_matrix(self, profiles)

    def feature_weights(self) -> dict[str, float]:
        """Learned weight per input signal (useful for interpreting the blend)."""
        self._require_fitted()
        weights = self.stacker.weight.data.reshape(-1)
        names = ("base_logit",) + self.extractor.feature_names
        return {name: float(weight) for name, weight in zip(names, weights)}


@dataclass
class SocialApproachConfig:
    """Configuration of the registry-buildable social approach."""

    #: Configuration of the base HisRect pipeline (serialised PipelineConfig).
    base: dict[str, Any] = field(default_factory=dict)
    #: Synthetic friendship-graph generator settings.
    graph: dict[str, Any] = field(default_factory=dict)
    #: Stacked-judge training hyper-parameters.
    judge: dict[str, Any] = field(default_factory=dict)


class SocialColocationApproach:
    """Trainable wrapper: base pipeline + friendship graph + stacked judge.

    Registered under ``("judge", "social")``.  Fitting trains (or reuses) a
    two-phase HisRect pipeline, generates a friendship graph correlated with
    co-visitation over the training timelines, extracts social pair features
    and trains the stacking layer — everything from one dataset, so the
    approach composes with the CLI and the experiment runners.
    """

    def __init__(self, config: SocialApproachConfig | None = None, base_judge=None):
        self.config = config or SocialApproachConfig()
        self.base_judge = base_judge
        self.model: SocialCoLocationJudge | None = None

    @classmethod
    def from_config(cls, config: dict[str, Any] | None = None) -> "SocialColocationApproach":
        from repro.io.configs import config_from_dict

        return cls(config_from_dict(SocialApproachConfig, config or {}))

    def to_config(self) -> dict[str, Any]:
        from repro.io.configs import config_to_dict

        return config_to_dict(self.config)

    def fit(self, dataset: "ColocationDataset") -> "SocialColocationApproach":
        """Train the base judge (unless shared), the graph and the stacker."""
        from repro.io.configs import config_from_dict
        from repro.social.graph import SocialGraphConfig, generate_social_graph

        if self.base_judge is None:
            from repro.colocation.pipeline import CoLocationPipeline

            base = CoLocationPipeline.from_config(dict(self.config.base, mode="two-phase"))
            self.base_judge = base.fit(dataset)
        graph_config = config_from_dict(SocialGraphConfig, self.config.graph)
        graph = generate_social_graph(dataset.train.store, dataset.registry, graph_config)
        extractor = SocialFeatureExtractor(graph, dataset.registry, delta_t=dataset.delta_t)
        judge_config = config_from_dict(SocialJudgeConfig, self.config.judge)
        self.model = SocialCoLocationJudge(self.base_judge, extractor, judge_config)
        self.model.fit(dataset.train.labeled_pairs)
        return self

    def _require_model(self) -> SocialCoLocationJudge:
        if self.model is None:
            raise NotFittedError("SocialColocationApproach.fit() has not been called")
        return self.model

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        return self._require_model().predict_proba(pairs)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        return self._require_model().predict(pairs)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        return self._require_model().probability_matrix(profiles)

    def feature_weights(self) -> dict[str, float]:
        return self._require_model().feature_weights()


def _register_social_judge() -> None:
    from repro.registry import register

    register(
        "judge",
        "social",
        factory=SocialColocationApproach.from_config,
        description="HisRect stacked with social / frequent-pattern pair features",
    )


_register_social_judge()
