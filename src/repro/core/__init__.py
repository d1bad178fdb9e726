"""Core abstractions shared by every co-location judge in the library.

The paper's Section 6.4.4 observation — a fitted judge answers in about a
millisecond, so it "can work in online scenarios" — only pays off if every
judge-like model speaks the same language.  This package defines that
language:

* :class:`repro.core.protocols.CoLocationJudge` — the structural protocol all
  judges implement (``predict_proba`` / ``predict`` / ``probability_matrix``).
* :class:`repro.core.protocols.FeatureSpaceJudge` — the optional feature-level
  interface (``featurize_profiles`` / ``score_feature_pairs``) that lets the
  :class:`repro.api.ColocationEngine` cache per-profile HisRect features and
  score pairs without re-featurizing.
* :class:`repro.core.protocols.TrainableApproach` — anything fittable on a
  :class:`repro.data.dataset.ColocationDataset`; what
  ``repro.registry.build("judge", name, config)`` returns.
* :class:`repro.core.strategy.TrainingStrategy` — the strategy objects that
  :meth:`repro.colocation.CoLocationPipeline.fit` dispatches to instead of
  branching on ``config.mode``.
"""

from repro.core.protocols import (
    FEATURIZE_CHUNK,
    UNREVISIONED,
    CoLocationJudge,
    FeatureSpaceJudge,
    ProfileKey,
    RevisionedKeyIndex,
    TrainableApproach,
    featurize_in_chunks,
    featurizer_dim,
    pairwise_probability_matrix,
    profile_key,
    shared_poi_probability_matrix,
    superseded_keys,
)
from repro.core.strategy import TrainingStrategy

__all__ = [
    "CoLocationJudge",
    "FeatureSpaceJudge",
    "TrainableApproach",
    "TrainingStrategy",
    "ProfileKey",
    "RevisionedKeyIndex",
    "FEATURIZE_CHUNK",
    "UNREVISIONED",
    "profile_key",
    "featurize_in_chunks",
    "featurizer_dim",
    "pairwise_probability_matrix",
    "shared_poi_probability_matrix",
    "superseded_keys",
]
