"""HisRect features: historical-visit features, content encoders and the featurizer."""

from repro.features.content import (
    CONTENT_ENCODERS,
    AttentionContentEncoder,
    BiGRUContentEncoder,
    BiLSTMCContentEncoder,
    BLSTMContentEncoder,
    ContentEncoder,
    ContentEncoderConfig,
    ConvLSTMContentEncoder,
    TextVectorizer,
    make_content_encoder,
)
from repro.features.hisrect import (
    EmbeddingNetwork,
    HisRectConfig,
    HisRectFeaturizer,
    POIClassifier,
)
from repro.features.history import (
    HistoricalVisitFeaturizer,
    HistoryDeltaState,
    HistoryDeltaTracker,
    HistoryFeatureConfig,
    OneHotHistoryFeaturizer,
)

__all__ = [
    "HistoryFeatureConfig",
    "HistoricalVisitFeaturizer",
    "HistoryDeltaState",
    "HistoryDeltaTracker",
    "OneHotHistoryFeaturizer",
    "ContentEncoder",
    "ContentEncoderConfig",
    "TextVectorizer",
    "BiLSTMCContentEncoder",
    "BLSTMContentEncoder",
    "ConvLSTMContentEncoder",
    "BiGRUContentEncoder",
    "AttentionContentEncoder",
    "CONTENT_ENCODERS",
    "make_content_encoder",
    "HisRectConfig",
    "HisRectFeaturizer",
    "POIClassifier",
    "EmbeddingNetwork",
]
