"""The serving path on plain arrays equals the ``Tensor`` path exactly.

``HisRectFeaturizer.featurize`` runs inside ``inference_mode``, where
``ContentEncoder.encode_batch`` and the combiner's ``MLP.forward`` hand plain
arrays to the one batch definition of their layers, and the judges score through
``CoLocationJudgeNetwork.forward`` inside the same mode.  These tests pin that feature rows and
probabilities are bit-identical (``np.array_equal``) to the autograd path for
every registered featurizer variant and all five content encoders, that the
serving path still calls the two public methods the per-layer timers wrap,
and that featurizing never flips the shared ``training`` flag.
"""

import sys
import threading

import numpy as np
import pytest
from test_content_batch import build_vectorizer, profiles_with_token_counts

from repro.colocation import OnePhaseConfig, OnePhaseModel
from repro.features import (
    CONTENT_ENCODERS,
    ContentEncoderConfig,
    HisRectConfig,
    HisRectFeaturizer,
    make_content_encoder,
)
from repro.features.content import ContentEncoder
from repro.features.hisrect import POIClassifier
from repro.nn import MLP, Linear, Tensor, inference_mode
from repro.registry import build, names

COUNTS = [[0, 3, 8, 4, 11], [5], [6, 6, 6], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] * 7]


def tensor_path_rows(featurizer, profiles):
    """Reference rows: ``forward`` on autograd ``Tensor``s, dropout off, chunked like serving."""
    from repro.core.protocols import FEATURIZE_CHUNK

    was_training = featurizer.training
    featurizer.eval()
    rows = []
    for start in range(0, len(profiles), FEATURIZE_CHUNK):
        piece = profiles[start : start + FEATURIZE_CHUNK]
        if len(piece) == 1:
            rows.append(featurizer.forward([piece[0], piece[0]]).data[:1])
        else:
            rows.append(featurizer.forward(piece).data)
    if was_training:
        featurizer.train()
    return np.concatenate(rows)


@pytest.fixture(scope="module")
def vectorizer():
    return build_vectorizer()


def featurizer_for(registry, vectorizer, **overrides):
    config = dict(content_dim=6, feature_dim=12, keep_prob=0.8, num_fc_layers=2)
    config.update(overrides)
    return HisRectFeaturizer(registry, vectorizer, HisRectConfig(**config))


class TestEncoderInferencePath:
    @pytest.mark.parametrize("kind", sorted(CONTENT_ENCODERS))
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("counts", COUNTS)
    def test_encode_batch_twin_is_exact(self, vectorizer, kind, num_layers, counts):
        config = ContentEncoderConfig(feature_dim=6, num_lstm_layers=num_layers, seed=3)
        encoder = make_content_encoder(kind, vectorizer, config)
        profiles = profiles_with_token_counts(counts)
        reference = encoder.encode_batch(profiles)
        assert reference.requires_grad
        with inference_mode():
            served = encoder.encode_batch(profiles)
        assert not served.requires_grad
        assert np.array_equal(served.data, reference.data)

    def test_bilstm_c_twin_rejects_short_rows(self, vectorizer):
        encoder = make_content_encoder("bilstm-c", vectorizer, ContentEncoderConfig(feature_dim=4))
        with pytest.raises(ValueError, match="at least 3 tokens"):
            encoder._encode_batch(np.zeros((1, 2, vectorizer.word_dim)), np.array([2]))


class TestFeaturizerInferencePath:
    @pytest.mark.parametrize("variant", names("featurizer"))
    @pytest.mark.parametrize("counts", COUNTS)
    def test_every_registered_variant(self, small_registry, vectorizer, variant, counts):
        overrides = {"content_dim": 6, "feature_dim": 12, "keep_prob": 0.8}
        config = build("featurizer", variant, overrides)
        featurizer = HisRectFeaturizer(small_registry, vectorizer, config)
        profiles = profiles_with_token_counts(counts)
        reference = tensor_path_rows(featurizer, profiles)
        assert np.array_equal(featurizer.featurize_profiles(profiles), reference)

    @pytest.mark.parametrize("kind", ["bgru", "attention"])
    def test_extension_encoders(self, small_registry, vectorizer, kind):
        featurizer = featurizer_for(small_registry, vectorizer, content_encoder=kind)
        for counts in COUNTS:
            profiles = profiles_with_token_counts(counts)
            reference = tensor_path_rows(featurizer, profiles)
            assert np.array_equal(featurizer.featurize_profiles(profiles), reference)

    def test_featurize_leaves_training_flag_alone(self, small_registry, vectorizer):
        featurizer = featurizer_for(small_registry, vectorizer)
        profiles = profiles_with_token_counts([3, 7, 0])
        featurizer.train()
        calls = []
        featurizer.eval = lambda: calls.append("eval")
        featurizer.train = lambda: calls.append("train")
        try:
            train_rows = featurizer.featurize(profiles)
        finally:
            del featurizer.eval, featurizer.train
        assert calls == []
        assert all(module.training for module in featurizer.modules())
        featurizer.eval()
        eval_rows = featurizer.featurize(profiles)
        assert not any(module.training for module in featurizer.modules())
        assert np.array_equal(train_rows, eval_rows)

    def test_concurrent_callers_of_a_training_mode_featurizer(self, small_registry, vectorizer):
        """Four threads featurize while the flag says training; every row is the eval row."""
        featurizer = featurizer_for(small_registry, vectorizer, keep_prob=0.5)
        batches = [profiles_with_token_counts([n % 9 + 1, n % 5 + 2]) for n in range(8)]
        expected = [tensor_path_rows(featurizer, batch) for batch in batches]
        featurizer.train()
        failures = []

        def serve():
            for _ in range(10):
                for batch, want in zip(batches, expected):
                    if not np.array_equal(featurizer.featurize_profiles(batch), want):
                        failures.append(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert all(module.training for module in featurizer.modules())

    def test_calls_through_encode_batch_and_combiner_forward(
        self, small_registry, vectorizer, monkeypatch
    ):
        """The per-layer timers wrap these two methods by name; serving must still call them."""
        featurizer = featurizer_for(small_registry, vectorizer)
        seen = []
        encode_batch, mlp_forward = ContentEncoder.encode_batch, MLP.forward

        def spy_encode_batch(self, profiles):
            seen.append(("content", self is featurizer.content_encoder, len(profiles)))
            return encode_batch(self, profiles)

        def spy_forward(self, x):
            seen.append(("combiner", self is featurizer.combiner, x.shape[0]))
            return mlp_forward(self, x)

        monkeypatch.setattr(ContentEncoder, "encode_batch", spy_encode_batch)
        monkeypatch.setattr(MLP, "forward", spy_forward)
        featurizer.featurize_profiles(profiles_with_token_counts([4, 6, 2]))
        assert seen == [("content", True, 3), ("combiner", True, 3)]


class TestBatchIndependence:
    """A row never depends on the profiles it is batched with (the partitioning contract)."""

    @pytest.mark.parametrize("kind", sorted(CONTENT_ENCODERS))
    @pytest.mark.parametrize("batch_size", [2, 5, 33])
    def test_row_equals_the_row_padded_alone(self, small_registry, kind, batch_size):
        vectorizer = build_vectorizer(max_tokens=16)
        featurizer = featurizer_for(small_registry, vectorizer, content_encoder=kind)
        counts = np.random.default_rng(batch_size).integers(0, 17, size=batch_size)
        counts[0] = 16  # pad every other row to the longest tweet
        profiles = profiles_with_token_counts(counts.tolist())
        rows = featurizer.featurize(profiles)
        for row, profile in zip(rows, profiles):
            assert np.array_equal(row, featurizer.featurize([profile, profile])[0])

    @pytest.mark.parametrize("kind", sorted(CONTENT_ENCODERS))
    @pytest.mark.parametrize("batch_size", [2, 5, 33])
    def test_row_equals_the_profile_featurized_alone(self, small_registry, kind, batch_size):
        """A live tweet is featurized on its own; its row must equal its batched row."""
        vectorizer = build_vectorizer(max_tokens=16)
        featurizer = featurizer_for(small_registry, vectorizer, content_encoder=kind)
        counts = np.random.default_rng(batch_size).integers(0, 17, size=batch_size)
        counts[0] = 16
        profiles = profiles_with_token_counts(counts.tolist())
        rows = featurizer.featurize(profiles)
        for row, profile in zip(rows, profiles):
            alone = featurizer.featurize([profile])
            assert alone.shape == (1, featurizer.feature_dim)
            assert np.array_equal(row, alone[0])


class TestServingBuildsNoStepTensors:
    @pytest.mark.parametrize("kind", ["bilstm-c", "bgru"])
    def test_tensor_count_is_independent_of_batch_shape(self, small_registry, kind, monkeypatch):
        """Serving wraps a few arrays in ``Tensor``s per call, never one per step or row."""
        vectorizer = build_vectorizer(max_tokens=16)
        featurizer = featurizer_for(small_registry, vectorizer, content_encoder=kind)
        created = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        counts = []
        for batch_size, tokens in ((2, 4), (8, 16)):
            profiles = profiles_with_token_counts([tokens] * batch_size)
            created.clear()
            featurizer.featurize(profiles)
            counts.append(len(created))
        assert counts[0] == counts[1]
        assert counts[0] <= 6


class TestScoringInferencePath:
    def test_hisrect_judge_probabilities_are_exact(self, fitted_pipeline, tiny_dataset):
        judge = fitted_pipeline.judge
        pairs = tiny_dataset.train.labeled_pairs[:50]
        for count in (1, 2, len(pairs)):
            left = judge.profile_features([p.left for p in pairs[:count]])
            right = judge.profile_features([p.right for p in pairs[:count]])
            logits = judge.network(Tensor(left), Tensor(right)).data
            expected = 1.0 / (1.0 + np.exp(-logits))
            assert np.array_equal(judge.score_feature_pairs(left, right), expected)

    def test_one_phase_rows_and_probabilities_are_exact(self, fitted_pipeline, tiny_dataset):
        featurizer = HisRectFeaturizer(
            tiny_dataset.registry, fitted_pipeline.vectorizer, fitted_pipeline.config.hisrect
        )
        model = OnePhaseModel(featurizer, OnePhaseConfig(max_iterations=3, batch_size=4))
        model.fit(tiny_dataset.train.labeled_pairs)
        pairs = tiny_dataset.train.labeled_pairs[:20]
        lefts, rights = [p.left for p in pairs], [p.right for p in pairs]
        left, right = model.featurize_profiles(lefts), model.featurize_profiles(rights)
        assert np.array_equal(left, tensor_path_rows(featurizer, lefts))
        logits = model.network(Tensor(left), Tensor(right)).data
        assert np.array_equal(model.score_feature_pairs(left, right), 1.0 / (1.0 + np.exp(-logits)))

    def test_poi_classifier_serves_without_a_graph(self, monkeypatch):
        classifier = POIClassifier(6, 4, num_layers=2, keep_prob=0.8, seed=5)
        features = np.random.default_rng(0).normal(size=(5, 6))
        classifier.eval()
        reference = classifier(Tensor(features)).data
        classifier.train()
        outputs = []
        forward = Linear.forward

        def spy(self, x):
            out = forward(self, x)
            # The hidden MLPs hand their Linear layers plain arrays in serving.
            outputs.append(isinstance(out, Tensor) and out.requires_grad)
            return out

        monkeypatch.setattr(Linear, "forward", spy)
        np.testing.assert_array_equal(classifier.predict(features), reference.argmax(axis=-1))
        proba = classifier.predict_proba(features)
        assert outputs and not any(outputs)
        assert np.array_equal(proba.argmax(axis=-1), reference.argmax(axis=-1))
