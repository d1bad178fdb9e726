"""Tests for the ColocationEngine serving facade."""

import numpy as np
import pytest

from repro.api import ColocationEngine, JudgeRequest, JudgeResponse
from repro.errors import ConfigurationError


class StubJudge:
    """Minimal duck-typed judge: predict_proba only (no feature interface)."""

    def predict_proba(self, pairs):
        return np.array(
            [0.9 if (p.left.pid is not None and p.left.pid == p.right.pid) else 0.1 for p in pairs]
        )


class CountingFeaturizer:
    """Temporarily counts profile rows through ``featurizer.featurize``."""

    def __init__(self, featurizer):
        self.featurizer = featurizer
        self.rows = 0
        self._original = featurizer.featurize

    def __enter__(self):
        def counting(profiles):
            self.rows += len(profiles)
            return self._original(profiles)

        self.featurizer.featurize = counting
        return self

    def __exit__(self, *exc):
        self.featurizer.featurize = self._original
        return False


@pytest.fixture()
def engine(fitted_pipeline):
    return ColocationEngine(fitted_pipeline, cache_size=256)


@pytest.fixture(scope="module")
def test_pairs(tiny_dataset):
    pairs = tiny_dataset.test.labeled_pairs or tiny_dataset.train.labeled_pairs
    return pairs[:20]


class TestConstruction:
    def test_rejects_non_judges(self):
        with pytest.raises(ConfigurationError):
            ColocationEngine(object())

    def test_rejects_bad_settings(self, fitted_pipeline):
        with pytest.raises(ConfigurationError):
            ColocationEngine(fitted_pipeline, cache_size=-1)
        with pytest.raises(ConfigurationError):
            ColocationEngine(fitted_pipeline, batch_size=0)
        with pytest.raises(ConfigurationError):
            ColocationEngine(fitted_pipeline, threshold=1.5)

    def test_ensure_passes_engines_through(self, engine):
        assert ColocationEngine.ensure(engine) is engine

    def test_ensure_wraps_raw_judges(self, fitted_pipeline):
        wrapped = ColocationEngine.ensure(fitted_pipeline)
        assert isinstance(wrapped, ColocationEngine)
        assert wrapped.judge is fitted_pipeline

    def test_registry_comes_from_the_judge(self, engine, tiny_dataset):
        assert engine.registry is tiny_dataset.registry

    def test_stub_judge_has_no_registry(self):
        with pytest.raises(ConfigurationError):
            ColocationEngine(StubJudge()).registry


class TestPredictions:
    def test_predict_proba_matches_pipeline(self, engine, fitted_pipeline, test_pairs):
        np.testing.assert_allclose(
            engine.predict_proba(test_pairs), fitted_pipeline.predict_proba(test_pairs), atol=1e-8
        )

    def test_predict_matches_pipeline(self, engine, fitted_pipeline, test_pairs):
        np.testing.assert_array_equal(engine.predict(test_pairs), fitted_pipeline.predict(test_pairs))

    def test_empty_inputs(self, engine):
        assert engine.predict_proba([]).shape == (0,)
        assert engine.predict([]).shape == (0,)

    def test_small_batch_size_is_equivalent(self, fitted_pipeline, test_pairs):
        small = ColocationEngine(fitted_pipeline, batch_size=3)
        big = ColocationEngine(fitted_pipeline, batch_size=1024)
        np.testing.assert_allclose(
            small.predict_proba(test_pairs), big.predict_proba(test_pairs), atol=1e-12
        )

    def test_probability_matrix_matches_judge(self, engine, fitted_pipeline, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:8]
        np.testing.assert_allclose(
            engine.probability_matrix(profiles),
            fitted_pipeline.judge.probability_matrix(profiles),
            atol=1e-8,
        )

    def test_stub_judge_fallback_paths(self, tiny_dataset):
        engine = ColocationEngine(StubJudge(), threshold=0.5)
        profiles = tiny_dataset.train.labeled_profiles[:4]
        matrix = engine.probability_matrix(profiles)
        assert matrix.shape == (4, 4)
        pairs = tiny_dataset.train.labeled_pairs[:6]
        decisions = engine.predict(pairs)
        assert set(decisions) <= {0, 1}

    def test_comp2loc_decisions_consistent_across_entry_points(self, fitted_pipeline, tiny_dataset):
        """predict and serve follow Comp2Loc's argmax rule; an explicit engine
        threshold overrides it on both."""
        comp2loc = fitted_pipeline.comp2loc()
        pairs = tiny_dataset.train.labeled_pairs[:8]

        engine = ColocationEngine(comp2loc)
        np.testing.assert_array_equal(engine.predict(pairs), comp2loc.predict(pairs))
        response = engine.serve(JudgeRequest(pairs=tuple(pairs)))
        np.testing.assert_array_equal(np.asarray(response.decisions), engine.predict(pairs))

        strict = ColocationEngine(comp2loc, threshold=0.99)
        expected = (strict.predict_proba(pairs) >= 0.99).astype(int)
        np.testing.assert_array_equal(strict.predict(pairs), expected)
        np.testing.assert_array_equal(
            np.asarray(strict.serve(JudgeRequest(pairs=tuple(pairs))).decisions), expected
        )

    def test_baseline_decisions_follow_the_judge(self, tiny_dataset):
        """Wrapping a baseline must not flip its argmax-equality decisions."""
        import repro.registry as registry_mod

        baseline = registry_mod.build("judge", "tg-ti-c", {}).fit(tiny_dataset)
        pairs = tiny_dataset.train.labeled_pairs[:8]
        engine = ColocationEngine(baseline, registry=tiny_dataset.registry)
        np.testing.assert_array_equal(engine.predict(pairs), baseline.predict(pairs))
        response = engine.serve(JudgeRequest(pairs=tuple(pairs)))
        np.testing.assert_array_equal(np.asarray(response.decisions), baseline.predict(pairs))


class TestFeatureCache:
    def test_probability_matrix_featurizes_each_profile_exactly_once(
        self, engine, fitted_pipeline, tiny_dataset
    ):
        from repro.core import profile_key

        profiles = tiny_dataset.train.labeled_profiles[:10]
        unique = len({profile_key(p) for p in profiles})
        with CountingFeaturizer(fitted_pipeline.featurizer) as counter:
            engine.probability_matrix(profiles)
        assert counter.rows == unique
        # A second call is served entirely from the cache.
        with CountingFeaturizer(fitted_pipeline.featurizer) as counter:
            engine.probability_matrix(profiles)
        assert counter.rows == 0

    def test_duplicate_profiles_featurized_once(self, engine, fitted_pipeline, tiny_dataset):
        profile = tiny_dataset.train.labeled_profiles[0]
        before = engine.cache_info().featurized
        with CountingFeaturizer(fitted_pipeline.featurizer) as counter:
            engine.features([profile, profile, profile])
        # One distinct profile reaches featurize as one row (featurize pads a
        # singleton onto the batched kernel itself); the engine accounts it
        # as one profile.
        assert engine.cache_info().featurized - before == 1
        assert counter.rows == 1
        with CountingFeaturizer(fitted_pipeline.featurizer) as counter:
            engine.features([profile, profile])
        assert counter.rows == 0

    def test_cache_shared_across_entry_points(self, engine, fitted_pipeline, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:6]
        engine.warm(profiles)
        from repro.data.records import Pair

        pairs = [Pair(left=profiles[0], right=profiles[1], co_label=None)]
        with CountingFeaturizer(fitted_pipeline.featurizer) as counter:
            engine.predict_proba(pairs)
        assert counter.rows == 0

    def test_lru_eviction(self, fitted_pipeline, tiny_dataset):
        engine = ColocationEngine(fitted_pipeline, cache_size=4)
        profiles = tiny_dataset.train.labeled_profiles[:8]
        engine.warm(profiles)
        info = engine.cache_info()
        assert info.size == 4
        assert info.evictions == 4

    def test_cache_info_counts(self, engine, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:5]
        engine.warm(profiles)
        engine.warm(profiles)
        info = engine.cache_info()
        assert info.misses == 5
        assert info.hits == 5
        assert info.featurized == 5
        assert 0.0 < info.hit_rate < 1.0

    def test_warm_counts_each_distinct_profile_once(self, engine, tiny_dataset):
        first, second = tiny_dataset.train.labeled_profiles[:2]
        assert engine.warm([first, second, first, second, first]) == 2
        assert engine.cache_info().size == 2
        assert engine.warm([second, first]) == 0  # a warm is a gather: all hits now

    def test_warm_of_no_profiles_touches_nothing(self, engine):
        assert engine.warm([]) == 0
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size, info.featurized) == (0, 0, 0, 0)

    def test_clear_cache(self, engine, tiny_dataset):
        engine.warm(tiny_dataset.train.labeled_profiles[:3])
        engine.clear_cache()
        assert engine.cache_info().size == 0

    def test_disabled_cache_still_correct(self, fitted_pipeline, test_pairs):
        uncached = ColocationEngine(fitted_pipeline, cache_size=0)
        np.testing.assert_allclose(
            uncached.predict_proba(test_pairs), fitted_pipeline.predict_proba(test_pairs), atol=1e-8
        )
        assert uncached.cache_info().size == 0

    def test_disabled_cache_still_dedups_within_call(self, fitted_pipeline, tiny_dataset):
        """cache_size=0 disables memoisation across calls, not within one."""
        uncached = ColocationEngine(fitted_pipeline, cache_size=0)
        profiles = tiny_dataset.train.labeled_profiles[:3]
        duplicated = profiles + profiles
        before = uncached.cache_info()
        uncached.features(duplicated)
        after = uncached.cache_info()
        assert after.featurized - before.featurized == len(profiles)
        assert after.misses - before.misses == len(profiles)
        assert after.size == 0
        # A second identical call pays again: nothing was cached.
        uncached.features(duplicated)
        final = uncached.cache_info()
        assert final.featurized - after.featurized == len(profiles)
        assert final.hits == 0

    def test_disabled_cache_gathers_both_pair_sides_once(self, fitted_pipeline, tiny_dataset):
        """Regression: predict_proba/serve used to resolve left and right
        profiles in two gather calls, so a profile appearing on both sides
        featurized twice with caching disabled (while the sharded engine
        gathered both sides in one call).  One shared core, one gather."""
        from repro.api import JudgeRequest
        from repro.core import profile_key
        from repro.data.records import Pair

        uncached = ColocationEngine(fitted_pipeline, cache_size=0)
        profiles, seen = [], set()
        for profile in tiny_dataset.train.labeled_profiles:
            if profile_key(profile) not in seen:
                seen.add(profile_key(profile))
                profiles.append(profile)
        a, b, c = profiles[:3]
        # b sits on the right of the first pair and the left of the second.
        pairs = [Pair(left=a, right=b, co_label=None), Pair(left=b, right=c, co_label=None)]
        with CountingFeaturizer(fitted_pipeline.featurizer) as counter:
            uncached.predict_proba(pairs)
        assert counter.rows == 3  # a, b, c — not 4
        info = uncached.cache_info()
        assert info.misses == 3
        response = uncached.serve(JudgeRequest(pairs=tuple(pairs)))
        assert response.cache_misses == 3
        assert uncached.cache_info().misses == 6  # serve paid the same 3 again

    def test_warm_on_non_feature_space_judge_is_a_noop(self, tiny_dataset):
        engine = ColocationEngine(StubJudge(), registry=tiny_dataset.registry)
        assert engine.warm(tiny_dataset.train.labeled_profiles[:5]) == 0
        info = engine.cache_info()
        assert info.size == 0
        assert info.hits == info.misses == info.featurized == 0

    def test_hit_rate_with_zero_lookups_is_zero(self, fitted_pipeline):
        info = ColocationEngine(fitted_pipeline).cache_info()
        assert info.hits == info.misses == 0
        assert info.hit_rate == 0.0

    def test_export_import_cache_round_trip(self, fitted_pipeline, tiny_dataset):
        source = ColocationEngine(fitted_pipeline, cache_size=64)
        profiles = tiny_dataset.train.labeled_profiles[:6]
        source.warm(profiles)
        exported = source.store.export()
        assert len(exported) == source.cache_info().size

        restored = ColocationEngine(fitted_pipeline, cache_size=64)
        assert restored.store.import_rows(exported) == len(exported)
        # Imported rows serve without refeaturizing, and count no lookups yet.
        assert restored.cache_info().misses == 0
        assert restored.warm(profiles) == 0
        for key, row in exported.items():
            np.testing.assert_array_equal(restored.store.export()[key], row)

    def test_import_cache_respects_the_bound(self, fitted_pipeline, tiny_dataset):
        source = ColocationEngine(fitted_pipeline, cache_size=64)
        source.warm(tiny_dataset.train.labeled_profiles[:8])
        exported = source.store.export()
        tiny = ColocationEngine(fitted_pipeline, cache_size=3)
        assert tiny.store.import_rows(exported) == 3
        assert tiny.cache_info().size == 3
        disabled = ColocationEngine(fitted_pipeline, cache_size=0)
        assert disabled.store.import_rows(exported) == 0

    def test_import_cache_counts_only_imported_rows(self, fitted_pipeline, tiny_dataset):
        """Evicting pre-existing rows must not subtract from the kept count."""
        source = ColocationEngine(fitted_pipeline, cache_size=64)
        profiles = tiny_dataset.train.labeled_profiles
        source.warm(profiles[:2])
        exported = source.store.export()
        target = ColocationEngine(fitted_pipeline, cache_size=3)
        target.warm(profiles[2:5])  # fill the target completely
        kept = target.store.import_rows(exported)
        assert kept == 2  # both imported rows are resident...
        resident = target.store.export()
        assert all(key in resident for key in exported)  # ...verifiably
        assert target.cache_info().size == 3

    def test_concurrent_callers_keep_cache_consistent(self, tiny_dataset):
        """Hammer one engine from many threads; counters and bound must hold.

        The judge stub featurizes statelessly, so the test isolates the
        engine's own lock (the judge's internal caches are exercised
        single-threaded in production: ShardedEngine replicates the judge
        per shard or serialises featurization).
        """
        import threading

        class StatelessFeatureJudge:
            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

            def featurize_profiles(self, profiles):
                return np.array([[float(p.uid), p.ts] for p in profiles])

            def score_feature_pairs(self, left, right):
                return np.zeros(len(left))

        engine = ColocationEngine(
            StatelessFeatureJudge(), cache_size=16, registry=tiny_dataset.registry
        )
        from repro.core import profile_key

        unique, seen = [], set()
        for profile in tiny_dataset.train.labeled_profiles:
            if profile_key(profile) not in seen:
                seen.add(profile_key(profile))
                unique.append(profile)
        profiles = unique[:24]
        assert len(profiles) == 24
        errors = []

        def worker(offset):
            try:
                for step in range(50):
                    window = [profiles[(offset + step + i) % len(profiles)] for i in range(6)]
                    rows = engine.features(window)
                    expected = np.array([[float(p.uid), p.ts] for p in window])
                    np.testing.assert_array_equal(rows, expected)
            except Exception as exc:  # pragma: no cover - failure diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i * 3,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        info = engine.cache_info()
        assert info.size <= 16
        assert info.hits + info.misses == 8 * 50 * 6  # every lookup accounted for
        assert info.featurized >= info.size


class TestTracedPredict:
    def test_own_decision_rule_records_gather_and_score(self, tiny_dataset):
        """predict() on a judge with its own decision rule (decide_feature_pairs)
        times its gather and its decision as the shared stages, like
        predict_proba — not as an orphan featurize."""
        from repro.obs import STAGE_FEATURIZE, STAGE_GATHER, STAGE_METRIC, STAGE_SCORE, tracing

        class ArgmaxRuleJudge:
            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

            def featurize_profiles(self, profiles):
                return np.array([[float(p.uid % 3), p.ts] for p in profiles])

            def score_feature_pairs(self, left, right):
                return np.zeros(len(left))

            def decide_feature_pairs(self, left, right):
                return (left[:, 0] == right[:, 0]).astype(int)

        engine = ColocationEngine(ArgmaxRuleJudge(), cache_size=0)
        pairs = tiny_dataset.train.labeled_pairs[:6]
        with tracing() as tracer:
            decisions = engine.predict(pairs)
            stages = tracer.registry.get(STAGE_METRIC)
            counts = {
                stage: stages.labels(stage=stage).count
                for stage in (STAGE_GATHER, STAGE_FEATURIZE, STAGE_SCORE)
            }
        assert len(decisions) == len(pairs)
        assert counts == {STAGE_GATHER: 1, STAGE_FEATURIZE: 1, STAGE_SCORE: 1}


class TestServe:
    def test_serve_round_trip(self, engine, test_pairs):
        request = JudgeRequest(pairs=tuple(test_pairs))
        response = engine.serve(request)
        assert isinstance(response, JudgeResponse)
        assert len(response) == len(test_pairs)
        assert response.threshold == engine.threshold
        assert all(0.0 <= p <= 1.0 for p in response.probabilities)
        assert response.num_positive == sum(response.decisions)
        assert response.elapsed_ms >= 0.0

    def test_serve_threshold_override(self, engine, test_pairs):
        lax = engine.serve(JudgeRequest(pairs=tuple(test_pairs), threshold=0.0))
        strict = engine.serve(JudgeRequest(pairs=tuple(test_pairs), threshold=1.0))
        assert lax.num_positive == len(test_pairs)
        assert strict.num_positive <= lax.num_positive

    def test_serve_rejects_invalid_threshold(self, engine, test_pairs):
        with pytest.raises(ConfigurationError):
            engine.serve(JudgeRequest(pairs=tuple(test_pairs), threshold=5.0))

    def test_features_empty_input_keeps_feature_dim(self, engine, fitted_pipeline):
        assert engine.features([]).shape == (0, fitted_pipeline.featurizer.feature_dim)

    def test_features_empty_input_with_history_featurizer(self, small_registry):
        # Regression: featurizers exposing the historical `dimension` name
        # (the raw history featurizers) used to yield a wrong (0, 0) shape.
        from repro.features import HistoricalVisitFeaturizer

        class HistoryOnlyJudge:
            def __init__(self, registry):
                self.featurizer = HistoricalVisitFeaturizer(registry)

            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

            def featurize_profiles(self, profiles):
                return self.featurizer.featurize_batch(profiles)

            def score_feature_pairs(self, left, right):
                return np.zeros(len(left))

        engine = ColocationEngine(HistoryOnlyJudge(small_registry), registry=small_registry)
        assert engine.features([]).shape == (0, len(small_registry))

    def test_features_empty_input_with_dimension_only_featurizer(self, small_registry):
        class LegacyFeaturizer:
            dimension = 7

        class LegacyJudge:
            featurizer = LegacyFeaturizer()

            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

            def featurize_profiles(self, profiles):
                return np.zeros((len(profiles), 7))

            def score_feature_pairs(self, left, right):
                return np.zeros(len(left))

        engine = ColocationEngine(LegacyJudge(), registry=small_registry)
        assert engine.features([]).shape == (0, 7)

    def test_request_for_profiles_skips_same_user(self, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:6]
        request = JudgeRequest.for_profiles(profiles[0], profiles)
        assert all(pair.right.uid != profiles[0].uid for pair in request.pairs)

    def test_serve_reports_cache_traffic(self, fitted_pipeline, test_pairs):
        engine = ColocationEngine(fitted_pipeline, cache_size=512)
        first = engine.serve(JudgeRequest(pairs=tuple(test_pairs)))
        second = engine.serve(JudgeRequest(pairs=tuple(test_pairs)))
        assert first.cache_misses > 0
        assert second.cache_misses == 0
        assert second.cache_hits > 0


class TestOnePhaseEngine:
    @pytest.fixture(scope="class")
    def onephase_engine(self, tiny_dataset):
        from repro.colocation import CoLocationPipeline, OnePhaseConfig, PipelineConfig
        from repro.features import HisRectConfig
        from repro.text import SkipGramConfig

        config = PipelineConfig(
            hisrect=HisRectConfig(content_dim=6, feature_dim=12, embedding_dim=6),
            onephase=OnePhaseConfig(max_iterations=15, batch_size=4),
            skipgram=SkipGramConfig(embedding_dim=12, epochs=1),
            mode="one-phase",
        )
        pipeline = CoLocationPipeline(config).fit(tiny_dataset)
        return ColocationEngine(pipeline)

    def test_engine_unlocks_probability_matrix(self, onephase_engine, tiny_dataset):
        """The raw one-phase pipeline refuses probability_matrix; the engine serves it."""
        profiles = tiny_dataset.train.labeled_profiles[:6]
        with pytest.raises(ConfigurationError):
            onephase_engine.judge.probability_matrix(profiles)
        matrix = onephase_engine.probability_matrix(profiles)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 1.0)
        np.testing.assert_allclose(
            matrix, onephase_engine.judge.onephase.probability_matrix(profiles), atol=1e-8
        )

    def test_matches_pipeline_predictions(self, onephase_engine, tiny_dataset):
        pairs = tiny_dataset.train.labeled_pairs[:10]
        np.testing.assert_allclose(
            onephase_engine.predict_proba(pairs),
            onephase_engine.judge.predict_proba(pairs),
            atol=1e-8,
        )
