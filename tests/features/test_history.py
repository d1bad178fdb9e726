"""Tests for the historical-visit features (Eq. 1-2) and the one-hot alternative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Profile, Tweet, Visit
from repro.features import HistoricalVisitFeaturizer, HistoryFeatureConfig, OneHotHistoryFeaturizer


def profile_with_history(visits, ts=10_000.0, uid=1):
    tweet = Tweet(uid=uid, ts=ts, content="x", lat=None, lon=None)
    return Profile(uid=uid, tweet=tweet, visit_history=tuple(visits))


class TestHistoricalVisitFeaturizer:
    def test_dimension_matches_registry(self, small_registry):
        featurizer = HistoricalVisitFeaturizer(small_registry)
        assert featurizer.feature_dim == len(small_registry)

    def test_empty_history_is_uniform_unit_vector(self, small_registry):
        featurizer = HistoricalVisitFeaturizer(small_registry)
        fv = featurizer.featurize(profile_with_history([]))
        assert fv.shape == (5,)
        assert np.linalg.norm(fv) == pytest.approx(1.0)
        assert np.allclose(fv, fv[0])

    def test_feature_is_unit_norm(self, small_registry):
        featurizer = HistoricalVisitFeaturizer(small_registry)
        poi = small_registry.get(2)
        fv = featurizer.featurize(profile_with_history([Visit(100.0, poi.center.lat, poi.center.lon)]))
        assert np.linalg.norm(fv) == pytest.approx(1.0)

    def test_visited_poi_gets_largest_weight(self, small_registry):
        featurizer = HistoricalVisitFeaturizer(small_registry)
        poi = small_registry.get(3)
        fv = featurizer.featurize(profile_with_history([Visit(9000.0, poi.center.lat, poi.center.lon)]))
        assert fv.argmax() == small_registry.index_of(3)

    def test_recent_visits_dominate_old_visits(self, small_registry):
        config = HistoryFeatureConfig(eps_t=3600.0)
        featurizer = HistoricalVisitFeaturizer(small_registry, config)
        poi_old = small_registry.get(0)
        poi_new = small_registry.get(4)
        visits = [
            Visit(0.0, poi_old.center.lat, poi_old.center.lon),       # very old
            Visit(9_900.0, poi_new.center.lat, poi_new.center.lon),   # recent
        ]
        fv = featurizer.featurize(profile_with_history(visits))
        assert fv[small_registry.index_of(4)] > fv[small_registry.index_of(0)]

    def test_visit_relevance_decreases_with_distance(self, small_registry):
        featurizer = HistoricalVisitFeaturizer(small_registry)
        poi = small_registry.get(0)
        w = featurizer.visit_relevance(poi.center.lat, poi.center.lon)
        # POIs are on a line with increasing distance from POI 0.
        assert np.all(np.diff(w) <= 1e-12)

    def test_batch_shape(self, small_registry):
        featurizer = HistoricalVisitFeaturizer(small_registry)
        profiles = [profile_with_history([]) for _ in range(3)]
        assert featurizer.featurize_batch(profiles).shape == (3, 5)

    def test_invalid_smoothing_rejected(self, small_registry):
        with pytest.raises(ValueError):
            HistoricalVisitFeaturizer(small_registry, HistoryFeatureConfig(eps_d=0.0))

    @given(n_visits=st.integers(min_value=0, max_value=10))
    @settings(max_examples=20, deadline=None)
    def test_feature_always_unit_norm(self, small_registry, n_visits):
        featurizer = HistoricalVisitFeaturizer(small_registry)
        poi = small_registry.get(1)
        visits = [Visit(float(i), poi.center.lat, poi.center.lon) for i in range(n_visits)]
        fv = featurizer.featurize(profile_with_history(visits))
        assert np.linalg.norm(fv) == pytest.approx(1.0)


class TestOneHotHistoryFeaturizer:
    def test_counts_only_contained_visits(self, small_registry):
        featurizer = OneHotHistoryFeaturizer(small_registry)
        poi = small_registry.get(1)
        off_poi = poi.center.offset(5000.0, 5000.0)
        visits = [
            Visit(1.0, poi.center.lat, poi.center.lon),
            Visit(2.0, off_poi.lat, off_poi.lon),
        ]
        fv = featurizer.featurize(profile_with_history(visits))
        assert fv.argmax() == small_registry.index_of(1)
        assert np.linalg.norm(fv) == pytest.approx(1.0)

    def test_no_history_uniform(self, small_registry):
        fv = OneHotHistoryFeaturizer(small_registry).featurize(profile_with_history([]))
        assert np.allclose(fv, fv[0])

    def test_ignores_recency(self, small_registry):
        featurizer = OneHotHistoryFeaturizer(small_registry)
        poi = small_registry.get(1)
        recent = featurizer.featurize(profile_with_history([Visit(9999.0, poi.center.lat, poi.center.lon)]))
        old = featurizer.featurize(profile_with_history([Visit(1.0, poi.center.lat, poi.center.lon)]))
        np.testing.assert_allclose(recent, old)
