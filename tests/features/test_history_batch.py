"""Equivalence tests for the vectorised history featurization fast path.

The module contract (see ``repro.features.history``) says the scalar
``featurize`` loop is the reference implementation and ``featurize_batch``
must match it bitwise-or-epsilon.  These tests pin that contract across the
edge cases the batch path handles specially: empty histories, zero-norm
count vectors, duplicate visits and mixed batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Profile, Tweet, Visit
from repro.features import HistoricalVisitFeaturizer, HistoryFeatureConfig, OneHotHistoryFeaturizer

TOLERANCE = dict(rtol=0.0, atol=1e-9)


def profile_with_history(visits, ts=10_000.0, uid=1):
    tweet = Tweet(uid=uid, ts=ts, content="x", lat=None, lon=None)
    return Profile(uid=uid, tweet=tweet, visit_history=tuple(visits))


def reference_rows(featurizer, profiles):
    """The scalar loop the batch path must reproduce."""
    return np.stack([featurizer.featurize(p) for p in profiles])


def visit_strategy(small_registry):
    """Visits scattered on and around the registry's POI line."""

    def build(poi_index, north_m, east_m, ts):
        anchor = small_registry.pois[poi_index].center
        point = anchor.offset(north_m=north_m, east_m=east_m)
        return Visit(ts=ts, lat=point.lat, lon=point.lon)

    return st.builds(
        build,
        poi_index=st.integers(min_value=0, max_value=4),
        north_m=st.floats(min_value=-2_000.0, max_value=2_000.0, allow_nan=False),
        east_m=st.floats(min_value=-2_000.0, max_value=2_000.0, allow_nan=False),
        ts=st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False),
    )


@pytest.fixture(params=["temporal", "onehot"])
def featurizer(request, small_registry):
    if request.param == "temporal":
        return HistoricalVisitFeaturizer(small_registry, HistoryFeatureConfig(eps_t=3600.0))
    return OneHotHistoryFeaturizer(small_registry)


class TestBatchEquivalence:
    def test_empty_batch_shape(self, featurizer, small_registry):
        assert featurizer.featurize_batch([]).shape == (0, len(small_registry))

    def test_all_empty_histories(self, featurizer):
        profiles = [profile_with_history([], uid=uid) for uid in range(4)]
        batch = featurizer.featurize_batch(profiles)
        np.testing.assert_allclose(batch, reference_rows(featurizer, profiles), **TOLERANCE)
        # Every row is the uniform unit vector.
        assert np.allclose(batch, batch[0, 0])
        np.testing.assert_allclose(np.linalg.norm(batch, axis=1), 1.0)

    def test_empty_histories_interleaved_with_visits(self, featurizer, small_registry):
        poi = small_registry.get(2)
        visit = Visit(100.0, poi.center.lat, poi.center.lon)
        profiles = [
            profile_with_history([], uid=1),
            profile_with_history([visit], uid=2),
            profile_with_history([], uid=3),
            profile_with_history([visit, visit], uid=4),
            profile_with_history([], uid=5),
        ]
        np.testing.assert_allclose(
            featurizer.featurize_batch(profiles), reference_rows(featurizer, profiles), **TOLERANCE
        )

    def test_duplicate_visits(self, featurizer, small_registry):
        poi = small_registry.get(1)
        visit = Visit(50.0, poi.center.lat, poi.center.lon)
        profiles = [profile_with_history([visit] * 7, uid=9)]
        np.testing.assert_allclose(
            featurizer.featurize_batch(profiles), reference_rows(featurizer, profiles), **TOLERANCE
        )

    def test_zero_norm_history_falls_back_to_uniform(self, small_registry):
        # Visits far outside every POI polygon: the one-hot count vector is
        # all zeros, which must normalise to the uniform vector in both paths.
        featurizer = OneHotHistoryFeaturizer(small_registry)
        far = small_registry.pois[0].center.offset(north_m=50_000.0, east_m=50_000.0)
        profiles = [
            profile_with_history([Visit(1.0, far.lat, far.lon)], uid=1),
            profile_with_history([], uid=2),
        ]
        batch = featurizer.featurize_batch(profiles)
        np.testing.assert_allclose(batch, reference_rows(featurizer, profiles), **TOLERANCE)
        assert np.allclose(batch[0], batch[0][0])

    def test_future_visits_clamp_age_to_zero(self, small_registry):
        # A visit timestamped after the profile's tweet (tolerated input):
        # both paths clamp the age at zero.
        featurizer = HistoricalVisitFeaturizer(small_registry)
        poi = small_registry.get(0)
        profiles = [profile_with_history([Visit(99_999.0, poi.center.lat, poi.center.lon)], ts=10.0)]
        np.testing.assert_allclose(
            featurizer.featurize_batch(profiles), reference_rows(featurizer, profiles), **TOLERANCE
        )

    def test_single_batch_distance_pass(self, small_registry, monkeypatch):
        # The tentpole claim: one distances_from_many call per batch, zero
        # per-visit distances_from round-trips.
        featurizer = HistoricalVisitFeaturizer(small_registry)
        calls = {"scalar": 0, "batch": 0}
        scalar, batch = small_registry.distances_from, small_registry.distances_from_many

        def counting_scalar(lat, lon):
            calls["scalar"] += 1
            return scalar(lat, lon)

        def counting_batch(lats, lons):
            calls["batch"] += 1
            return batch(lats, lons)

        monkeypatch.setattr(small_registry, "distances_from", counting_scalar)
        monkeypatch.setattr(small_registry, "distances_from_many", counting_batch)
        poi = small_registry.get(0)
        profiles = [
            profile_with_history([Visit(float(i), poi.center.lat, poi.center.lon)] * 3, uid=i)
            for i in range(5)
        ]
        featurizer.featurize_batch(profiles)
        assert calls == {"scalar": 0, "batch": 1}

    @given(histories=st.data())
    @settings(max_examples=30, deadline=None)
    def test_property_batch_matches_scalar_loop(self, small_registry, histories):
        visits = visit_strategy(small_registry)
        profiles = histories.draw(
            st.lists(
                st.builds(
                    profile_with_history,
                    visits=st.lists(visits, min_size=0, max_size=6),
                    ts=st.floats(min_value=0.0, max_value=20_000.0, allow_nan=False),
                    uid=st.integers(min_value=1, max_value=50),
                ),
                min_size=1,
                max_size=8,
            )
        )
        for featurizer in (
            HistoricalVisitFeaturizer(small_registry, HistoryFeatureConfig(eps_t=3600.0)),
            OneHotHistoryFeaturizer(small_registry),
        ):
            np.testing.assert_allclose(
                featurizer.featurize_batch(profiles),
                reference_rows(featurizer, profiles),
                **TOLERANCE,
            )


class TestFeatureDimUnification:
    def test_history_featurizers_expose_feature_dim(self, small_registry):
        for featurizer in (
            HistoricalVisitFeaturizer(small_registry),
            OneHotHistoryFeaturizer(small_registry),
        ):
            assert featurizer.feature_dim == len(small_registry)
            assert not hasattr(featurizer, "dimension")  # one name, no alias

    def test_featurizer_dim_helper(self, small_registry):
        from repro.core import featurizer_dim

        class DimensionOnly:
            dimension = 13

        assert featurizer_dim(HistoricalVisitFeaturizer(small_registry)) == len(small_registry)
        assert featurizer_dim(DimensionOnly()) == 13
        assert featurizer_dim(object()) == 0
        assert featurizer_dim(None, default=0) == 0
