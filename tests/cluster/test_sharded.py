"""Tests for the hash-partitioned ShardedEngine."""

import numpy as np
import pytest

from repro.api import ColocationEngine, JudgeRequest
from repro.cluster import ShardedEngine, shard_index
from repro.core import profile_key
from repro.data.records import Pair
from repro.errors import ConfigurationError
from repro.store import ArenaStore, HotStore, TieredStore


class StubJudge:
    """Minimal duck-typed judge: predict_proba only (no feature interface)."""

    def predict_proba(self, pairs):
        return np.array(
            [0.9 if (p.left.pid is not None and p.left.pid == p.right.pid) else 0.1 for p in pairs]
        )


@pytest.fixture(scope="module")
def sharded(fitted_pipeline):
    with ShardedEngine(fitted_pipeline, num_shards=4, cache_size=1024) as engine:
        yield engine


@pytest.fixture(scope="module")
def single(fitted_pipeline):
    return ColocationEngine(fitted_pipeline, cache_size=1024)


@pytest.fixture(scope="module")
def test_pairs(tiny_dataset):
    pairs = tiny_dataset.test.labeled_pairs or tiny_dataset.train.labeled_pairs
    return pairs[:20]


class TestConstruction:
    def test_rejects_bad_settings(self, fitted_pipeline):
        with pytest.raises(ConfigurationError):
            ShardedEngine(fitted_pipeline, num_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedEngine(fitted_pipeline, cache_size=-1)

    def test_total_cache_budget_split_across_shards(self, fitted_pipeline):
        with ShardedEngine(fitted_pipeline, num_shards=4, cache_size=100) as engine:
            assert [shard.cache_size for shard in engine.shards] == [25, 25, 25, 25]
            assert engine.cache_info().maxsize == 100

    def test_uneven_cache_budget_still_sums_to_the_total(self, fitted_pipeline):
        with ShardedEngine(fitted_pipeline, num_shards=3, cache_size=100) as engine:
            assert [shard.cache_size for shard in engine.shards] == [34, 33, 33]
            assert engine.cache_info().maxsize == 100

    def test_replicated_judges_are_distinct_objects(self, sharded, fitted_pipeline):
        assert sharded.judge is fitted_pipeline
        replicas = {id(shard.judge) for shard in sharded.shards}
        assert len(replicas) == sharded.num_shards
        assert id(fitted_pipeline) not in replicas

    def test_registry_and_threshold_come_from_the_judge(self, sharded, single, tiny_dataset):
        assert sharded.registry is not None
        assert sharded.threshold == single.threshold


class TestRouting:
    def test_shard_index_is_stable_and_uid_only(self):
        key_a = (7, 100.0, "coffee", 3)
        key_b = (7, 999.0, "museum", 0)
        assert shard_index(key_a, 4) == shard_index(key_b, 4)
        assert 0 <= shard_index(key_a, 4) < 4

    def test_shard_index_routes_uids_beyond_64_bits(self):
        """Regression: the fixed 8-byte encoding raised OverflowError for
        uids outside the signed 64-bit range."""
        for uid in (2**63, -(2**63) - 1, 2**100, -(2**100), 10**30):
            index = shard_index((uid, 1.0, "x", 0), 4)
            assert 0 <= index < 4

    def test_shard_index_keeps_legacy_routing_for_64_bit_uids(self):
        """Cross-width stability: every uid in the signed 64-bit range keeps
        the legacy fixed-8-byte encoding, so snapshots taken before the
        width fix restore onto the same shards."""
        import zlib

        for uid in (0, 1, -1, 127, 128, -128, -129, 255, 2**31, 2**63 - 1, -(2**63)):
            legacy = zlib.crc32(uid.to_bytes(8, "big", signed=True)) % 7
            assert shard_index((uid, 0.0, "", 0), 7) == legacy

    def test_shard_index_is_a_function_of_the_integer_value(self):
        """Equal uid values route identically regardless of the integer's
        concrete type (numpy scalars included)."""
        for uid in (42, 2**63, -(2**40)):
            wide = shard_index((uid, 0.0, "", 0), 5)
            assert shard_index((int(uid), 1.0, "y", 3), 5) == wide
        assert shard_index((np.int64(42), 0.0, "", 0), 5) == shard_index(
            (42, 0.0, "", 0), 5
        )

    def test_every_profile_of_a_user_shares_a_shard(self, sharded, tiny_dataset):
        by_uid = {}
        for profile in tiny_dataset.train.labeled_profiles[:30]:
            by_uid.setdefault(profile.uid, set()).add(sharded.shard_of(profile))
        assert all(len(shards) == 1 for shards in by_uid.values())

    def test_users_spread_over_shards(self, sharded, tiny_dataset):
        owners = {sharded.shard_of(p) for p in tiny_dataset.train.labeled_profiles}
        assert len(owners) > 1


class TestBitForBit:
    # The transport parity contract (engine vs. sharded vs. batcher, all
    # entry points) is pinned once by tests/cluster/test_serving_parity.py;
    # here only the sharded-specific shapes remain.

    def test_warm_cache_stays_exact(self, fitted_pipeline, tiny_dataset, test_pairs):
        single = ColocationEngine(fitted_pipeline, cache_size=1024)
        with ShardedEngine(fitted_pipeline, num_shards=4, cache_size=1024) as sharded:
            np.testing.assert_array_equal(
                sharded.predict_proba(test_pairs), single.predict_proba(test_pairs)
            )
            # Repeat from warm caches: still exact.
            np.testing.assert_array_equal(
                sharded.predict_proba(test_pairs), single.predict_proba(test_pairs)
            )

    def test_single_shard_degenerates_to_the_engine(self, fitted_pipeline, test_pairs):
        single = ColocationEngine(fitted_pipeline, cache_size=64)
        with ShardedEngine(fitted_pipeline, num_shards=1, cache_size=64) as sharded:
            np.testing.assert_array_equal(
                sharded.predict_proba(test_pairs), single.predict_proba(test_pairs)
            )

    def test_empty_inputs(self, sharded):
        assert sharded.predict_proba([]).shape == (0,)
        assert sharded.predict([]).shape == (0,)
        assert sharded.probability_matrix([]).shape == (0, 0)


class TestCaches:
    def test_warm_routes_to_owner_shards(self, fitted_pipeline, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:12]
        with ShardedEngine(fitted_pipeline, num_shards=4, cache_size=256) as engine:
            featurized = engine.warm(profiles)
            unique = len({profile_key(p) for p in profiles})
            assert featurized == unique
            infos = engine.shard_cache_infos()
            assert sum(info.size for info in infos) == unique
            owners = {engine.shard_of(p) for p in profiles}
            for index, info in enumerate(infos):
                assert (info.size > 0) == (index in owners)
            # Second warm: all hits, nothing featurized.
            assert engine.warm(profiles) == 0
            merged = engine.cache_info()
            assert merged.hits == unique

    def test_clear_cache(self, fitted_pipeline, tiny_dataset):
        with ShardedEngine(fitted_pipeline, num_shards=2, cache_size=64) as engine:
            engine.warm(tiny_dataset.train.labeled_profiles[:6])
            engine.clear_cache()
            assert engine.cache_info().size == 0

    def test_snapshot_restore_round_trip(self, fitted_pipeline, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:10]
        with ShardedEngine(fitted_pipeline, num_shards=4, cache_size=256) as engine:
            engine.warm(profiles)
            snapshot = engine.snapshot()
            rows = sum(len(shard_rows) for shard_rows in snapshot)
            assert rows == engine.cache_info().size
        with ShardedEngine(fitted_pipeline, num_shards=4, cache_size=256) as restarted:
            assert restarted.restore(snapshot) == rows
            assert restarted.warm(profiles) == 0  # everything already resident

    def test_restore_into_smaller_capacity_keeps_the_hottest_rows(self, fitted_pipeline):
        """Source exports interleave coldest-first, so the LRU bound evicts
        the approximately coldest rows across the whole snapshot."""

        def key(uid):
            return (uid, 1.0, "x", 0, -1)

        def row(uid):
            return np.array([float(uid)])

        snapshot = (
            {key(0): row(0), key(2): row(2), key(4): row(4)},  # coldest -> hottest
            {key(1): row(1), key(3): row(3), key(5): row(5)},
        )
        with ShardedEngine(fitted_pipeline, num_shards=1, cache_size=2) as engine:
            assert engine.restore(snapshot) == 2
            kept = set(engine.shards[0].store.export())
        assert kept == {key(4), key(5)}  # each export's hottest row survived

    def test_a_key_that_is_not_a_5_tuple_is_refused_before_any_row_lands(
        self, fitted_pipeline, tmp_path
    ):
        """Every restore entry point checks all keys first: a store would
        otherwise install the good rows (and, in ``put``, the bad key's row
        itself) before the revision index fails to read the bad key."""
        good = (next(u for u in range(64) if shard_index(u, 2) == 0), 1.0, "x", 0, 0)
        bad = (next(u for u in range(64) if shard_index(u, 2) == 1), 1.0, "x", 0)
        rows = {good: np.ones(3), bad: np.ones(3)}
        stores = [
            HotStore(8),
            ArenaStore(tmp_path / "arena", capacity=8),
            TieredStore(HotStore(8), ArenaStore(tmp_path / "cold", capacity=8)),
        ]
        for store in stores:
            with pytest.raises(ConfigurationError, match="profile key"):
                store.import_rows(rows)
            assert len(store) == 0 and good not in store
        with ShardedEngine(fitted_pipeline, num_shards=2, cache_size=8) as engine:
            with pytest.raises(ConfigurationError, match="profile key"):
                engine.restore(({good: np.ones(3)}, {bad: np.ones(3)}))
            assert engine.cache_info().size == 0

    def test_snapshot_restores_across_shard_counts(self, fitted_pipeline, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:10]
        with ShardedEngine(fitted_pipeline, num_shards=4, cache_size=256) as engine:
            engine.warm(profiles)
            snapshot = engine.snapshot()
        with ShardedEngine(fitted_pipeline, num_shards=2, cache_size=256) as resized:
            kept = resized.restore(snapshot)
            assert kept == sum(len(shard_rows) for shard_rows in snapshot)
            assert resized.warm(profiles) == 0
            # Every restored row sits on the shard its key hashes to.
            for index, shard in enumerate(resized.shards):
                assert all(
                    shard_index(key, 2) == index for key in shard.store.export()
                )


class TestConcurrency:
    def test_concurrent_callers_on_one_shard_serialise_featurization(self, tiny_dataset):
        """Gathers for one shard must not mutate its judge replica in parallel."""
        import threading
        import time

        active = {"count": 0, "max": 0, "errors": []}
        gate = threading.Lock()

        class RacyFeatureJudge:
            """Fails loudly if featurize_profiles ever overlaps with itself."""

            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

            def featurize_profiles(self, profiles):
                with gate:
                    active["count"] += 1
                    active["max"] = max(active["max"], active["count"])
                time.sleep(0.002)
                with gate:
                    active["count"] -= 1
                return np.array([[float(p.uid)] for p in profiles])

            def score_feature_pairs(self, left, right):
                return np.zeros(len(left))

        with ShardedEngine(
            RacyFeatureJudge(),
            num_shards=1,  # every profile lands on the one replica
            cache_size=0,  # force featurization on every call
            registry=tiny_dataset.registry,
        ) as engine:
            profiles = tiny_dataset.train.labeled_profiles[:8]
            pairs = [Pair(left=profiles[i], right=profiles[i + 1], co_label=None) for i in range(6)]

            def worker():
                try:
                    for _ in range(5):
                        engine.predict_proba(pairs)
                except Exception as exc:  # pragma: no cover - diagnostics
                    active["errors"].append(exc)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not active["errors"]
        assert active["max"] == 1  # the per-replica gather lock held


class TestFallbacksAndServe:
    def test_non_feature_space_judge_falls_back(self, tiny_dataset):
        with ShardedEngine(StubJudge(), num_shards=2, registry=tiny_dataset.registry) as engine:
            pairs = tiny_dataset.train.labeled_pairs[:6]
            probabilities = engine.predict_proba(pairs)
            assert probabilities.shape == (6,)
            assert engine.warm([p.left for p in pairs]) == 0
            matrix = engine.probability_matrix(tiny_dataset.train.labeled_profiles[:4])
            assert matrix.shape == (4, 4)

    def test_features_requires_feature_space(self, tiny_dataset):
        with ShardedEngine(StubJudge(), num_shards=2, registry=tiny_dataset.registry) as engine:
            with pytest.raises(ConfigurationError):
                engine.features(tiny_dataset.train.labeled_profiles[:2])

    def test_serve_reports_aggregate_cache_traffic(self, fitted_pipeline, test_pairs):
        with ShardedEngine(fitted_pipeline, num_shards=4, cache_size=512) as engine:
            first = engine.serve(JudgeRequest(pairs=tuple(test_pairs)))
            second = engine.serve(JudgeRequest(pairs=tuple(test_pairs)))
        assert first.cache_misses > 0
        assert second.cache_misses == 0
        assert second.cache_hits > 0

    def test_serve_rejects_invalid_threshold(self, sharded, test_pairs):
        with pytest.raises(ConfigurationError):
            sharded.serve(JudgeRequest(pairs=tuple(test_pairs), threshold=5.0))


class TestFailureRule:
    """The fan-out's one failure rule, shared with the worker pool."""

    def test_a_failed_gather_waits_for_its_sibling_shards(self, tiny_dataset):
        """A shard's error surfaces only after every owner has answered, so
        no shard is still working for a call its caller already saw fail."""
        import time

        finished = []

        class SplitJudge:
            """Shard 0 fails at once; shard 1 answers after 300 ms."""

            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

            def featurize_profiles(self, profiles):
                if shard_index(profile_key(profiles[0]), 2) == 0:
                    raise RuntimeError("shard 0 failed")
                time.sleep(0.3)
                finished.append(len(profiles))
                return np.array([[float(p.uid)] for p in profiles])

            def score_feature_pairs(self, left, right):
                return np.zeros(len(left))

        profiles = tiny_dataset.train.labeled_profiles
        left = next(p for p in profiles if shard_index(profile_key(p), 2) == 0)
        right = next(p for p in profiles if shard_index(profile_key(p), 2) == 1)
        with ShardedEngine(
            SplitJudge(), num_shards=2, cache_size=0, registry=tiny_dataset.registry
        ) as engine:
            with pytest.raises(RuntimeError, match="shard 0 failed"):
                engine.predict_proba([Pair(left=left, right=right, co_label=None)])
            assert finished == [1]  # the slow sibling answered before the raise

    def test_use_after_close_raises_configuration_error(self, fitted_pipeline, test_pairs):
        engine = ShardedEngine(fitted_pipeline, num_shards=2, cache_size=64)
        engine.close()
        with pytest.raises(ConfigurationError, match="closed"):
            engine.predict_proba(test_pairs)
        with pytest.raises(ConfigurationError, match="closed"):
            engine.warm([pair.left for pair in test_pairs])
        engine.close()  # a second close is a no-op
