"""Arena-backed warm starts across the cluster tiers.

The tentpole behaviours: a sharded cluster pointed at its predecessor's
arena directory serves the warm set without featurizing, and a killed
worker process respawns by *mapping* its arena slice — zero featurize
calls, zero rows reshipped over the wire.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.api import ColocationEngine
from repro.cluster import ShardedEngine, WorkerPool
from repro.errors import WorkerCrashError


@pytest.fixture(scope="module")
def serving_pairs(tiny_dataset):
    pairs = list(tiny_dataset.test.labeled_pairs) + list(tiny_dataset.train.labeled_pairs)
    assert len(pairs) >= 8, "the tiny dataset must provide labeled pairs"
    return pairs[:16]


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


# ------------------------------------------------------------- thread shards


def test_sharded_cluster_warm_starts_from_its_arena(
    fitted_pipeline, tiny_dataset, serving_pairs, tmp_path
):
    profiles = tiny_dataset.train.labeled_profiles[:12]
    with ShardedEngine(
        fitted_pipeline, num_shards=2, cache_size=64, arena_dir=tmp_path
    ) as first:
        first.warm(profiles)
        reference = first.predict_proba(serving_pairs)
        assert (tmp_path / "shard-000").exists()
        assert (tmp_path / "shard-001").exists()

    with ShardedEngine(
        fitted_pipeline, num_shards=2, cache_size=64, arena_dir=tmp_path
    ) as restarted:
        restarted.features(profiles)
        info = restarted.cache_info()
        assert info.featurized == 0  # the whole warm set came off disk
        assert info.cold_hits == len(profiles)
        assert info.misses == 0
        assert np.array_equal(restarted.predict_proba(serving_pairs), reference)


def test_sharded_arena_rows_land_on_their_owner_shard(
    fitted_pipeline, tiny_dataset, tmp_path
):
    from repro.cluster import shard_index

    profiles = tiny_dataset.train.labeled_profiles[:12]
    with ShardedEngine(
        fitted_pipeline, num_shards=2, cache_size=64, arena_dir=tmp_path
    ) as cluster:
        cluster.warm(profiles)
        assert {cluster.shard_of(p) for p in profiles} == {0, 1}
        # Each shard's arena slice holds exactly its own users' rows.
        for index, shard in enumerate(cluster.shards):
            keys = shard.store.cold.keys()
            assert keys, "every shard owns part of this sample"
            assert all(shard_index(key, 2) == index for key in keys)


# ----------------------------------------------------------- process workers


def test_killed_worker_respawns_from_mapped_arena_with_zero_featurize_calls(
    fitted_pipeline, tiny_dataset, serving_pairs, tmp_path
):
    profiles = [pair.left for pair in serving_pairs] + [
        pair.right for pair in serving_pairs
    ]
    with WorkerPool(
        fitted_pipeline,
        num_workers=2,
        cache_size=128,
        respawn=True,
        arena_dir=str(tmp_path),
    ) as pool:
        pool.warm(profiles)
        reference = pool.predict_proba(serving_pairs)
        pool.snapshot()  # retain rows: proves the wire reship is *skipped* below
        victim = next(
            index
            for index in range(2)
            if pool.worker_cache_infos()[index].cold_size > 0
        )
        old_pid = pool.worker_pids()[victim]
        # The slot's counters carry across the respawn, so the respawned
        # worker's own traffic is the difference from this last report.
        before = pool.worker_cache_infos()[victim]

        os.kill(old_pid, signal.SIGKILL)
        _wait_until(lambda: not pool._handles[victim].process.is_alive())
        with pytest.raises(WorkerCrashError):
            pool.ping(victim)  # the death is noticed here

        assert pool.ping(victim)  # respawns, mapping the arena slice
        assert pool.worker_pids()[victim] != old_pid

        fresh = pool.worker_cache_infos()[victim]
        assert fresh.featurized == before.featurized
        assert fresh.cold_size > 0  # the slice is already mapped...
        assert fresh.size == 0  # ...and no retained rows were reshipped

        # Serving the victim's slice touches only the arena: zero featurize
        # calls, bit-identical scores.
        assert np.array_equal(pool.predict_proba(serving_pairs), reference)
        after = pool.worker_cache_infos()[victim]
        assert after.featurized == before.featurized
        assert after.misses == before.misses
        assert after.cold_hits > before.cold_hits

        metrics = pool.metrics.snapshot()
        assert metrics.worker_deaths == 1
        assert metrics.worker_respawns == 1
        assert "tiers:" in metrics.format()


def test_pool_without_arena_still_reships_retained_rows(fitted_pipeline, serving_pairs):
    """The wire fallback stays intact when no arena is configured."""
    with WorkerPool(
        fitted_pipeline, num_workers=2, cache_size=128, respawn=True
    ) as pool:
        pool.warm([pair.left for pair in serving_pairs])
        snapshot = pool.snapshot()
        victim = next(index for index, rows in enumerate(snapshot) if rows)
        os.kill(pool.worker_pids()[victim], signal.SIGKILL)
        _wait_until(lambda: not pool._handles[victim].process.is_alive())
        with pytest.raises(WorkerCrashError):
            pool.ping(victim)
        assert pool.ping(victim)
        assert pool.worker_cache_infos()[victim].size == len(snapshot[victim])


def test_arena_restart_parity_with_cold_reference(
    fitted_pipeline, tiny_dataset, serving_pairs, tmp_path
):
    """A brand-new pool over a warm arena matches a cold single engine."""
    with WorkerPool(
        fitted_pipeline, num_workers=2, cache_size=128, arena_dir=str(tmp_path)
    ) as pool:
        pool.warm([pair.left for pair in serving_pairs])
        first = pool.predict_proba(serving_pairs)
    with WorkerPool(
        fitted_pipeline, num_workers=2, cache_size=128, arena_dir=str(tmp_path)
    ) as restarted:
        again = restarted.predict_proba(serving_pairs)
    reference = ColocationEngine(fitted_pipeline, cache_size=128)
    expected = reference.predict_proba(serving_pairs)
    assert np.array_equal(first, expected)
    assert np.array_equal(again, expected)
