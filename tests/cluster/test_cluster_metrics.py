"""Tests for ClusterMetrics and the EngineCacheInfo merge helper."""

import dataclasses

import numpy as np

from repro.api import ColocationEngine, EngineCacheInfo
from repro.cluster import ClusterMetrics, ShardedEngine


class TestEngineCacheInfoMerge:
    def test_merge_sums_counters_and_derives_hit_rate(self):
        merged = EngineCacheInfo.merge(
            [
                EngineCacheInfo(hits=3, misses=1, evictions=2, size=5, maxsize=8, featurized=4),
                EngineCacheInfo(hits=1, misses=3, evictions=0, size=2, maxsize=8, featurized=3),
            ]
        )
        assert merged == EngineCacheInfo(
            hits=4, misses=4, evictions=2, size=7, maxsize=16, featurized=7
        )
        assert merged.hit_rate == 0.5

    def test_merge_of_nothing_is_the_zero_snapshot(self):
        merged = EngineCacheInfo.merge([])
        assert merged == EngineCacheInfo(
            hits=0, misses=0, evictions=0, size=0, maxsize=0, featurized=0
        )
        assert merged.hit_rate == 0.0

    def test_merge_with_zero_lookups_keeps_zero_hit_rate(self):
        infos = [
            EngineCacheInfo(hits=0, misses=0, evictions=0, size=0, maxsize=4, featurized=0)
        ] * 3
        assert EngineCacheInfo.merge(infos).hit_rate == 0.0


class TestClusterMetrics:
    def test_empty_snapshot(self):
        snapshot = ClusterMetrics().snapshot()
        assert snapshot.requests == 0
        assert snapshot.flushes == 0
        assert snapshot.mean_flush_requests == 0.0
        assert snapshot.latency_p50_ms == 0.0
        assert snapshot.cache is None
        assert snapshot.shard_caches == ()
        assert "requests=0" in snapshot.format()

    def test_counters_accumulate(self):
        metrics = ClusterMetrics()
        metrics.observe_flush(num_requests=3, num_pairs=12, queue_depth=5, elapsed_ms=1.0)
        metrics.observe_flush(num_requests=1, num_pairs=4, queue_depth=0, elapsed_ms=1.0)
        for latency in (1.0, 2.0, 3.0, 4.0):
            metrics.observe_latency(latency)
        metrics.observe_rejection()
        snapshot = metrics.snapshot()
        assert snapshot.requests == 4
        assert snapshot.pairs_scored == 16
        assert snapshot.flushes == 2
        assert snapshot.rejections == 1
        assert snapshot.queue_depth == 0
        assert snapshot.mean_flush_requests == 2.0
        assert snapshot.latency_p50_ms == 2.5
        assert snapshot.latency_p99_ms <= 4.0

    def test_latency_memory_is_bounded_by_histogram_buckets(self):
        # The old sliding window is gone: percentiles come from a fixed-bucket
        # histogram whose memory never grows with request count, exact to
        # bucket resolution (the bucket bound, clamped to the observed range).
        metrics = ClusterMetrics()
        for latency in range(100):
            metrics.observe_latency(float(latency))
        snapshot = metrics.snapshot()
        assert snapshot.latency_p50_ms == 50.0  # rank 50 lands in the le=50 bucket
        assert snapshot.latency_p99_ms == 99.0  # le=100 bound clamped to max

    def test_heartbeat_observations_surface_in_snapshot(self):
        clock = iter([10.0, 20.0, 30.0])
        metrics = ClusterMetrics(time_fn=lambda: next(clock))
        metrics.observe_heartbeat(0, True)
        metrics.observe_heartbeat(1, True)
        metrics.observe_heartbeat(1, False)  # stall: unhealthy, last-seen kept
        snapshot = metrics.snapshot()
        assert dict(snapshot.worker_health) == {0: True, 1: False}
        assert dict(snapshot.worker_last_seen) == {0: 10.0, 1: 20.0}
        assert "heartbeat: up=1/2" in snapshot.format()

    def test_to_text_exposes_registry_metrics(self):
        metrics = ClusterMetrics()
        metrics.observe_flush(num_requests=2, num_pairs=8, queue_depth=1, elapsed_ms=1.0)
        metrics.observe_latency(3.0)
        metrics.observe_heartbeat(0, True)
        text = metrics.to_text()
        assert "# TYPE repro_cluster_requests_total counter" in text
        assert "repro_cluster_requests_total 2" in text
        assert 'repro_worker_up{worker="0"} 1' in text
        assert "repro_request_latency_ms_count 1" in text

    def test_snapshot_pulls_single_engine_cache(self, fitted_pipeline, tiny_dataset):
        engine = ColocationEngine(fitted_pipeline, cache_size=64)
        engine.warm(tiny_dataset.train.labeled_profiles[:4])
        snapshot = ClusterMetrics(engine).snapshot()
        assert snapshot.cache is not None
        assert snapshot.cache.size > 0
        assert snapshot.shard_caches == ()

    def test_to_text_exposes_every_cache_field(self, fitted_pipeline, tiny_dataset):
        engine = ColocationEngine(fitted_pipeline, cache_size=64)
        engine.warm(tiny_dataset.train.labeled_profiles[:4])
        metrics = ClusterMetrics(engine)
        text = metrics.to_text()
        info = engine.cache_info()
        for field in dataclasses.fields(EngineCacheInfo):
            assert f'repro_cache_stat{{stat="{field.name}"}}' in text
        assert f'repro_cache_stat{{stat="featurized"}} {info.featurized}' in text

    def test_snapshot_pulls_per_shard_caches(self, fitted_pipeline, tiny_dataset):
        with ShardedEngine(fitted_pipeline, num_shards=3, cache_size=96) as engine:
            engine.warm(tiny_dataset.train.labeled_profiles[:6])
            snapshot = ClusterMetrics(engine).snapshot()
        assert len(snapshot.shard_caches) == 3
        assert snapshot.cache == EngineCacheInfo.merge(snapshot.shard_caches)
        assert "shard 0" in snapshot.format()
