"""Metric names, units, and how each is computed from a run's measurements.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json`` declares;
every workload reports all of them (a layer a workload does not exercise
reads 0).  ``perfbench/README.md`` says which end-to-end metric, on which
workload, each per-layer metric should move.
"""

from __future__ import annotations

import statistics

from perfbench.harness import quantile_ms
from perfbench.layers import Readout

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("io.load_pipeline_ms", "ms"),
    ("features.featurize.calls", "count"),
    ("features.featurize.rows", "count"),
    ("features.featurize.ms", "ms"),
    ("features.content.ms", "ms"),
    ("features.combiner.ms", "ms"),
    ("features.history.rows", "count"),
    ("features.history.ms", "ms"),
    ("features.history.seeded_rows", "count"),
    ("store.lookups", "count"),
    ("store.hit_ratio", "share"),
    ("store.hot_hits", "count"),
    ("store.cold_hits", "count"),
    ("store.promotions", "count"),
    ("store.demotions", "count"),
    ("store.invalidated", "count"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("api.gather_ms", "ms"),
    ("api.score_ms", "ms"),
    ("api.featurized_rows", "count"),
    ("cluster.batcher.queue_wait_ms", "ms"),
    ("cluster.batcher.flushes", "count"),
    ("cluster.batcher.batch_size_mean", "requests"),
    ("cluster.batcher.rejections", "count"),
    ("cluster.wire.serialize_ms", "ms"),
    ("cluster.wire.rtt_ms", "ms"),
    ("cluster.wire.calls", "count"),
    ("cluster.worker.gather_ms", "ms"),
    ("cluster.worker.featurize_ms", "ms"),
    ("service.consume_ms", "ms"),
    ("service.window_ms", "ms"),
    ("service.delta_ms", "ms"),
    ("service.pairs_per_tweet", "pairs"),
    ("self.service_ms", "ms"),
    ("self.api_ms", "ms"),
    ("self.cluster_ms", "ms"),
    ("self.store_ms", "ms"),
    ("self.features_ms", "ms"),
    ("trace.unexplained_share", "share"),
    ("runtime.gc_gen2_count", "count"),
    ("runtime.gc_ms", "ms"),
    ("harness.lag_p95_ms", "ms"),
    ("harness.gen_ms", "ms"),
    ("harness.trace_overhead", "ratio"),
)

def _throughput(result) -> float:
    return result.phase.succeeded / result.wall_s if result.wall_s > 0 else 0.0


def end_to_end(result, setup_times, rss_mb) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": _throughput(result),
        "latency_p50_ms": quantile_ms(result.latencies, 0.50),
        "latency_p95_ms": quantile_ms(result.latencies, 0.95),
        "peak_rss_mb": rss_mb,
    }


def _cache_delta(before, after) -> dict[str, float]:
    fields = ("hits", "misses", "hot_hits", "cold_hits", "promotions", "demotions",
              "invalidated", "featurized")
    return {name: float(getattr(after, name) - getattr(before, name)) for name in fields}


def per_layer(
    *,
    layers: Readout,
    serving: Readout,
    workers: Readout,
    cache_before,
    cache_after,
    batcher_before,
    batcher_after,
    gc_monitor,
    traced,
    untraced,
    load_times,
) -> dict[str, float]:
    """Per-layer metrics of a traced phase.

    ``layers`` holds the wrapper totals of every process, ``serving`` the
    obs stages of the serving process and ``workers`` the obs stages the
    worker processes recorded during the phase.
    """
    cache = _cache_delta(cache_before, cache_after)
    lookups = cache["hits"] + cache["misses"]
    flushes = requests = rejections = 0.0
    if batcher_before is not None:
        flushes = float(batcher_after.flushes - batcher_before.flushes)
        requests = float(batcher_after.requests - batcher_before.requests)
        rejections = float(batcher_after.rejections - batcher_before.rejections)
    tweets = layers.calls("service.process")
    entry_wall, entry_self = layers.entry()
    untraced_rps = _throughput(untraced)
    return {
        "io.load_pipeline_ms": statistics.median(load_times) * 1e3,
        "features.featurize.calls": layers.calls("features.featurize"),
        "features.featurize.rows": layers.rows("features.featurize"),
        "features.featurize.ms": layers.ms("features.featurize"),
        "features.content.ms": layers.ms("features.content"),
        "features.combiner.ms": layers.ms("features.combiner"),
        "features.history.rows": layers.rows("features.history"),
        "features.history.ms": layers.ms("features.history"),
        "features.history.seeded_rows": layers.calls("features.seed"),
        "store.lookups": lookups,
        "store.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "store.hot_hits": cache["hot_hits"],
        "store.cold_hits": cache["cold_hits"],
        "store.promotions": cache["promotions"],
        "store.demotions": cache["demotions"],
        "store.invalidated": cache["invalidated"],
        "store.get_ms": layers.ms("store.get"),
        "store.put_ms": layers.ms("store.put"),
        "api.gather_ms": serving.stage_ms("gather"),
        "api.score_ms": serving.stage_ms("score"),
        "api.featurized_rows": cache["featurized"],
        "cluster.batcher.queue_wait_ms": serving.stage_ms("queue_wait"),
        "cluster.batcher.flushes": flushes,
        "cluster.batcher.batch_size_mean": requests / flushes if flushes else 0.0,
        "cluster.batcher.rejections": rejections,
        "cluster.wire.serialize_ms": serving.stage_ms("wire_serialize"),
        "cluster.wire.rtt_ms": serving.stage_ms("wire_rtt"),
        "cluster.wire.calls": serving.stage_calls("wire_rtt"),
        "cluster.worker.gather_ms": workers.stage_ms("gather"),
        "cluster.worker.featurize_ms": workers.stage_ms("featurize"),
        "service.consume_ms": layers.ms("service.consume"),
        "service.window_ms": layers.ms("service.window"),
        "service.delta_ms": layers.ms("service.delta"),
        "service.pairs_per_tweet": traced.pairs / tweets if tweets else 0.0,
        "self.service_ms": layers.layer_group_self_ms("service"),
        "self.api_ms": layers.layer_group_self_ms("api"),
        "self.cluster_ms": layers.layer_group_self_ms("cluster"),
        "self.store_ms": layers.layer_group_self_ms("store"),
        "self.features_ms": layers.layer_group_self_ms("features"),
        "trace.unexplained_share": entry_self / entry_wall if entry_wall else 0.0,
        "runtime.gc_gen2_count": float(gc_monitor.gen2),
        "runtime.gc_ms": gc_monitor.pause_s * 1e3,
        "harness.lag_p95_ms": quantile_ms(traced.lag, 0.95),
        "harness.gen_ms": traced.gen_s * 1e3,
        "harness.trace_overhead": _throughput(traced) / untraced_rps if untraced_rps else 0.0,
    }
