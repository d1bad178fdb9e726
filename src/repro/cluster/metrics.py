""":class:`ClusterMetrics` — the numbers an operator needs from a cluster.

Aggregates four kinds of signal:

* **cache** — per-shard :class:`repro.api.EngineCacheInfo` snapshots and
  their cluster-level merge (:meth:`EngineCacheInfo.merge`), read live from
  the attached engine and published as one ``repro_cache_stat`` gauge family
  (one ``stat`` label per field).  The stores count these numbers; this
  object only reads them, so no cache count (invalidated rows included) is
  kept twice.  They stay out of the registry's own counters because they are
  per shard and registry gauges merge last-write-wins;
* **throughput** — requests/pairs served, flush count and mean flush size
  (how well the micro-batcher is coalescing), rejections (how often
  backpressure fired);
* **latency** — per-request enqueue→result percentiles from a **fixed-bucket**
  :class:`repro.obs.Histogram`.  Memory is O(buckets) no matter how many
  requests are observed (the old sliding-deque-plus-``np.percentile`` window
  grew with traffic); percentiles are exact to bucket resolution — the
  reported value is the upper bound of the bucket holding the requested rank,
  clamped to the observed min/max, so it is never off by more than one bucket
  width (sub-millisecond below 10 ms on the default bounds);
* **liveness** — per-worker health + last-seen timestamps fed by the
  :class:`repro.cluster.WorkerPool` PING/PONG heartbeat.

Throughput, latency and liveness live in a :class:`repro.obs.MetricsRegistry`;
:meth:`to_text` refreshes the cache gauges from the engine and renders all
four kinds as one Prometheus-style exposition.  All observation methods are
thread-safe; :meth:`snapshot` returns one frozen, printable
:class:`ClusterMetricsSnapshot`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable

from repro.obs import MetricsRegistry
from repro.store.base import EngineCacheInfo


@dataclass(frozen=True)
class ClusterMetricsSnapshot:
    """One consistent, frozen view of the cluster's operational counters."""

    #: Requests completed (every kind: score, matrix, warm, serve).
    requests: int
    #: Typed ``serve`` requests among them (the JudgeRequest front door).
    serve_requests: int
    #: Pairs scored across all score and serve requests.
    pairs_scored: int
    #: Batches flushed by the micro-batcher.
    flushes: int
    #: Submissions rejected by backpressure.
    rejections: int
    #: Queue depth observed at the most recent flush.
    queue_depth: int
    #: Mean requests per flush (0.0 before the first flush).
    mean_flush_requests: float
    #: Enqueue-to-result latency percentiles, in ms (bucket resolution).
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    #: Merged cache statistics (``None`` when no engine is attached).
    cache: EngineCacheInfo | None
    #: Per-shard cache statistics (empty for a single, unsharded engine).
    shard_caches: tuple[EngineCacheInfo, ...]
    #: Process-tier incidents: workers that died (connection lost / killed)
    #: and respawns the gateway performed.  Always 0 for in-process tiers.
    worker_deaths: int = 0
    worker_respawns: int = 0
    #: Heartbeat view, ``(worker index, healthy)`` — empty when no pool
    #: heartbeat feeds this metrics object.
    worker_health: tuple[tuple[int, bool], ...] = ()
    #: ``(worker index, last healthy heartbeat)`` on the metrics clock.
    worker_last_seen: tuple[tuple[int, float], ...] = ()

    def format(self) -> str:
        """A compact multi-line operator report."""
        lines = [
            f"requests={self.requests} serves={self.serve_requests} "
            f"pairs={self.pairs_scored} "
            f"flushes={self.flushes} mean_flush={self.mean_flush_requests:.1f} "
            f"rejections={self.rejections} queue_depth={self.queue_depth}",
            f"latency ms: p50={self.latency_p50_ms:.2f} "
            f"p90={self.latency_p90_ms:.2f} p99={self.latency_p99_ms:.2f}",
        ]
        if self.worker_deaths or self.worker_respawns:
            lines.append(
                f"workers: deaths={self.worker_deaths} respawns={self.worker_respawns}"
            )
        if self.worker_health:
            up = sum(1 for _, healthy in self.worker_health if healthy)
            lines.append(f"heartbeat: up={up}/{len(self.worker_health)}")
        if self.cache is not None:
            lines.append(
                f"cache: size={self.cache.size}/{self.cache.maxsize} "
                f"hit_rate={self.cache.hit_rate:.3f} featurized={self.cache.featurized} "
                f"invalidated={self.cache.invalidated}"
            )
            tiered = (
                self.cache.cold_hits
                or self.cache.promotions
                or self.cache.demotions
                or self.cache.cold_size
            )
            if tiered:  # only clusters running a cold tier get the extra line
                lines.append(
                    f"tiers: hot_hits={self.cache.hot_hits} "
                    f"cold_hits={self.cache.cold_hits} cold_size={self.cache.cold_size} "
                    f"promotions={self.cache.promotions} demotions={self.cache.demotions}"
                )
        for index, info in enumerate(self.shard_caches):
            lines.append(
                f"  shard {index}: size={info.size}/{info.maxsize} "
                f"hit_rate={info.hit_rate:.3f} featurized={info.featurized}"
            )
        return "\n".join(lines)


class ClusterMetrics:
    """Thread-safe counters for a serving cluster, built on ``repro.obs``.

    Every counter it keeps lives in a :class:`repro.obs.MetricsRegistry`
    metric, so the same state that feeds :meth:`snapshot` also renders as a
    Prometheus-style exposition (:meth:`to_text`) and merges with
    worker-process snapshots.  Cache statistics are not kept here: each
    snapshot reads them from the engine and republishes them as gauges.

    Parameters
    ----------
    engine:
        Optional engine whose cache statistics the snapshot should include;
        anything with ``cache_info()`` works, and engines that also expose
        ``shard_cache_infos()`` (a :class:`repro.cluster.ShardedEngine` or
        :class:`repro.cluster.WorkerPool`) get per-shard breakdowns.
    registry:
        The registry to declare metrics in (a fresh private one by default).
    time_fn:
        Clock for heartbeat last-seen stamps (``time.monotonic`` default);
        injectable so tests assert exact timestamps.
    """

    def __init__(
        self,
        engine=None,
        *,
        registry: MetricsRegistry | None = None,
        time_fn: Callable[[], float] | None = None,
    ):
        self._engine = engine
        self._time = time_fn if time_fn is not None else time.monotonic
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._requests = r.counter(
            "repro_cluster_requests_total", "Requests completed (all kinds)"
        )
        self._serves = r.counter(
            "repro_cluster_serve_requests_total", "Typed serve requests completed"
        )
        self._pairs = r.counter(
            "repro_cluster_pairs_scored_total", "Pairs scored (score + serve)"
        )
        self._flushes = r.counter(
            "repro_cluster_flushes_total", "Micro-batch flushes"
        )
        self._rejections = r.counter(
            "repro_cluster_rejections_total", "Submissions shed by backpressure"
        )
        self._queue_depth = r.gauge(
            "repro_cluster_queue_depth", "Queue depth at the most recent flush"
        )
        self._latency = r.histogram(
            "repro_request_latency_ms", "Enqueue-to-result request latency (ms)"
        )
        self._worker_deaths = r.counter(
            "repro_cluster_worker_deaths_total", "Worker processes lost"
        )
        self._worker_respawns = r.counter(
            "repro_cluster_worker_respawns_total", "Workers respawned by the gateway"
        )
        self._worker_up = r.gauge(
            "repro_worker_up", "Heartbeat liveness per worker (1 up, 0 down)",
            labels=("worker",),
        )
        self._worker_last_seen = r.gauge(
            "repro_worker_last_seen_seconds",
            "Metrics-clock timestamp of the last healthy heartbeat per worker",
            labels=("worker",),
        )
        #: Guards the heartbeat view: registry metrics carry their own locks,
        #: but the last-seen bookkeeping below is a read-modify-write.
        self._lock = threading.Lock()
        #: worker index -> (healthy, last_seen) for the snapshot view.
        self._heartbeats: dict[int, tuple[bool, float]] = {}  # guarded-by: _lock

    # ------------------------------------------------------------ observation
    def observe_flush(
        self,
        num_requests: int,
        num_pairs: int,
        queue_depth: int,
        elapsed_ms: float,
        num_serves: int = 0,
    ) -> None:
        """Record one completed micro-batch flush.

        ``num_serves`` counts the typed ``serve`` requests among
        ``num_requests``.
        """
        self._flushes.inc()
        self._requests.inc(num_requests)
        self._serves.inc(num_serves)
        self._pairs.inc(num_pairs)
        self._queue_depth.set(queue_depth)

    def observe_latency(self, latency_ms: float) -> None:
        """Record one request's enqueue-to-result latency."""
        self._latency.observe(float(latency_ms))

    def observe_rejection(self) -> None:
        """Record one submission shed by backpressure."""
        self._rejections.inc()

    def observe_worker_death(self) -> None:
        """Record one worker process lost (killed, crashed, connection broke)."""
        self._worker_deaths.inc()

    def observe_worker_respawn(self) -> None:
        """Record one worker the gateway respawned after a death."""
        self._worker_respawns.inc()

    def observe_heartbeat(self, worker: int, healthy: bool) -> None:
        """Record one heartbeat probe result for a worker.

        A healthy beat refreshes the worker's last-seen stamp (on the
        injected clock); an unhealthy one only flips the liveness gauge, so
        last-seen keeps pointing at the most recent proof of life.
        """
        worker = int(worker)
        label = str(worker)
        self._worker_up.labels(worker=label).set(1.0 if healthy else 0.0)
        with self._lock:  # last-seen carry-over is a read-modify-write
            previous = self._heartbeats.get(worker)
            last_seen = previous[1] if previous is not None else 0.0
            if healthy:
                last_seen = self._time()
                self._worker_last_seen.labels(worker=label).set(last_seen)
            self._heartbeats[worker] = (bool(healthy), last_seen)

    # --------------------------------------------------------------- snapshot
    def snapshot(self) -> ClusterMetricsSnapshot:
        """Freeze the current counters (and live cache statistics) into one view."""
        flushes = int(self._flushes.value)
        requests = int(self._requests.value)
        cache = None
        shard_caches: tuple[EngineCacheInfo, ...] = ()
        if self._engine is not None:
            if hasattr(self._engine, "shard_cache_infos"):
                shard_caches = self._engine.shard_cache_infos()
                cache = EngineCacheInfo.merge(shard_caches)
            elif hasattr(self._engine, "cache_info"):
                cache = self._engine.cache_info()
        if cache is not None:
            self._publish_cache(cache)
        p50, p90, p99 = self._latency.percentiles()
        with self._lock:
            heartbeats = sorted(self._heartbeats.items())
        return ClusterMetricsSnapshot(
            requests=requests,
            serve_requests=int(self._serves.value),
            pairs_scored=int(self._pairs.value),
            flushes=flushes,
            rejections=int(self._rejections.value),
            queue_depth=int(self._queue_depth.value),
            mean_flush_requests=requests / flushes if flushes else 0.0,
            latency_p50_ms=p50,
            latency_p90_ms=p90,
            latency_p99_ms=p99,
            cache=cache,
            shard_caches=shard_caches,
            worker_deaths=int(self._worker_deaths.value),
            worker_respawns=int(self._worker_respawns.value),
            worker_health=tuple(
                (index, healthy) for index, (healthy, _) in heartbeats
            ),
            worker_last_seen=tuple(
                (index, last_seen) for index, (_, last_seen) in heartbeats
            ),
        )

    def _publish_cache(self, cache: EngineCacheInfo) -> None:
        """Expose every field of the cache snapshot as one labelled gauge."""
        family = self.registry.gauge(
            "repro_cache_stat",
            "Engine feature-cache statistic (from cache_info)",
            labels=("stat",),
        )
        for name, value in asdict(cache).items():
            family.labels(stat=name).set(float(value))

    def to_text(self) -> str:
        """Prometheus-style exposition of this object's registry (refreshes
        the cache gauges first)."""
        self.snapshot()
        return self.registry.to_text()
