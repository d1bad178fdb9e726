"""``repro.cluster`` — sharded, micro-batched serving over the engine.

PRs 2–3 made every per-profile cost batch-capable; this subsystem turns those
batch kernels into *concurrent throughput*.  The pieces compose:

* :class:`ShardedEngine` and :class:`WorkerPool` — one partitioned engine
  (:class:`repro.cluster.sharded.PartitionedEngine`) over two kinds of shard.
  Each shard owns a disjoint hash slice of users and its own bounded feature
  cache; the engine routes, deduplicates per owner, fans gathers out
  concurrently and scatters the rows back, and pair scoring reuses the
  engine's exact chunking so results are bit-for-bit the single engine's.
  Shard caches snapshot/restore for warm-start.  A :class:`ShardedEngine`
  shard is an in-process engine driven by its own thread.  A
  :class:`WorkerPool` shard is a worker *process* (:mod:`repro.cluster.worker`)
  rebuilt from the fitted judge via the save/load bundle, behind an asyncio
  gateway speaking the length-prefixed binary protocol of
  :mod:`repro.cluster.wire` (JSON bodies + raw numpy payloads — no pickle on
  the hot path; profiles travel as columnar batches of JSON scalar rows plus
  one float64 visits array, feature rows come back as raw float64), so
  featurization escapes the GIL; worker death fails
  pending calls fast with :class:`repro.errors.WorkerCrashError` and can
  respawn-with-restore.
* :class:`MicroBatcher` — an async request coalescer: concurrent ``score`` /
  ``probability_matrix`` / ``warm`` / typed ``serve`` requests accumulate up
  to ``max_batch``/``max_delay_ms`` and flush as one featurize+score call
  (serves via the shared core's ``serve_batch``), with a bounded queue and
  explicit backpressure (:class:`repro.errors.EngineOverloadError` vs.
  blocking).  The batcher speaks the full engine surface, so services can be
  fronted by one — and it stacks on a :class:`WorkerPool` as readily as on a
  :class:`ShardedEngine`.

All four transports delegate their decision/serve logic to one
:class:`repro.api.JudgementCore`, so threshold rules, fallbacks and cache
accounting exist exactly once; parity is pinned by
``tests/cluster/test_serving_parity.py``.
* :class:`ClusterMetrics` — merged per-shard cache statistics, flush/batch
  counters, worker death/respawn incidents and latency percentiles in one
  thread-safe snapshot.

:mod:`repro.cluster.loadgen` carries the skewed load generator and the
single-vs-partitioned comparison (one timed pass and one set of parity checks
per tier) behind ``benchmarks/bench_sharded_serving.py``,
``benchmarks/bench_worker_serving.py`` and the CLI's ``serve-bench``.
"""

from repro.cluster.batcher import MicroBatcher
from repro.cluster.gateway import WorkerPool
from repro.cluster.metrics import ClusterMetrics, ClusterMetricsSnapshot
from repro.cluster.sharded import ShardedEngine, shard_index

__all__ = [
    "ClusterMetrics",
    "ClusterMetricsSnapshot",
    "MicroBatcher",
    "ShardedEngine",
    "WorkerPool",
    "shard_index",
]
