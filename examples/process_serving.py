"""Process-worker serving: the :class:`repro.cluster.WorkerPool` tier in action.

Shard threads (``examples/sharded_serving.py``) amortise call overhead but
share one GIL; the worker pool moves each shard into its own *process*, so
featurization — the dominant serving cost — runs truly in parallel on
multi-core hosts.  The script walks the tier end to end:

1. fit a small HisRect judge and spawn a 2-worker pool — each worker is a
   separate process that rebuilt the judge from the save/load bundle and
   owns a hash slice of the user population;
2. show that the pool's probabilities match a single
   :class:`repro.api.ColocationEngine` **bit-for-bit** (save/load restores
   exactly; the wire moves raw float64 bytes, no pickle);
3. serve typed :class:`repro.api.JudgeRequest` batches and stack a
   :class:`repro.cluster.MicroBatcher` on top — the pool speaks the full
   engine surface, so everything that fronts an engine fronts a pool;
4. snapshot the worker caches, then kill a worker with ``SIGKILL`` and watch
   the pool respawn it warm-started from the retained snapshot rows, its
   slot's cache counters carried over, with
   :class:`repro.cluster.ClusterMetrics` counting the incident;
5. close the pool and verify no worker process survives.

Run it with::

    python examples/process_serving.py

(The ``__main__`` guard is mandatory: workers start via multiprocessing's
``spawn`` method, which re-imports this module in each child.)
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np

from repro.api import ColocationEngine, JudgeRequest
from repro.cluster import MicroBatcher, WorkerPool
from repro.cluster.loadgen import LoadConfig, fit_serving_pipeline, generate_requests
from repro.errors import WorkerCrashError


def main() -> None:
    started = time.perf_counter()

    # ----------------------------------------------------------------- judge
    print("Fitting a small HisRect judge ...")
    pipeline, dataset = fit_serving_pipeline(seed=5)
    config = LoadConfig(num_users=96, num_requests=80, pairs_per_request=4)
    requests = generate_requests(dataset.registry, dataset.training_corpus(), config)

    single = ColocationEngine(pipeline, cache_size=2048)

    # ------------------------------------------------------ spawn the pool
    print("Spawning a 2-worker pool (each worker loads the judge bundle) ...")
    with WorkerPool(pipeline, num_workers=2, cache_size=2048, respawn=True) as pool:
        print(f"worker pids: {pool.worker_pids()}")

        # -------------------------------------------- pool == single, bitwise
        sample = requests[:10]
        exact = all(
            np.array_equal(single.predict_proba(pairs), pool.predict_proba(pairs))
            for pairs in sample
        )
        print(f"pool probabilities match the single engine bit-for-bit: {exact}")

        # ------------------------------------------------------- typed serve
        request = JudgeRequest(pairs=tuple(requests[0]), threshold=0.6)
        response = pool.serve(request)
        print(
            f"serve: {len(response)} pairs, {response.num_positive} positive at "
            f"threshold {response.threshold}, cache {response.cache_hits} hits / "
            f"{response.cache_misses} misses"
        )

        # ----------------------------------------- a micro-batcher on top
        with MicroBatcher(pool, max_batch=64, max_delay_ms=2.0, metrics=pool.metrics) as batcher:
            futures = [batcher.submit_score(pairs) for pairs in requests]
            results = [future.result() for future in futures]
        print(f"micro-batched {len(results)} concurrent requests over the pool")

        # -------------------------------------- snapshot, kill, respawn warm
        snapshot = pool.snapshot()
        print(f"snapshot: {[len(rows) for rows in snapshot]} cached rows per worker")

        victim = max(range(pool.num_workers), key=lambda index: len(snapshot[index]))
        victim_pid = pool.worker_pids()[victim]
        # The gateway carries a slot's counters across a respawn from the
        # dead worker's last report; this read is that report.
        before = pool.worker_cache_infos()[victim]
        print(f"killing worker {victim} (pid {victim_pid}) with SIGKILL ...")
        os.kill(victim_pid, signal.SIGKILL)
        time.sleep(0.2)
        try:
            pool.ping(victim)
        except WorkerCrashError as exc:
            print(f"as expected, the next call failed typed: {type(exc).__name__}")

        # respawn=True: the next call brings the worker back, warm-started
        assert pool.ping(victim)
        info = pool.worker_cache_infos()[victim]
        print(
            f"worker {victim} respawned as pid {pool.worker_pids()[victim]} with "
            f"{info.size} cache rows restored from the snapshot; the slot's counts "
            f"carried over (hits {before.hits} -> {info.hits}, "
            f"featurized {before.featurized} -> {info.featurized})"
        )
        assert info.featurized >= before.featurized and info.hits >= before.hits
        assert np.array_equal(single.predict_proba(requests[0]), pool.predict_proba(requests[0]))

        print()
        print("cluster metrics after the incident:")
        print(pool.metrics.snapshot().format())

    # ------------------------------------------------------------- shutdown
    leftovers = multiprocessing.active_children()
    print()
    print(f"pool closed; surviving worker processes: {leftovers or 'none'}")
    print(f"done in {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
