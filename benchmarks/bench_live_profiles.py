"""Benchmark: incremental Eq. (1)-(2) maintenance vs. scratch featurization.

A live deployment mutates one visit per user per tick; the scratch path pays
the full ``(total_visits, |P|)`` distance kernel for every round even though
only one visit per history changed.  The delta path
(:meth:`repro.features.history.HistoricalVisitFeaturizer.featurize_delta`,
batched per tick by :class:`repro.features.HistoryDeltaTracker.append_batch`)
runs the spatial kernel for the *new* visits only and re-weights the retained
per-visit relevance rows — O(1 visit) of kernel work per mutation instead of
O(history).

The workload is the paper-scale live slice pinned by ISSUE 7: **256 users x
64 retained visits**, mutated for several rounds.  Each round both paths
produce every user's current feature row at the round's reference timestamp;
rows must agree within ``1e-9`` (they are bit-identical in practice — the
delta path reuses the batch kernels) and the incremental path must be at
least **3x** faster than scratch.

``--smoke`` (the CI invocation) shrinks the workload, skips the speedup
gate (CI machines are noisy) and instead runs the *correctness* half of the
live-profile contract end to end: a seeded mutation sequence served through
all four transports — engine, sharded, micro-batched, worker processes —
plus a micro-batcher over the worker processes, whose invalidation and
score futures are all issued before any is awaited so flushes overlap,
must agree with a freshly built single engine (bit-for-bit outside the
batchers' 1e-12 coalescing tolerance), with cache invalidation traffic
interleaved.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_live_profiles.py [--smoke]
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys
import time

import numpy as np

from repro.data.records import Pair, Profile, Tweet, Visit
from repro.features import HistoricalVisitFeaturizer, HistoryDeltaTracker
from repro.geo import BoundingPolygon, GeoPoint, POI, POIRegistry

NUM_USERS = 256
MAX_HISTORY = 64
ROUNDS = 6
TARGET_SPEEDUP = 3.0
ROW_ATOL = 1e-9


def _grid_registry(num_pois: int = 64) -> POIRegistry:
    """A deterministic grid of POIs, ~500 m apart."""
    center = GeoPoint(40.75, -73.99)
    side = int(np.ceil(np.sqrt(num_pois)))
    pois = []
    for pid in range(num_pois):
        poi_center = center.offset(
            north_m=500.0 * (pid // side), east_m=500.0 * (pid % side)
        )
        pois.append(
            POI(
                pid=pid,
                name=f"poi_{pid}",
                polygon=BoundingPolygon.regular(poi_center, radius_m=90.0, sides=8),
                center=poi_center,
                category="bench",
            )
        )
    return POIRegistry(pois)


def _seed_visits(registry: POIRegistry, rng, num_users: int, history_len: int):
    """Initial capped histories: ``history_len`` jittered visits per user."""
    histories = []
    for uid in range(num_users):
        visits = []
        for step in range(history_len):
            base = registry.get(int(rng.integers(len(registry)))).center
            point = base.offset(
                north_m=float(rng.normal(0.0, 150.0)),
                east_m=float(rng.normal(0.0, 150.0)),
            )
            visits.append(Visit(ts=float(step * 60), lat=point.lat, lon=point.lon))
        histories.append(visits)
    return histories


def _profile(uid: int, history, ts: float) -> Profile:
    tweet = Tweet(uid=uid, ts=ts, content=f"user {uid}", lat=None, lon=None)
    return Profile(
        uid=uid, tweet=tweet, visit_history=tuple(history), revision=len(history)
    )


def run_incremental_vs_scratch(
    num_users: int = NUM_USERS,
    history_len: int = MAX_HISTORY,
    rounds: int = ROUNDS,
) -> dict:
    """Time both maintenance paths over the same seeded mutation stream."""
    registry = _grid_registry()
    rng = np.random.default_rng(11)
    featurizer = HistoricalVisitFeaturizer(registry)
    histories = _seed_visits(registry, rng, num_users, history_len)

    tracker = HistoryDeltaTracker(featurizer, max_history=history_len)
    for uid, visits in enumerate(histories):
        tracker.append_batch([uid] * len(visits), visits)

    # Pre-draw every round's mutations so neither timed loop pays for RNG.
    mutations = []
    for round_index in range(rounds):
        ts = float(history_len * 60 + (round_index + 1) * 60)
        new_visits = []
        for uid in range(num_users):
            base = registry.get(int(rng.integers(len(registry)))).center
            point = base.offset(
                north_m=float(rng.normal(0.0, 150.0)),
                east_m=float(rng.normal(0.0, 150.0)),
            )
            new_visits.append(Visit(ts=ts, lat=point.lat, lon=point.lon))
        mutations.append((ts, new_visits))

    uids = list(range(num_users))
    max_diff = 0.0

    # Scratch: rebuild every user's row from the full history each round.
    scratch_histories = [list(v) for v in histories]
    scratch_rows_by_round = []
    started = time.perf_counter()
    for ts, new_visits in mutations:
        for uid in uids:
            scratch_histories[uid].append(new_visits[uid])
            scratch_histories[uid] = scratch_histories[uid][-history_len:]
        profiles = [
            _profile(uid, scratch_histories[uid], ts + 30.0) for uid in uids
        ]
        scratch_rows_by_round.append(featurizer.featurize_batch(profiles))
    scratch_s = time.perf_counter() - started

    # Incremental: one batched kernel call for the new visits, cheap re-weighting.
    incremental_histories = [list(v) for v in histories]
    incremental_rows_by_round = []
    started = time.perf_counter()
    for ts, new_visits in mutations:
        tracker.append_batch(uids, new_visits)
        for uid in uids:
            incremental_histories[uid].append(new_visits[uid])
            incremental_histories[uid] = incremental_histories[uid][-history_len:]
        profiles = [
            _profile(uid, incremental_histories[uid], ts + 30.0) for uid in uids
        ]
        incremental_rows_by_round.append(tracker.rows_for(profiles))
    incremental_s = time.perf_counter() - started

    for scratch_rows, rows in zip(scratch_rows_by_round, incremental_rows_by_round):
        max_diff = max(max_diff, float(np.max(np.abs(rows - scratch_rows))))

    return {
        "num_users": num_users,
        "history_len": history_len,
        "rounds": rounds,
        "scratch_s": scratch_s,
        "incremental_s": incremental_s,
        "speedup": scratch_s / incremental_s if incremental_s > 0 else float("inf"),
        "max_row_diff": max_diff,
    }


def run_transport_mutation_parity() -> dict:
    """The smoke-mode correctness half: mutate-then-score across transports."""
    from repro.api import ColocationEngine
    from repro.cluster import MicroBatcher, ShardedEngine, WorkerPool
    from repro.cluster.loadgen import fit_serving_pipeline

    pipeline, dataset = fit_serving_pipeline(seed=5)
    fresh = ColocationEngine(pipeline, cache_size=0)
    base_profiles = {p.uid: p for p in dataset.train.labeled_profiles[:10]}
    visit_pool = [
        v for p in dataset.train.labeled_profiles for v in p.visit_history
    ] or [Visit(ts=1.0, lat=40.75, lon=-73.99)]
    rng = np.random.default_rng(42)
    uids = sorted(base_profiles)

    def mutate(profile, step):
        template = visit_pool[int(rng.integers(len(visit_pool)))]
        visit = Visit(ts=profile.ts + 30.0 * (step + 1), lat=template.lat, lon=template.lon)
        return dataclasses.replace(
            profile,
            tweet=dataclasses.replace(profile.tweet, ts=profile.ts + 60.0 * (step + 1)),
            visit_history=(profile.visit_history + (visit,))[-4:],
            revision=(profile.revision or 0) + 1,
        )

    max_batcher_drift = 0.0

    def check_batcher(name, got, expected):
        nonlocal max_batcher_drift
        max_batcher_drift = max(
            max_batcher_drift, float(np.max(np.abs(np.asarray(got) - expected)))
        )
        if max_batcher_drift > 1e-12:
            raise AssertionError(f"{name} drifted {max_batcher_drift:.2e} from the fresh engine")

    with ShardedEngine(pipeline, num_shards=2, cache_size=1024) as sharded:
        with MicroBatcher(sharded, max_delay_ms=2.0, overflow="block") as batcher:
            with WorkerPool(pipeline, num_workers=2, cache_size=1024) as pool:
                engine = ColocationEngine(pipeline, cache_size=1024)
                transports = {
                    "engine": engine,
                    "sharded": sharded,
                    "batcher": batcher,
                    "workers": pool,
                }
                # The fifth transport: a batcher over the worker pool, driven
                # so its flushes overlap (two in flight, invalidations as
                # barriers) — every future of a step is issued first.
                pool_batcher = MicroBatcher(pool, max_delay_ms=0.0, max_batch=8)
                profiles = dict(base_profiles)
                with pool_batcher:
                    for step in range(3):
                        mutated = [int(u) for u in rng.choice(uids, size=4, replace=False)]
                        for uid in mutated:
                            profiles[uid] = mutate(profiles[uid], step)
                        current = [profiles[uid] for uid in uids]
                        pairs = [
                            Pair(current[i], current[(i + 1 + step) % len(current)])
                            for i in range(len(current))
                        ]
                        expected = fresh.predict_proba(pairs)
                        for name, transport in transports.items():
                            transport.invalidate(mutated)
                            got = transport.predict_proba(pairs)
                            if name == "batcher":
                                check_batcher(name, got, expected)
                            elif not np.array_equal(np.asarray(got), expected):
                                raise AssertionError(
                                    f"{name} diverged from the fresh engine after mutations"
                                )
                        dropped = pool_batcher.submit_invalidate(mutated)
                        scores = [
                            pool_batcher.submit_score(pairs[start : start + 3])
                            for start in range(0, len(pairs), 3)
                        ]
                        dropped.result(timeout=120)
                        got = np.concatenate([future.result(timeout=120) for future in scores])
                        check_batcher("batcher over workers", got, expected)
    return {"steps": 3, "users": len(uids), "batcher_drift": max_batcher_drift}


def run(smoke: bool = False) -> str:
    if smoke:
        timing = run_incremental_vs_scratch(num_users=32, history_len=16, rounds=2)
        parity = run_transport_mutation_parity()
    else:
        timing = run_incremental_vs_scratch()
        parity = None
    lines = [
        f"Benchmark: live profile maintenance — incremental Eq. (1)-(2) vs scratch, "
        f"{timing['num_users']} users x {timing['history_len']} visits, "
        f"{timing['rounds']} mutation rounds" + (" [smoke]" if smoke else ""),
        "",
        f"scratch      {timing['scratch_s'] * 1e3:9.1f} ms "
        f"({timing['rounds']} full featurize_batch rounds)",
        f"incremental  {timing['incremental_s'] * 1e3:9.1f} ms "
        f"(append_batch + rows_for)",
        f"max |row diff| = {timing['max_row_diff']:.2e} (gate: <= {ROW_ATOL:.0e})",
        "",
    ]
    if timing["max_row_diff"] > ROW_ATOL:
        raise AssertionError(
            f"incremental rows drifted {timing['max_row_diff']:.2e} from scratch"
        )
    if smoke:
        assert parity is not None
        lines.append(
            "smoke run: mutate-then-score parity checked over the four transports "
            "and a batcher over workers with overlapping flushes "
            f"(engine/sharded/workers exact, batcher drift {parity['batcher_drift']:.1e} "
            "<= 1e-12); speedup target not enforced"
        )
    else:
        lines.append(
            f"headline ({timing['num_users']} users x {timing['history_len']} visits): "
            f"{timing['speedup']:.2f}x incremental over scratch "
            f"({'meets' if timing['speedup'] >= TARGET_SPEEDUP else 'MISSES'} the "
            f">= {TARGET_SPEEDUP:.0f}x target)"
        )
        if timing["speedup"] < TARGET_SPEEDUP:
            raise AssertionError(
                f"incremental path reached only {timing['speedup']:.2f}x "
                f"(target {TARGET_SPEEDUP:.0f}x)"
            )
    return "\n".join(lines)


def test_live_profiles(benchmark):
    from conftest import run_once, save_report

    report = run_once(benchmark, run)
    save_report("live_profiles", report)
    assert "meets the >= 3x target" in report


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    report = run(smoke=smoke)
    print(report)
    if not smoke:
        results = pathlib.Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / "live_profiles.txt").write_text(report + "\n")
