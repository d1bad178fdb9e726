"""WorkerPool lifecycle: surface, death, respawn, shutdown hygiene.

Bit-for-bit parity with the other transports lives in
``test_serving_parity.py``; this file pins everything *around* the hot path:

* the full engine surface over the wire (warm / cache_info / threshold /
  snapshot / restore / ping) and ``resolve_engine`` pass-through;
* worker death — a killed worker fails the call in flight *and* everything
  queued behind it promptly with :class:`repro.errors.WorkerCrashError`,
  :class:`repro.cluster.ClusterMetrics` counts the incident, and with
  ``respawn=True`` the next call brings the worker back warm-started from
  the retained snapshot rows;
* graceful shutdown — ``close()`` drains, workers exit, no orphan processes
  or leaked children survive, and a second ``close()`` is a no-op.

Pool spawns cost seconds each (a fresh interpreter per worker), so the
read-only tests share one module-scoped pool; destructive tests build their
own.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import ColocationEngine, JudgeRequest
from repro.cluster import ClusterMetrics, MicroBatcher, WorkerPool
from repro.core.protocols import profile_key
from repro.data.records import Pair
from repro.errors import ConfigurationError, WireProtocolError, WorkerCrashError


@pytest.fixture(scope="module")
def serving_pairs(tiny_dataset):
    pairs = list(tiny_dataset.test.labeled_pairs) + list(tiny_dataset.train.labeled_pairs)
    assert len(pairs) >= 8, "the tiny dataset must provide labeled pairs"
    return pairs[:16]


@pytest.fixture(scope="module")
def pool(fitted_pipeline):
    with WorkerPool(fitted_pipeline, num_workers=2, cache_size=256) as pool:
        yield pool


@pytest.fixture(scope="module")
def reference_engine(fitted_pipeline):
    return ColocationEngine(fitted_pipeline, cache_size=256)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


# ---------------------------------------------------------------- wire surface


def test_engine_surface_matches_reference(pool, reference_engine, serving_pairs):
    assert np.array_equal(
        pool.predict_proba(serving_pairs), reference_engine.predict_proba(serving_pairs)
    )
    assert np.array_equal(
        pool.predict(serving_pairs), reference_engine.predict(serving_pairs)
    )
    assert pool.threshold == reference_engine.threshold
    assert pool.registry is reference_engine.registry


def test_warm_and_cache_info(pool, serving_pairs):
    profiles = [pair.left for pair in serving_pairs] + [pair.right for pair in serving_pairs]
    pool.warm(profiles)
    info = pool.cache_info()
    assert info.size > 0
    infos = pool.worker_cache_infos()
    assert len(infos) == pool.num_workers
    assert sum(i.size for i in infos) == info.size
    # warm again: everything resident now, nothing featurized
    assert pool.warm(profiles) == 0


def test_features_match_engine(pool, reference_engine, serving_pairs):
    profiles = [pair.left for pair in serving_pairs[:6]]
    assert np.array_equal(pool.features(profiles), reference_engine.features(profiles))
    assert pool.features([]).shape == reference_engine.features([]).shape


def test_serve_carries_worker_cache_traffic(pool, serving_pairs):
    request = JudgeRequest(pairs=tuple(serving_pairs[:4]))
    response = pool.serve(request)
    assert len(response) == len(request)
    assert response.cache_hits + response.cache_misses > 0


def test_snapshot_restore_roundtrip(fitted_pipeline, pool, serving_pairs):
    profiles = [pair.left for pair in serving_pairs]
    pool.warm(profiles)
    snapshot = pool.snapshot()
    assert len(snapshot) == pool.num_workers
    total = sum(len(rows) for rows in snapshot)
    assert total > 0
    # restore re-routes by stable hash, so the same pool accepts its own
    # snapshot fully
    assert pool.restore(snapshot) == total


def test_ping(pool):
    for index in range(pool.num_workers):
        assert pool.ping(index)


def test_typed_error_crosses_the_wire_and_worker_survives(pool):
    with pytest.raises(ConfigurationError, match="unknown worker operation"):
        pool._call(0, "definitely-not-an-op", {})
    assert pool.ping(0)  # error frames do not poison the connection


@pytest.mark.parametrize(
    "body, arrays",
    [
        ({"profiles": [[1, 2]]}, (np.zeros((0, 3)),)),  # a row of 2, not 10
        ({"profiles": [[1, 1, 0.0, "x", None, None, None, None, None, 2]]}, (np.zeros((1, 3)),)),
        ({"profiles": []}, (np.zeros((0, 2)),)),  # visits without 3 columns
        ({"profiles": []}, ()),  # no visits array at all
    ],
)
def test_malformed_gather_is_a_typed_error_and_the_wire_stays_in_sync(
    pool, reference_engine, serving_pairs, body, arrays
):
    with pytest.raises(WireProtocolError):
        pool._call(0, "gather", body, arrays)
    assert all(pool.workers_alive())
    assert np.array_equal(
        pool.predict_proba(serving_pairs), reference_engine.predict_proba(serving_pairs)
    )


@pytest.mark.parametrize(
    "keys",
    [
        [[1, 2.0]],  # a short key
        "not-a-list",
        [[1, 2.0, "tweet", "three", 0]],  # a non-numeric field
    ],
)
def test_malformed_restore_is_a_typed_error_and_the_worker_keeps_serving(
    pool, reference_engine, serving_pairs, keys
):
    with pytest.raises(WireProtocolError):
        pool._call(0, "restore", {"keys": keys}, (np.zeros((1, 4)),))
    assert pool.ping(0)
    assert np.array_equal(
        pool.predict_proba(serving_pairs), reference_engine.predict_proba(serving_pairs)
    )


def test_uid_beyond_uint64_serves_bit_for_bit(pool, reference_engine, serving_pairs):
    big = [
        Pair(
            left=dataclasses.replace(pair.left, uid=2**64 + index),
            right=dataclasses.replace(pair.right, uid=2**70 + index),
            co_label=pair.co_label,
        )
        for index, pair in enumerate(serving_pairs[:6])
    ]
    assert np.array_equal(pool.predict_proba(big), reference_engine.predict_proba(big))
    assert np.array_equal(
        pool.features([pair.left for pair in big]),
        reference_engine.features([pair.left for pair in big]),
    )


def test_resolve_engine_passes_pool_through(pool):
    from repro.service._engine import resolve_engine

    assert resolve_engine(pool) is pool


def test_micro_batcher_stacks_on_pool(pool, reference_engine, serving_pairs):
    with MicroBatcher(pool, max_batch=8, max_delay_ms=1.0) as batcher:
        got = batcher.score(serving_pairs)
    assert np.allclose(got, reference_engine.predict_proba(serving_pairs), atol=1e-12)


def test_constructor_validation(fitted_pipeline):
    with pytest.raises(ConfigurationError):
        WorkerPool(fitted_pipeline, num_workers=0)
    with pytest.raises(ConfigurationError):
        WorkerPool(fitted_pipeline, num_workers=2, cache_size=-1)


# ---------------------------------------------------------------- worker death


def test_killed_worker_fails_calls_fast_and_metrics_count(fitted_pipeline, serving_pairs):
    with WorkerPool(fitted_pipeline, num_workers=2, cache_size=128) as pool:
        pool.predict_proba(serving_pairs)  # touch every worker
        victim = pool.worker_of(serving_pairs[0].left)
        os.kill(pool.worker_pids()[victim], signal.SIGKILL)
        _wait_until(lambda: not pool._handles[victim].process.is_alive())

        started = time.monotonic()
        with pytest.raises(WorkerCrashError):
            pool.predict_proba(serving_pairs)
        assert time.monotonic() - started < 5.0  # fail fast, never hang

        # every further call routed there fails fast too (respawn disabled)
        with pytest.raises(WorkerCrashError):
            pool.ping(victim)

        snapshot = pool.metrics.snapshot()
        assert snapshot.worker_deaths == 1
        assert snapshot.worker_respawns == 0
        assert "deaths=1" in snapshot.format()
        # the surviving worker still serves its slice
        survivor = 1 - victim
        alone = [p for p in serving_pairs if pool.worker_of(p.left) == survivor and pool.worker_of(p.right) == survivor]
        if alone:
            assert len(pool.predict_proba(alone)) == len(alone)


def test_kill_mid_call_fails_pending_futures_typed(fitted_pipeline, serving_pairs):
    """SIGSTOP a worker so a call is genuinely in flight, then SIGKILL it:
    the blocked call and the one queued behind it both fail typed."""
    with WorkerPool(fitted_pipeline, num_workers=1, cache_size=128) as pool:
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        failures = []

        def call():
            try:
                pool.predict_proba(serving_pairs[:4])
            except BaseException as exc:  # noqa: BLE001 - recording for assert
                failures.append(exc)

        threads = [threading.Thread(target=call) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)  # let both calls reach the wire / the queue
        os.kill(pid, signal.SIGKILL)
        os.kill(pid, signal.SIGCONT)
        for thread in threads:
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "a pending call hung on a dead worker"
        assert len(failures) == 2
        assert all(isinstance(exc, WorkerCrashError) for exc in failures)
        assert pool.metrics.snapshot().worker_deaths == 1


def test_respawn_restores_retained_cache(fitted_pipeline, serving_pairs):
    with WorkerPool(fitted_pipeline, num_workers=2, cache_size=128, respawn=True) as pool:
        profiles = [pair.left for pair in serving_pairs]
        pool.warm(profiles)
        snapshot = pool.snapshot()  # retains rows for warm-starting
        victim = next(
            index for index, rows in enumerate(snapshot) if rows
        )
        retained_rows = len(snapshot[victim])
        old_pid = pool.worker_pids()[victim]

        os.kill(old_pid, signal.SIGKILL)
        _wait_until(lambda: not pool._handles[victim].process.is_alive())
        with pytest.raises(WorkerCrashError):
            pool.ping(victim)  # the death is noticed (and counted) here

        # the next call respawns the worker and warm-starts its cache
        assert pool.ping(victim)
        assert pool.worker_pids()[victim] != old_pid
        assert pool.worker_cache_infos()[victim].size == retained_rows

        metrics = pool.metrics.snapshot()
        assert metrics.worker_deaths == 1
        assert metrics.worker_respawns == 1

        # and the respawned worker serves bit-identical results
        reference = ColocationEngine(fitted_pipeline, cache_size=128)
        assert np.array_equal(
            pool.predict_proba(serving_pairs), reference.predict_proba(serving_pairs)
        )


def test_respawned_worker_carries_its_cache_counts(fitted_pipeline, serving_pairs):
    """A worker slot's hits and featurized rows never drop across respawns."""
    with WorkerPool(fitted_pipeline, num_workers=2, cache_size=128, respawn=True) as pool:
        victim = pool.worker_of(serving_pairs[0].left)
        reports = []
        for _ in range(2):
            pool.predict_proba(serving_pairs)  # featurizes the slot's rows
            pool.predict_proba(serving_pairs)  # then hits them
            reports.append(pool.worker_cache_infos()[victim])
            os.kill(pool.worker_pids()[victim], signal.SIGKILL)
            _wait_until(lambda: not pool._handles[victim].process.is_alive())
            with pytest.raises(WorkerCrashError):
                pool.ping(victim)  # the death is noticed here
            reports.append(pool.worker_cache_infos()[victim])  # respawns
        pool.predict_proba(serving_pairs)  # the third incarnation featurizes too
        reports.append(pool.worker_cache_infos()[victim])

        for field in ("featurized", "hits", "misses"):
            counts = [getattr(report, field) for report in reports]
            assert counts == sorted(counts), f"{field} dropped: {counts}"
        # Three cold incarnations each featurized the slot's rows once.
        assert reports[-1].featurized == 3 * reports[0].featurized > 0
        assert reports[-1].hits >= 2 * reports[0].hits > 0
        assert pool.metrics.snapshot().worker_respawns == 2


def test_respawn_carries_gathers_since_the_last_report(fitted_pipeline, serving_pairs):
    """Every gather RESULT carries the worker's cumulative counters, so a
    worker killed with no cache_info call since its gathers still hands
    them to its slot."""
    with WorkerPool(fitted_pipeline, num_workers=2, cache_size=128, respawn=True) as pool:
        victim = pool.worker_of(serving_pairs[0].left)
        owned = {
            profile_key(profile)
            for pair in serving_pairs
            for profile in (pair.left, pair.right)
            if pool.worker_of(profile) == victim
        }
        for _ in range(3):  # the first gather featurizes the slot's rows, the rest hit
            pool.predict_proba(serving_pairs)
        os.kill(pool.worker_pids()[victim], signal.SIGKILL)
        _wait_until(lambda: not pool._handles[victim].process.is_alive())
        with pytest.raises(WorkerCrashError):
            pool.ping(victim)  # the death is noticed here
        assert pool.ping(victim)  # respawned; no cache_info call came in between
        report = pool.worker_cache_infos()[victim]
        assert report.featurized == report.misses == len(owned) > 0
        assert report.hits == 2 * len(owned)
        assert pool.metrics.snapshot().worker_respawns == 1


# ------------------------------------------------------------------- shutdown


def test_close_reaps_workers_and_is_idempotent(fitted_pipeline, serving_pairs):
    pool = WorkerPool(fitted_pipeline, num_workers=2, cache_size=128)
    pool.predict_proba(serving_pairs)
    processes = [handle.process for handle in pool._handles]
    bundle_dir = pool._bundle_dir
    pool.close()
    assert all(not process.is_alive() for process in processes)
    # SHUTDOWN (not terminate) ends a healthy worker: exitcode 0, not -SIGTERM
    assert all(process.exitcode == 0 for process in processes)
    assert not any(p in multiprocessing.active_children() for p in processes)
    assert not os.path.exists(bundle_dir)  # the bundle tempdir is cleaned up
    pool.close()  # double close: a no-op, not an error
    with pytest.raises(ConfigurationError, match="closed"):
        pool.predict_proba(serving_pairs)


def test_close_after_death_still_reaps_everything(fitted_pipeline, serving_pairs):
    pool = WorkerPool(fitted_pipeline, num_workers=2, cache_size=128)
    try:
        pool.predict_proba(serving_pairs)
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
    finally:
        pool.close()
    assert all(not handle.process.is_alive() for handle in pool._handles)
    # this pool's processes are reaped out of the children table (the
    # module-scoped fixture pool may still be running its own workers)
    alive = multiprocessing.active_children()
    assert not any(handle.process in alive for handle in pool._handles)


def test_worker_exits_on_gateway_eof(fitted_pipeline):
    """EOF alone stops a worker — a crashed gateway leaves no orphans."""
    pool = WorkerPool(fitted_pipeline, num_workers=1, cache_size=64)
    handle = pool._handles[0]
    process = handle.process

    async def sever():  # close the socket without the courtesy SHUTDOWN frame
        handle.writer.close()

    pool._run(sever())
    assert _wait_until(lambda: not process.is_alive(), timeout=10.0)
    assert process.exitcode == 0
    pool.close()


# --------------------------------------------------------------- observability


def test_stats_op_round_trips_worker_registries(pool, serving_pairs):
    """The ``stats`` wire op exports each worker's metrics registry, and
    ``obs_snapshot`` merges them with the gateway-side registry."""
    from repro.obs import tracing

    with tracing():
        pool.predict_proba(serving_pairs[:6])
        snapshots = pool.worker_obs_snapshots()
        merged = pool.obs_snapshot()
    assert len(snapshots) == pool.num_workers
    names = {metric["name"] for snap in snapshots for metric in snap["metrics"]}
    assert "repro_stage_latency_ms" in names  # workers trace their gathers
    gather = merged.get("repro_stage_latency_ms").labels(stage="gather")
    assert gather.count > 0
    assert merged.to_text()  # the merged registry renders an exposition


def test_trace_ids_propagate_across_the_wire(pool, serving_pairs):
    """The gateway's trace id rides the CALL body; worker spans merge back."""
    from repro.obs import STAGE_WIRE_RTT, tracing

    with tracing():
        response = pool.serve(JudgeRequest(pairs=tuple(serving_pairs[:4])))
    stages = [stage for stage, _ in response.trace["stages"]]
    assert STAGE_WIRE_RTT in stages
    assert stages.count("gather") >= 2  # the gateway's plus each worker's


def _stage_counts(snapshot, stage):
    from repro.obs import STAGE_METRIC, MetricsRegistry

    family = MetricsRegistry.merged([snapshot]).get(STAGE_METRIC)
    return 0 if family is None else family.labels(stage=stage).count


def test_serve_batch_makes_one_gather_round_trip_per_owner(pool, serving_pairs):
    """k coalesced requests cost one wire fan-out: each owner worker answers
    one gather (and featurizes its fresh rows in one call), not one per
    request."""
    import dataclasses

    from repro.obs import STAGE_METRIC, STAGE_WIRE_RTT, tracing

    def fresh(pair):
        left = dataclasses.replace(pair.left, revision=8_000_000)
        right = dataclasses.replace(pair.right, revision=8_000_000)
        return dataclasses.replace(pair, left=left, right=right)

    requests = [JudgeRequest(pairs=(fresh(pair),)) for pair in serving_pairs[:5]]
    owners = {
        pool.worker_of(profile)
        for request in requests
        for pair in request.pairs
        for profile in (pair.left, pair.right)
    }
    before = pool.worker_obs_snapshots()
    with tracing() as tracer:
        responses = pool.serve_batch(requests)
        round_trips = tracer.registry.get(STAGE_METRIC).labels(stage=STAGE_WIRE_RTT).count
    after = pool.worker_obs_snapshots()
    assert len(responses) == len(requests)
    assert round_trips == 1
    for index in range(pool.num_workers):
        expected = 1 if index in owners else 0
        for stage in ("gather", "featurize"):
            delta = _stage_counts(after[index], stage) - _stage_counts(before[index], stage)
            assert delta == expected, (index, stage)


def test_out_of_range_missed_index_is_a_protocol_error(pool, serving_pairs, monkeypatch):
    """A gather RESULT naming a missed profile it was never sent is rejected
    as malformed, not silently misattributed."""
    from repro.errors import WireProtocolError

    profile = serving_pairs[0].left

    def lying_call_all(calls):
        body = {"hits": 0, "misses": 1, "featurized": 1, "missed": [len(calls[0][2]["profiles"])]}
        return [(body, [np.zeros((len(calls[0][2]["profiles"]), 3))])]

    monkeypatch.setattr(pool, "_call_all", lying_call_all)
    with pytest.raises(WireProtocolError, match="missed index"):
        pool.features([profile])


def test_heartbeat_flips_stalled_worker_without_failing_healthy_calls(
    fitted_pipeline, serving_pairs
):
    """SIGSTOP one worker: the heartbeat marks it unhealthy while the other
    worker keeps serving; SIGCONT lets the late PONG flip it back healthy
    (the stalled probe is never cancelled, so the wire stays in sync)."""
    with WorkerPool(
        fitted_pipeline,
        num_workers=2,
        cache_size=128,
        heartbeat_interval_ms=50.0,
        heartbeat_timeout_ms=300.0,
    ) as pool:
        assert pool.worker_health() == (True, True)
        assert _wait_until(lambda: len(pool.metrics.snapshot().worker_health) == 2)
        pid = pool.worker_pids()[0]
        os.kill(pid, signal.SIGSTOP)
        try:
            assert _wait_until(lambda: pool.worker_health()[0] is False, timeout=20.0)
            snapshot = pool.metrics.snapshot()
            assert dict(snapshot.worker_health)[0] is False
            assert dict(snapshot.worker_health)[1] is True
            assert "heartbeat: up=1/2" in snapshot.format()
            assert pool.ping(1)  # the healthy worker still answers
        finally:
            os.kill(pid, signal.SIGCONT)
        assert _wait_until(lambda: pool.worker_health()[0] is True, timeout=20.0)
        # the recovered pool serves full fan-out gathers again
        assert len(pool.predict_proba(serving_pairs[:4])) == 4


def test_heartbeat_reports_a_dead_worker_unhealthy(fitted_pipeline, serving_pairs):
    with WorkerPool(
        fitted_pipeline,
        num_workers=2,
        cache_size=128,
        heartbeat_interval_ms=50.0,
    ) as pool:
        os.kill(pool.worker_pids()[1], signal.SIGKILL)
        _wait_until(lambda: not pool._handles[1].process.is_alive())
        assert _wait_until(lambda: pool.worker_health()[1] is False, timeout=20.0)
        assert pool.worker_health()[0] is True


def test_heartbeat_interval_validation(fitted_pipeline):
    with pytest.raises(ConfigurationError):
        WorkerPool(fitted_pipeline, num_workers=1, heartbeat_interval_ms=0.0)


# ---------------------------------------------------------- standalone worker


def test_run_worker_listener_serves_a_raw_gather_then_shuts_down(
    fitted_pipeline, serving_pairs
):
    """The standalone ``--listen`` loop, driven in-process over a raw socket."""
    import socket

    from repro.cluster import wire
    from repro.cluster.worker import run_worker_listener

    bound = []
    ready = threading.Event()

    def on_ready(address):
        bound.append(address)
        ready.set()

    thread = threading.Thread(
        target=run_worker_listener,
        args=(fitted_pipeline,),
        kwargs={"once": True, "ready": on_ready, "cache_size": 64},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10.0)
    profiles = [pair.left for pair in serving_pairs] + [pair.right for pair in serving_pairs]
    rows, visits = wire.encode_profiles(profiles)
    with socket.create_connection(bound[0], timeout=30.0) as sock:
        wire.send_frame(
            sock, wire.FRAME_CALL, wire.encode_payload({"op": "gather", "profiles": rows}, [visits])
        )
        frame_type, payload = wire.recv_frame(sock)
        assert frame_type == wire.FRAME_RESULT
        body, arrays = wire.decode_payload(payload)
        expected = ColocationEngine(fitted_pipeline, cache_size=0).features(profiles)
        assert np.array_equal(arrays[0], expected)
        assert body["featurized"] == body["misses"] == len(body["missed"])
        wire.send_frame(sock, wire.FRAME_SHUTDOWN, b"")
        thread.join(10.0)
    assert not thread.is_alive()
