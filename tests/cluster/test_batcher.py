"""Tests for the MicroBatcher request coalescer."""

import threading
import time

import numpy as np
import pytest

from repro.api import ColocationEngine, JudgeRequest
from repro.cluster import MicroBatcher, ShardedEngine
from repro.data.records import Pair
from repro.errors import ConfigurationError, EngineOverloadError


def _stub_pair(i=0):
    from repro.data.records import Pair, Profile, Tweet

    left = Profile(uid=2 * i, tweet=Tweet(uid=2 * i, ts=1.0, content="x"), visit_history=())
    right = Profile(
        uid=2 * i + 1, tweet=Tweet(uid=2 * i + 1, ts=1.0, content="y"), visit_history=()
    )
    return Pair(left=left, right=right, co_label=None)


@pytest.fixture(scope="module")
def engine(fitted_pipeline):
    return ColocationEngine(fitted_pipeline, cache_size=512)


@pytest.fixture(scope="module")
def test_pairs(tiny_dataset):
    pairs = tiny_dataset.test.labeled_pairs or tiny_dataset.train.labeled_pairs
    return pairs[:20]


class SlowJudge:
    """A controllable judge: featurization-free, scoring latency injectable."""

    def __init__(self, delay_s=0.0):
        self.delay_s = delay_s
        self.calls = []
        self.release = threading.Event()
        self.release.set()

    def predict_proba(self, pairs):
        self.release.wait()
        if self.delay_s:
            time.sleep(self.delay_s)
        self.calls.append(len(pairs))
        return np.full(len(pairs), 0.5)

    def probability_matrix(self, profiles):
        n = len(profiles)
        matrix = np.full((n, n), 0.5)
        np.fill_diagonal(matrix, 1.0)
        return matrix


class TestValidation:
    def test_rejects_bad_settings(self, engine):
        with pytest.raises(ConfigurationError):
            MicroBatcher(object())
        with pytest.raises(ConfigurationError):
            MicroBatcher(engine, max_batch=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(engine, max_delay_ms=-1)
        with pytest.raises(ConfigurationError):
            MicroBatcher(engine, max_queue=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(engine, overflow="drop")

    def test_submit_after_close_raises(self, engine, test_pairs):
        batcher = MicroBatcher(engine)
        batcher.close()
        with pytest.raises(ConfigurationError, match="closed"):
            batcher.submit_score(test_pairs)


class TestCoalescing:
    def test_score_results_match_direct_engine(self, engine, test_pairs):
        direct = engine.predict_proba(test_pairs)
        with MicroBatcher(engine, max_delay_ms=0.0) as batcher:
            coalesced = batcher.score(test_pairs)
        np.testing.assert_allclose(coalesced, direct, atol=1e-12)

    def test_concurrent_requests_coalesce_into_fewer_engine_calls(self):
        judge = SlowJudge()
        judge.release.clear()  # hold the flusher so submissions pile up
        from repro.data.records import Pair, Profile, Tweet

        def pair(i):
            left = Profile(uid=2 * i, tweet=Tweet(uid=2 * i, ts=1.0, content="x"), visit_history=())
            right = Profile(uid=2 * i + 1, tweet=Tweet(uid=2 * i + 1, ts=1.0, content="y"), visit_history=())
            return Pair(left=left, right=right, co_label=None)

        with MicroBatcher(judge, max_batch=64, max_delay_ms=0.0) as batcher:
            futures = [batcher.submit_score([pair(i)]) for i in range(12)]
            judge.release.set()
            results = [f.result(timeout=10) for f in futures]
        assert all(r.shape == (1,) for r in results)
        # 12 one-pair requests flushed in far fewer engine invocations (the
        # first may slip through alone before the pile-up).
        assert len(judge.calls) < 12
        assert sum(judge.calls) == 12

    def test_matrix_and_warm_requests_round_trip(self, engine, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:6]
        direct = engine.probability_matrix(profiles)
        with MicroBatcher(engine) as batcher:
            warmed = batcher.warm(profiles)
            matrix = batcher.probability_matrix(profiles)
        assert warmed >= 0
        np.testing.assert_allclose(matrix, direct, atol=1e-12)

    def test_coalesced_warms_report_per_request_counts(self, tiny_dataset):
        """Two warms of the same profiles in one flush: the first featurizes,
        the second reports 0 — per-call accounting, not the flush total."""
        from repro.api import ColocationEngine

        release = threading.Event()

        class GatedFeatureJudge:
            def predict_proba(self, pairs):
                release.wait()
                return np.zeros(len(pairs))

            def featurize_profiles(self, profiles):
                return np.array([[float(p.uid)] for p in profiles])

            def score_feature_pairs(self, left, right):
                return np.zeros(len(left))

        from repro.data.records import Pair

        engine = ColocationEngine(GatedFeatureJudge(), cache_size=64)
        profiles = tiny_dataset.train.labeled_profiles[:5]
        blocker = [Pair(left=profiles[0], right=profiles[1], co_label=None)]
        with MicroBatcher(engine, max_delay_ms=0.0) as batcher:
            holding = batcher.submit_score(blocker)  # occupies the flusher
            first = batcher.submit_warm(profiles)
            second = batcher.submit_warm(profiles)  # same flush as `first`
            release.set()
            holding.result(timeout=10)
            assert first.result(timeout=10) > 0
            assert second.result(timeout=10) == 0

    def test_empty_submissions_resolve_immediately(self, engine):
        with MicroBatcher(engine) as batcher:
            assert batcher.score([]).shape == (0,)
            assert batcher.probability_matrix([]).shape == (0, 0)
            assert batcher.warm([]) == 0

    def test_works_over_a_sharded_engine(self, fitted_pipeline, test_pairs):
        single = ColocationEngine(fitted_pipeline, cache_size=512)
        direct = single.predict_proba(test_pairs)
        with ShardedEngine(fitted_pipeline, num_shards=2, cache_size=512) as sharded:
            with MicroBatcher(sharded) as batcher:
                np.testing.assert_allclose(batcher.score(test_pairs), direct, atol=1e-12)

    def test_serve_flush_featurizes_once_per_owner_shard(self, fitted_pipeline, tiny_dataset):
        """A flush of serve requests over fresh profiles makes one gather and
        one featurize call per owner shard, however many requests it holds."""
        import dataclasses

        from repro.data.records import Pair
        from repro.obs import STAGE_FEATURIZE, STAGE_GATHER, STAGE_METRIC, tracing

        by_uid = {}
        for profile in tiny_dataset.train.labeled_profiles:
            by_uid.setdefault(profile.uid, dataclasses.replace(profile, revision=7_000_000))
        profiles = list(by_uid.values())[:6]
        requests = [
            JudgeRequest(pairs=(Pair(profiles[i], profiles[(i + 1) % 6]),)) for i in range(6)
        ]
        with ShardedEngine(fitted_pipeline, num_shards=2, cache_size=0) as sharded:
            owners = {sharded.shard_of(profile) for profile in profiles}
            with tracing() as tracer, MicroBatcher(sharded, max_delay_ms=0.0) as batcher:
                # Holding the queue's condition keeps the flusher from picking
                # up any request before all six are queued: they share a flush.
                with batcher._cond:
                    futures = [batcher.submit_serve(request) for request in requests]
                responses = [future.result(timeout=30) for future in futures]
                stages = tracer.registry.get(STAGE_METRIC)
                gathers = stages.labels(stage=STAGE_GATHER).count
                featurizes = stages.labels(stage=STAGE_FEATURIZE).count
            assert batcher.metrics.snapshot().flushes == 1
        assert gathers == 1
        assert featurizes == len(owners)
        assert sum(response.cache_misses for response in responses) == len(profiles)


class TestBackpressure:
    def test_reject_policy_raises_engine_overload(self):
        judge = SlowJudge()
        judge.release.clear()
        from repro.data.records import Pair, Profile, Tweet

        left = Profile(uid=1, tweet=Tweet(uid=1, ts=1.0, content="x"), visit_history=())
        right = Profile(uid=2, tweet=Tweet(uid=2, ts=1.0, content="y"), visit_history=())
        pairs = [Pair(left=left, right=right, co_label=None)]
        batcher = MicroBatcher(judge, max_queue=2, overflow="reject", max_delay_ms=50.0)
        try:
            accepted = []
            with pytest.raises(EngineOverloadError):
                for _ in range(50):
                    accepted.append(batcher.submit_score(pairs))
            assert batcher.metrics.snapshot().rejections == 1
        finally:
            judge.release.set()
            batcher.close()

    def test_block_policy_waits_for_space(self):
        judge = SlowJudge(delay_s=0.01)
        from repro.data.records import Pair, Profile, Tweet

        left = Profile(uid=1, tweet=Tweet(uid=1, ts=1.0, content="x"), visit_history=())
        right = Profile(uid=2, tweet=Tweet(uid=2, ts=1.0, content="y"), visit_history=())
        pairs = [Pair(left=left, right=right, co_label=None)]
        with MicroBatcher(judge, max_queue=2, overflow="block", max_batch=2) as batcher:
            futures = [batcher.submit_score(pairs) for _ in range(20)]
            results = [f.result(timeout=30) for f in futures]
        assert len(results) == 20
        assert batcher.metrics.snapshot().rejections == 0

    def test_close_without_drain_fails_pending(self):
        judge = SlowJudge()
        judge.release.clear()
        from repro.data.records import Pair, Profile, Tweet

        left = Profile(uid=1, tweet=Tweet(uid=1, ts=1.0, content="x"), visit_history=())
        right = Profile(uid=2, tweet=Tweet(uid=2, ts=1.0, content="y"), visit_history=())
        pairs = [Pair(left=left, right=right, co_label=None)]
        batcher = MicroBatcher(judge, max_delay_ms=1000.0, max_batch=1024)
        futures = [batcher.submit_score(pairs) for _ in range(5)]
        batcher.close(drain=False)
        judge.release.set()
        failed = 0
        for future in futures:
            try:
                future.result(timeout=10)
            except EngineOverloadError:
                failed += 1
        # Whatever had not yet been picked up by the flusher fails loudly.
        assert failed >= 1

    def test_flush_error_propagates_to_every_caller(self, tiny_dataset):
        class ExplodingJudge:
            def predict_proba(self, pairs):
                raise RuntimeError("boom")

        pairs = tiny_dataset.train.labeled_pairs[:2]
        with MicroBatcher(ExplodingJudge(), max_delay_ms=0.0) as batcher:
            future = batcher.submit_score(pairs)
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=10)


class TestMetricsIntegration:
    def test_flushes_and_latency_recorded(self, engine, test_pairs):
        with MicroBatcher(engine) as batcher:
            batcher.score(test_pairs)
        # Snapshot after close: flush metrics are recorded after the futures
        # resolve, so only a joined flusher guarantees a complete count.
        snapshot = batcher.metrics.snapshot()
        assert snapshot.requests == 1
        assert snapshot.pairs_scored == len(test_pairs)
        assert snapshot.flushes >= 1
        assert snapshot.latency_p50_ms > 0.0
        assert snapshot.cache is not None

    def test_bookkeeping_of_every_flush_is_done_once_closed(self, engine, test_pairs):
        """close() returns only once every flush's metrics bookkeeping is recorded."""
        from repro.obs import STAGE_METRIC, STAGE_QUEUE_WAIT, tracing

        with tracing() as tracer:
            with MicroBatcher(engine, max_delay_ms=0.0) as batcher:
                for _ in range(3):
                    batcher.serve(JudgeRequest(pairs=tuple(test_pairs)))
        waits = tracer.registry.get(STAGE_METRIC).labels(stage=STAGE_QUEUE_WAIT)
        assert waits.count == 3
        snapshot = batcher.metrics.snapshot()
        assert snapshot.requests == snapshot.serve_requests == snapshot.flushes == 3

    def test_serve_requests_are_counted(self, engine, test_pairs):
        with MicroBatcher(engine) as batcher:
            batcher.serve(JudgeRequest(pairs=tuple(test_pairs)))
            batcher.score(test_pairs)
        snapshot = batcher.metrics.snapshot()
        assert snapshot.serve_requests == 1
        assert snapshot.requests == 2
        # Serve pairs count as scored pairs: they went through the scorer.
        assert snapshot.pairs_scored == 2 * len(test_pairs)


class TestServeKind:
    def test_serve_matches_direct_engine(self, engine, test_pairs):
        request = JudgeRequest(pairs=tuple(test_pairs), threshold=0.4)
        direct = engine.serve(request)
        with MicroBatcher(engine, max_delay_ms=0.0) as batcher:
            response = batcher.serve(request)
        np.testing.assert_allclose(
            np.asarray(response.probabilities), np.asarray(direct.probabilities), atol=1e-12
        )
        assert response.decisions == direct.decisions
        assert response.threshold == direct.threshold

    def test_serve_requests_coalesce_into_one_serve_batch_call(
        self, fitted_pipeline, test_pairs
    ):
        class CountingEngine:
            """Engine proxy that gates scoring and counts serve_batch calls."""

            def __init__(self, inner):
                self.inner = inner
                self.serve_batch_sizes = []
                self.release = threading.Event()

            def predict_proba(self, pairs):
                self.release.wait()
                return self.inner.predict_proba(pairs)

            def serve(self, request):
                return self.inner.serve(request)

            def serve_batch(self, requests):
                requests = list(requests)
                self.serve_batch_sizes.append(len(requests))
                return self.inner.serve_batch(requests)

            def cache_info(self):
                return self.inner.cache_info()

        counting = CountingEngine(ColocationEngine(fitted_pipeline, cache_size=512))
        request = JudgeRequest(pairs=tuple(test_pairs[:3]))
        with MicroBatcher(counting, max_delay_ms=0.0) as batcher:
            holding = batcher.submit_score([test_pairs[0]])  # occupies the flusher
            futures = [batcher.submit_serve(request) for _ in range(6)]
            counting.release.set()
            holding.result(timeout=10)
            responses = [future.result(timeout=10) for future in futures]
        assert all(len(response) == len(request.pairs) for response in responses)
        # The six concurrent serves flushed in far fewer serve_batch calls.
        assert sum(counting.serve_batch_sizes) == 6
        assert max(counting.serve_batch_sizes) > 1

    def test_empty_serve_resolves_immediately(self, engine):
        with MicroBatcher(engine) as batcher:
            response = batcher.serve(JudgeRequest(pairs=()))
        assert response.probabilities == ()
        assert response.decisions == ()
        assert response.threshold == engine.threshold

    def test_submit_serve_requires_a_serving_engine(self):
        with MicroBatcher(SlowJudge()) as batcher:
            with pytest.raises(ConfigurationError, match="serve"):
                batcher.submit_serve(JudgeRequest(pairs=(_stub_pair(),)))

    def test_submit_serve_rejects_invalid_threshold(self, engine, test_pairs):
        with MicroBatcher(engine) as batcher:
            with pytest.raises(ConfigurationError, match="threshold"):
                batcher.submit_serve(JudgeRequest(pairs=tuple(test_pairs), threshold=7.0))

    def test_batcher_speaks_the_engine_surface(self, engine, test_pairs):
        """Services resolve a batcher like an engine: the pass-throughs and
        predict_proba alias must behave."""
        with MicroBatcher(engine) as batcher:
            assert batcher.judge is engine.judge
            assert batcher.registry is engine.registry
            assert batcher.threshold == engine.threshold
            assert batcher.cache_info().maxsize == engine.cache_info().maxsize
            np.testing.assert_allclose(
                batcher.predict_proba(test_pairs), engine.predict_proba(test_pairs), atol=1e-12
            )


class BrokenMetrics:
    """A user-supplied metrics object whose every hook raises."""

    def __init__(self):
        self.flush_calls = 0

    def observe_flush(self, **kwargs):
        self.flush_calls += 1
        raise RuntimeError("broken metrics")

    def observe_latency(self, latency_ms):
        raise RuntimeError("broken metrics")

    def observe_rejection(self):
        raise RuntimeError("broken metrics")


class FatalMetrics:
    """Raises a non-Exception BaseException on the first flush — the only
    way left to kill the flusher thread."""

    def __init__(self):
        self.fired = False

    def observe_flush(self, **kwargs):
        if not self.fired:
            self.fired = True
            raise KeyboardInterrupt("fatal in metrics")

    def observe_latency(self, latency_ms):
        pass

    def observe_rejection(self):
        pass


class TestFlusherResilience:
    def test_broken_metrics_do_not_kill_the_flusher(self, engine, test_pairs):
        """Regression: an exception escaping observe_flush/observe_latency in
        the flush's finally block killed the repro-microbatcher thread
        silently, hanging every queued and future submission."""
        metrics = BrokenMetrics()
        with MicroBatcher(engine, metrics=metrics) as batcher:
            first = batcher.score(test_pairs)
            second = batcher.score(test_pairs)  # would hang forever before the fix
        assert first.shape == second.shape == (len(test_pairs),)
        assert metrics.flush_calls >= 2
        assert batcher.metrics_errors > 0

    def test_broken_rejection_metrics_still_raise_overload(self):
        judge = SlowJudge()
        judge.release.clear()
        pairs = [_stub_pair()]
        batcher = MicroBatcher(
            judge, max_queue=1, overflow="reject", max_delay_ms=50.0, metrics=BrokenMetrics()
        )
        try:
            with pytest.raises(EngineOverloadError):
                for _ in range(50):
                    batcher.submit_score(pairs)
        finally:
            judge.release.set()
            batcher.close()

    def test_dead_flusher_fails_pending_and_subsequent_submits(self):
        """If a flusher does die, queued futures fail loudly and new
        submissions raise instead of waiting on a flush that never comes."""

        class TwoGateJudge(SlowJudge):
            """Scores wait on ``release``, matrices on ``hold``."""

            def __init__(self):
                super().__init__()
                self.hold = threading.Event()

            def probability_matrix(self, profiles):
                self.hold.wait()
                return super().probability_matrix(profiles)

        judge = TwoGateJudge()
        judge.release.clear()
        pairs = [_stub_pair()]
        batcher = MicroBatcher(
            judge, max_delay_ms=0.0, max_batch=1, metrics=FatalMetrics()
        )

        def wait_for_pickup():
            deadline = time.time() + 5.0
            while batcher.queue_depth and time.time() < deadline:
                time.sleep(0.001)

        first = batcher.submit_score(pairs)  # one flusher takes it and blocks
        wait_for_pickup()
        # The other flusher takes this one and blocks: both flush slots held.
        held = batcher.submit_probability_matrix([pairs[0].left])
        wait_for_pickup()
        second = batcher.submit_score(pairs)  # queued behind both
        judge.release.set()  # first flush completes; its metrics kill its flusher
        with pytest.raises(EngineOverloadError, match="died"):
            second.result(timeout=10)
        judge.hold.set()  # the surviving flusher finishes its flush, then exits
        for flusher in batcher._flushers:
            flusher.join(timeout=10)
        assert not any(flusher.is_alive() for flusher in batcher._flushers)
        assert first.result(timeout=10).shape == (1,)
        assert held.result(timeout=10).shape == (1, 1)
        with pytest.raises(EngineOverloadError, match="died"):
            batcher.submit_score(pairs)
        batcher.close()  # idempotent on a dead batcher


class TestLifecycleEdges:
    def test_close_without_drain_unblocks_blocked_submitters(self):
        """A submitter stuck in overflow="block" must raise on close, not
        wait forever for queue space that will never free."""
        judge = SlowJudge()
        judge.release.clear()
        pairs = [_stub_pair()]
        batcher = MicroBatcher(judge, max_queue=1, overflow="block", max_delay_ms=0.0)
        for _ in range(2):  # each flusher takes one and blocks: both slots held
            batcher.submit_score(pairs)
            deadline = time.time() + 5.0
            while batcher.queue_depth and time.time() < deadline:
                time.sleep(0.001)
        second = batcher.submit_score(pairs)  # fills the queue
        outcome = {}

        def blocked_submitter():
            try:
                outcome["future"] = batcher.submit_score(pairs)
            except Exception as exc:
                outcome["error"] = exc

        submitter = threading.Thread(target=blocked_submitter)
        submitter.start()
        time.sleep(0.05)  # let it block in the overflow wait
        closer = threading.Thread(target=lambda: batcher.close(drain=False))
        closer.start()
        submitter.join(timeout=10)
        assert not submitter.is_alive()
        judge.release.set()  # free the flushers so close() can join them
        closer.join(timeout=10)
        assert not closer.is_alive()
        if "error" in outcome:
            assert isinstance(outcome["error"], (ConfigurationError, EngineOverloadError))
        else:  # it slipped in before close; close then failed its future
            with pytest.raises(EngineOverloadError):
                outcome["future"].result(timeout=10)
        with pytest.raises(EngineOverloadError):
            second.result(timeout=10)

    def test_engine_error_fails_every_future_in_a_mixed_kind_flush(self, engine):
        """One exploding flush must resolve score, matrix, warm AND serve
        futures — a survivor would hang its caller forever."""

        class GatedExplodingEngine:
            def __init__(self):
                self.release = threading.Event()

            def predict_proba(self, pairs):
                self.release.wait()
                raise RuntimeError("boom")

            def probability_matrix(self, profiles):
                raise RuntimeError("boom")

            def warm(self, profiles):
                raise RuntimeError("boom")

            def serve(self, request):
                raise RuntimeError("boom")

            def serve_batch(self, requests):
                raise RuntimeError("boom")

        exploding = GatedExplodingEngine()
        profiles = [_stub_pair(i).left for i in range(3)]
        with MicroBatcher(exploding, max_delay_ms=0.0) as batcher:
            blocker = batcher.submit_score([_stub_pair()])  # occupies the flusher
            futures = [
                batcher.submit_score([_stub_pair(1)]),
                batcher.submit_probability_matrix(profiles),
                batcher.submit_warm(profiles),
                batcher.submit_serve(JudgeRequest(pairs=(_stub_pair(2),))),
            ]
            exploding.release.set()
            for future in [blocker, *futures]:
                with pytest.raises(RuntimeError, match="boom"):
                    future.result(timeout=10)

    def test_zero_weight_submissions_racing_close(self, engine):
        """Empty submissions resolve immediately — even racing or after a
        close — because there is nothing to flush."""
        batcher = MicroBatcher(engine)
        stop = threading.Event()
        outcomes = {"results": 0, "errors": []}

        def spam():
            while not stop.is_set():
                try:
                    batcher.submit_score([]).result(timeout=1)
                    outcomes["results"] += 1
                except Exception as exc:  # pragma: no cover - diagnostics
                    outcomes["errors"].append(exc)

        spammer = threading.Thread(target=spam)
        spammer.start()
        time.sleep(0.02)
        batcher.close()
        stop.set()
        spammer.join(timeout=10)
        assert not outcomes["errors"]
        assert outcomes["results"] > 0
        # Still immediate after close, for every zero-weight kind.
        assert batcher.submit_score([]).result(timeout=1).shape == (0,)
        assert batcher.probability_matrix([]).shape == (0, 0)
        assert batcher.warm([]) == 0
        assert batcher.serve(JudgeRequest(pairs=())).probabilities == ()


class TestTwoFlushesInFlight:
    def test_invalidation_during_a_flush_lands_before_later_gathers(self):
        """An invalidation submitted while a flush is in flight waits for it,
        and is applied before the gather of any serve submitted after it."""
        entered = threading.Event()
        release = threading.Event()

        class GatedFeatureJudge:
            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

            def featurize_profiles(self, profiles):
                entered.set()
                assert release.wait(10), "the first flush was never released"
                return np.array([[float(p.uid)] for p in profiles])

            def score_feature_pairs(self, left, right):
                return np.zeros(len(left))

        class RecordingEngine(ColocationEngine):
            def __init__(self, judge):
                super().__init__(judge, cache_size=64)
                self.events = []

            def resolve_keyed(self, keys, build):
                self.events.append(("gather", sorted({key[0] for key in keys})))
                return super().resolve_keyed(keys, build)

            def invalidate(self, uids):
                self.events.append(("invalidate", list(uids)))
                return super().invalidate(uids)

        engine = RecordingEngine(GatedFeatureJudge())
        a, b, c = (_stub_pair(i).left for i in range(3))
        with MicroBatcher(engine, max_delay_ms=0.0) as batcher:
            first = batcher.submit_serve(JudgeRequest(pairs=(Pair(a, b),)))
            assert entered.wait(10)  # the first flush is in its gather
            dropped = batcher.submit_invalidate([a.uid])
            later = batcher.submit_serve(JudgeRequest(pairs=(Pair(a, c),)))
            # A second flusher is free, yet neither request may start yet.
            assert batcher.queue_depth == 2
            release.set()
            assert first.result(timeout=10).cache_misses == 2
            assert dropped.result(timeout=10) == 1
            response = later.result(timeout=10)
        assert engine.events == [
            ("gather", [a.uid, b.uid]),
            ("invalidate", [a.uid]),
            ("gather", [a.uid, c.uid]),
        ]
        assert (response.cache_misses, response.cache_invalidated) == (2, 1)


class TestInjectedClock:
    """``time_fn=`` drives all of the batcher's timing — no sleeps in tests.

    A frozen clock makes every measured duration exactly 0.0, proving the
    batcher times queue deadlines, request latency and the ``queue_wait``
    trace stage on the injected clock rather than the wall clock.  (Frozen
    clocks require ``max_delay_ms=0``: a positive delay's deadline would
    never expire on a clock that does not move.)
    """

    def test_frozen_clock_zeroes_latency_accounting(self, engine, test_pairs):
        with MicroBatcher(engine, max_delay_ms=0.0, time_fn=lambda: 123.0) as batcher:
            batcher.score(test_pairs)
        snapshot = batcher.metrics.snapshot()
        assert snapshot.requests == 1
        assert snapshot.latency_p50_ms == 0.0
        assert snapshot.latency_p99_ms == 0.0

    def test_frozen_clock_zeroes_the_queue_wait_stage(self, engine, test_pairs):
        from repro.obs import STAGE_QUEUE_WAIT, tracing

        with tracing():
            with MicroBatcher(engine, max_delay_ms=0.0, time_fn=lambda: 50.0) as batcher:
                response = batcher.serve(JudgeRequest(pairs=tuple(test_pairs)))
        # queue_wait is prepended to the trace the core built for the request.
        assert response.trace["stages"][0] == [STAGE_QUEUE_WAIT, 0.0]

    def test_stepped_clock_measures_exact_queue_wait(self, engine, test_pairs):
        from repro.obs import STAGE_QUEUE_WAIT, tracing

        # One tick per _time() call: every measured duration is a whole
        # number of seconds on this clock, so a wall-clock leak anywhere in
        # the path would show up as a fractional millisecond count.
        ticks = iter(range(100))
        with tracing():
            with MicroBatcher(
                engine, max_delay_ms=0.0, time_fn=lambda: float(next(ticks))
            ) as batcher:
                response = batcher.serve(JudgeRequest(pairs=tuple(test_pairs)))
        stages = dict(
            (stage, ms) for stage, ms in response.trace["stages"] if stage == STAGE_QUEUE_WAIT
        )
        assert stages[STAGE_QUEUE_WAIT] > 0.0
        assert stages[STAGE_QUEUE_WAIT] % 1000.0 == 0.0
