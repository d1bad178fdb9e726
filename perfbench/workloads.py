"""The benchmark workloads, each driving one serving transport.

A workload builds its serving stack from a saved bundle (that build, plus a
fixed warm-up, is what ``setup_s`` times), runs one timed phase against it,
and checks a seeded sample of the results against a cache-free
``ColocationEngine`` loaded from the same bundle.  Why each workload exists is
recorded next to its class and in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import itertools
import pathlib
import time

import numpy as np

from repro.api import ColocationEngine
from repro.cluster import MicroBatcher, WorkerPool
from repro.errors import EngineOverloadError
from repro.io import load_pipeline
from repro.service.stream import StreamScorer

from perfbench.harness import (
    START_TIMEOUT_S,
    WAIT_TIMEOUT_S,
    Completions,
    Phase,
    PhaseResult,
    check_scores,
    check_serves,
)
from perfbench.inputs import FreshRequests, TweetStream, World

#: Warm-up inputs are the same in every run, whatever the workload seed.
WARMUP_SEED = 1_000_003
#: At most this many sampled results are kept, and checked, per run.
MAX_CHECKED = 300


class Workload:
    """Common shape: ``build`` a stack, ``run`` a timed phase, ``check`` samples."""

    name = ""
    #: Setups per untraced run; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, bundle: pathlib.Path, world: World, seed: int, scratch: pathlib.Path):
        self.bundle = bundle
        self.world = world
        self.seed = seed
        self.scratch = scratch
        #: ``load_pipeline`` wall time of every build, seconds.
        self.load_times: list[float] = []

    def prepare(self):
        """Draw this run's inputs (before any setup clock starts); ``build`` reads them."""
        self.inputs = self.make_inputs()
        return self.inputs

    def _load(self):
        started = time.perf_counter()
        pipeline = load_pipeline(self.bundle)
        self.load_times.append(time.perf_counter() - started)
        return pipeline

    def reference(self) -> ColocationEngine:
        """The cache-free engine the check compares against."""
        return ColocationEngine(load_pipeline(self.bundle), cache_size=0)

    def check(self, samples, reference) -> int:
        return check_serves(samples, reference)

    def worker_pids(self, stack) -> tuple[int, ...]:
        return ()

    def worker_snapshots(self, stack) -> tuple[dict, ...]:
        return ()


# ------------------------------------------------------------ stream_ingest


class StreamStack:
    batcher = None

    def __init__(self, engine, scorer, warmup: Phase):
        self.transport, self.scorer, self.warmup = engine, scorer, warmup

    def close(self) -> None:
        self.transport.close()


class StreamIngest(Workload):
    """Closed loop, one caller: a Zipf tweet stream through ``StreamScorer.process``.

    Why: the paper's live use.  ``HistoryDeltaTracker`` seeds every profile's
    Eq. (1)-(2) row, so the history kernel is bypassed and each tweet's cost
    is a one-row content-encoder-plus-combiner featurize, hot store reads for
    the tens of window profiles it pairs with, one put and one score call.
    No batcher and no wire are involved.
    """

    name = "stream_ingest"
    users = 3000
    zipf_s = 1.1
    geo_share = 0.6
    home_share = 0.7
    max_history = 32
    #: Mean stream-time gap between tweets and the pairing window: about
    #: ``delta_t / mean_gap_s`` = 30 profiles share a window.
    mean_gap_s = 1.0
    delta_t = 30.0
    warmup_tweets = 300
    sample_share = 0.02

    def stream(self, seed: int, start_ts: float) -> TweetStream:
        return TweetStream(
            self.world,
            seed,
            num_users=self.users,
            zipf_s=self.zipf_s,
            geo_share=self.geo_share,
            home_share=self.home_share,
            mean_gap_s=self.mean_gap_s,
            start_ts=start_ts,
            sample_share=self.sample_share,
        )

    def make_inputs(self) -> TweetStream:
        return self.stream(self.seed, start_ts=1e6)

    def build(self) -> StreamStack:
        engine = ColocationEngine(self._load())
        scorer = StreamScorer(engine, delta_t=self.delta_t, max_history=self.max_history)
        warmup = Phase("warmup")
        stream = self.stream(WARMUP_SEED, start_ts=0.0)
        for _ in range(self.warmup_tweets):
            tweet, _ = stream.next()
            warmup.sent += 1
            scorer.process(tweet)
            warmup.succeeded += 1
        return StreamStack(engine, scorer, warmup)

    def run(self, stack: StreamStack, inputs: TweetStream, seconds: float) -> PhaseResult:
        phase = Phase("timed")
        latencies: list[float] = []
        lag: list[float] = []
        samples = []
        pairs = 0
        gen_before = inputs.gen_s
        process = stack.scorer.process
        started = time.perf_counter()
        deadline = started + seconds
        end = started
        while True:
            tweet, sampled = inputs.next()
            begin = time.perf_counter()
            if begin >= deadline:
                break
            lag.append(begin - end)
            phase.sent += 1
            try:
                scored = process(tweet)
            except Exception:  # noqa: BLE001 - counted, the stream goes on
                phase.failed += 1
                continue
            end = time.perf_counter()
            latencies.append(end - begin)
            phase.succeeded += 1
            pairs += len(scored)
            if sampled and scored and len(samples) < MAX_CHECKED:
                samples.append(
                    ([s.pair for s in scored], np.array([s.probability for s in scored]))
                )
        return PhaseResult(
            phase=phase,
            latencies=np.array(latencies),
            wall_s=end - started,
            gen_s=inputs.gen_s - gen_before,
            samples=samples,
            lag=np.array(lag),
            pairs=pairs,
        )

    def check(self, samples, reference) -> int:
        return check_scores(samples, reference)


# -------------------------------------------------------------- fresh_batch


class FreshStack:
    def __init__(self, pool, batcher, warmup: Phase):
        self.transport, self.batcher, self.warmup = pool, batcher, warmup

    def close(self) -> None:
        self.batcher.close()
        self.transport.close()


class FreshBatch(Workload):
    """Closed loop, a window of outstanding requests from one thread, over workers.

    ``MicroBatcher(max_delay_ms=0)`` over ``WorkerPool(num_workers=1)``; every
    request is a fresh query profile with a long, unseeded history against
    Zipf-drawn resident candidates, and the hot cache holds a small part of
    the working set on top of an arena cold tier in a fresh directory.
    Why: it puts the Eq. (1)-(2) kernel, the batched encoders, wire
    serialization and round trip, and arena promote/demote on the critical
    path, and bypasses ``repro.service``.  One worker, because the gateway
    plus one worker already fill both cores of the reference host; with two
    workers the latency measured the scheduler rather than the program.
    """

    name = "fresh_batch"
    window = 8
    residents = 2000
    resident_history = 16
    query_users = 2000
    history_len = 64
    candidates = 8
    zipf_s = 0.9
    home_share = 0.7
    hot_rows = 256
    #: At most four requests (32 pairs) per flush, so the eight outstanding
    #: requests settle into two groups of four that take turns.  Unbounded
    #: flushes drifted between group sizes from run to run, which moved the
    #: p50 latency by 13% (IQR/median) against 4% with the cap.
    max_batch_pairs = 32
    warmup_requests = 16
    sample_share = 0.05

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._builds = itertools.count()

    def make_inputs(self) -> FreshRequests:
        return FreshRequests(
            self.world,
            self.seed,
            residents=self.residents,
            resident_history=self.resident_history,
            query_users=self.query_users,
            history_len=self.history_len,
            candidates=self.candidates,
            zipf_s=self.zipf_s,
            home_share=self.home_share,
            start_ts=1e6,
            sample_share=self.sample_share,
        )

    def build(self) -> FreshStack:
        pipeline = self._load()
        arena = self.scratch / f"arena-{next(self._builds)}"
        pool = WorkerPool(
            pipeline,
            num_workers=1,
            cache_size=self.hot_rows,
            arena_dir=str(arena),
            start_timeout=START_TIMEOUT_S,
            call_timeout=WAIT_TIMEOUT_S,
        )
        batcher = MicroBatcher(
            pool, max_delay_ms=0.0, max_batch=self.max_batch_pairs, overflow="reject"
        )
        stack = FreshStack(pool, batcher, Phase("warmup"))
        try:
            # Every resident row goes through the worker into the store,
            # then a few fixed serves run the whole request path once.
            residents = self.inputs.residents
            warm = [
                batcher.submit_warm(residents[start : start + 256])
                for start in range(0, len(residents), 256)
            ]
            warm += map(batcher.submit_serve, self.inputs.warmup_requests(self.warmup_requests))
            for future in warm:
                stack.warmup.sent += 1
                future.result(WAIT_TIMEOUT_S)
                stack.warmup.succeeded += 1
        except BaseException:
            stack.close()
            raise
        return stack

    def run(self, stack: FreshStack, inputs: FreshRequests, seconds: float) -> PhaseResult:
        phase = Phase("timed")
        sink = Completions(phase, MAX_CHECKED)
        gen_before = inputs.gen_s
        submit = stack.batcher.submit_serve
        started = time.perf_counter()
        deadline = started + seconds
        lag: list[float] = []
        while True:
            generating = time.perf_counter()
            request, sampled = inputs.next()
            if not sink.wait_below(self.window, WAIT_TIMEOUT_S):
                break
            begin = time.perf_counter()
            if begin >= deadline:
                break
            # The slot this request fills has been free since the latest
            # completion, or since the generator started if that is later.
            lag.append(max(0.0, begin - max(generating, sink.last_end)))
            try:
                future = submit(request)
            except EngineOverloadError:
                sink.rejected()
                continue
            sink.sent()
            future.add_done_callback(
                functools.partial(sink.done, started=begin, sample=request if sampled else None)
            )
            del future
        if not sink.wait_below(1, WAIT_TIMEOUT_S):
            sink.abandon()
        return PhaseResult(
            phase=phase,
            latencies=np.array(sink.latencies),
            wall_s=sink.last_end - started,
            gen_s=inputs.gen_s - gen_before,
            samples=sink.samples,
            lag=np.array(lag),
        )

    def worker_pids(self, stack) -> tuple[int, ...]:
        return stack.transport.worker_pids()

    def worker_snapshots(self, stack) -> tuple[dict, ...]:
        return stack.transport.worker_obs_snapshots()


WORKLOADS = {cls.name: cls for cls in (StreamIngest, FreshBatch)}
