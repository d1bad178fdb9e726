"""Skewed serving-load generator and the single-vs-partitioned serving harness.

The shared core behind ``benchmarks/bench_sharded_serving.py``,
``benchmarks/bench_worker_serving.py`` and the CLI's ``serve-bench``
subcommand.  It models the streaming workload every service produces:

* each request is one user's *fresh* profile (a new tweet — always a cold
  featurization, exactly as in a live stream) scored against a handful of
  resident candidate profiles drawn from a fixed pool;
* users are sampled from a seeded Zipf-like distribution (``p(rank k) ∝
  k^-s``), so a head of hot users dominates the mix the way real traffic
  does — which is precisely what per-flush deduplication and per-user shard
  caches exploit.

The *same* request sequence runs from a cold cache through the single
engine — one synchronous ``predict_proba`` call per request on one
:class:`repro.api.ColocationEngine` (caller-sized batches) — and then
through each partitioned tier behind a :class:`repro.cluster.MicroBatcher`
that coalesces concurrent requests, with the same *total* cache budget:

* **sharded** — a :class:`repro.cluster.ShardedEngine` (shard threads);
* **workers** (``num_workers`` set) — a :class:`repro.cluster.WorkerPool`,
  so featurization leaves the GIL and runs in worker *processes* — the tier
  that scales with cores.

Every tier gets the same correctness checks against the single engine:
direct ``predict_proba`` and ``serve`` match bit-for-bit, and micro-batched
results differ only by last-mantissa-bit coalescing noise (one BLAS call of
a different shape, at most :data:`DRIFT_BOUND`).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.api import ColocationEngine, JudgeRequest, JudgeResponse
from repro.api.engine import EngineCacheInfo
from repro.cluster.batcher import MicroBatcher
from repro.cluster.gateway import WorkerPool
from repro.cluster.metrics import ClusterMetricsSnapshot
from repro.cluster.sharded import PartitionedEngine, ShardedEngine
from repro.data.records import Pair, Profile, Tweet, Visit
from repro.errors import ConfigurationError
from repro.obs import format_stage_table, tracing

#: Largest |Δ probability| micro-batch coalescing may introduce: flushing many
#: requests as one BLAS call of a different shape may flip the last mantissa
#: bit (~1e-16), never more.
DRIFT_BOUND = 1e-12

#: Queue bound of the timed micro-batched passes (``overflow="block"``).
MAX_QUEUE = 512

#: Requests sampled from the stream for the typed-serve checks.
SERVE_SAMPLES = 24
@dataclass(frozen=True)
class LoadConfig:
    """Shape of the synthetic serving load."""

    num_users: int = 256
    num_requests: int = 384
    pairs_per_request: int = 4
    history_len: int = 12
    #: Zipf exponent of the user mix; larger = more skewed.
    zipf_s: float = 1.1
    seed: int = 23


@dataclass(frozen=True)
class ServingRun:
    """One serving path's measured throughput."""

    label: str
    elapsed_s: float
    requests: int
    pairs: int
    cache: EngineCacheInfo
    #: Per-stage latency table (:func:`repro.obs.format_stage_table`) when
    #: the run was traced; ``None`` on the default untraced fast path, so
    #: the headline throughput numbers never pay the tracing overhead.
    stages: str | None = None

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    @property
    def pairs_per_s(self) -> float:
        return self.pairs / self.elapsed_s if self.elapsed_s > 0 else float("inf")


def fit_serving_pipeline(seed: int = 5):
    """A small fitted HisRect pipeline + its dataset (the bench's judge)."""
    from repro.colocation import CoLocationPipeline, JudgeConfig, PipelineConfig
    from repro.data import build_dataset, tiny_dataset_config
    from repro.features import HisRectConfig
    from repro.ssl import SSLTrainingConfig
    from repro.text.skipgram import SkipGramConfig

    dataset = build_dataset(tiny_dataset_config(seed=seed))
    config = PipelineConfig(
        hisrect=HisRectConfig(content_dim=8, feature_dim=16, embedding_dim=8),
        ssl=SSLTrainingConfig(batch_size=4, max_iterations=20),
        judge=JudgeConfig(epochs=4),
        skipgram=SkipGramConfig(embedding_dim=12, epochs=1),
    )
    pipeline = CoLocationPipeline(config).fit(dataset)
    return pipeline, dataset


def _zipf_probabilities(num_users: int, s: float) -> np.ndarray:
    ranks = np.arange(1, num_users + 1, dtype=float)
    weights = ranks**-s
    return weights / weights.sum()


def _profile(registry, rng, words: list[str], uid: int, ts: float, history_len: int) -> Profile:
    anchor = registry.pois[int(rng.integers(len(registry.pois)))].center
    visits = []
    for _ in range(history_len):
        point = anchor.offset(
            north_m=float(rng.uniform(-400.0, 400.0)),
            east_m=float(rng.uniform(-400.0, 400.0)),
        )
        visits.append(Visit(ts=ts - float(rng.uniform(1.0, 1e5)), lat=point.lat, lon=point.lon))
    content = " ".join(rng.choice(words, size=int(rng.integers(5, 11))))
    tweet = Tweet(uid=uid, ts=ts, content=content)
    return Profile(uid=uid, tweet=tweet, visit_history=tuple(visits))


def generate_requests(registry, corpus: list[str], config: LoadConfig) -> list[list[Pair]]:
    """The request sequence: fresh query profile vs. resident candidates."""
    if config.num_users < 2:
        # Candidates must differ from the query user; one user has none.
        raise ConfigurationError("the load mix needs num_users >= 2")
    if config.num_requests < 1 or config.pairs_per_request < 1:
        raise ConfigurationError("the load mix needs num_requests >= 1 and pairs_per_request >= 1")
    rng = np.random.default_rng(config.seed)
    words = sorted({word for text in corpus for word in text.split()})
    if not words:
        words = ["here", "now"]
    probabilities = _zipf_probabilities(config.num_users, config.zipf_s)
    #: Zipf ranks map to shuffled uids so the hot users spread over shards.
    uids = rng.permutation(config.num_users)
    residents = [
        _profile(registry, rng, words, int(uid), ts=1e6, history_len=config.history_len)
        for uid in range(config.num_users)
    ]
    requests: list[list[Pair]] = []
    for step in range(config.num_requests):
        query_uid = int(uids[rng.choice(config.num_users, p=probabilities)])
        query = _profile(
            registry, rng, words, query_uid, ts=1e6 + step + 1, history_len=config.history_len
        )
        pairs: list[Pair] = []
        while len(pairs) < config.pairs_per_request:
            candidate_uid = int(uids[rng.choice(config.num_users, p=probabilities)])
            if candidate_uid == query_uid:
                continue
            pairs.append(Pair(left=query, right=residents[candidate_uid], co_label=None))
        requests.append(pairs)
    return requests


def run_single(
    engine: ColocationEngine, requests: list[list[Pair]], *, trace: bool = False
) -> tuple[ServingRun, list[np.ndarray]]:
    """Today's path: one synchronous ``predict_proba`` call per request.

    With ``trace=True`` the run executes under a scoped tracer (fresh
    registry) and the returned :class:`ServingRun` carries the per-stage
    latency table.
    """
    stages = None
    with tracing() if trace else nullcontext() as tracer:
        started = time.perf_counter()
        results = [engine.predict_proba(pairs) for pairs in requests]
        elapsed = time.perf_counter() - started
        if trace:
            stages = format_stage_table(tracer.registry)
    return (
        ServingRun(
            label="single engine",
            elapsed_s=elapsed,
            requests=len(requests),
            pairs=sum(len(r) for r in requests),
            cache=engine.cache_info(),
            stages=stages,
        ),
        results,
    )


def run_batched(
    engine: PartitionedEngine,
    requests: list[list[Pair]],
    *,
    label: str,
    max_batch: int = 256,
    max_delay_ms: float = 0.0,
    trace: bool = False,
) -> tuple[ServingRun, list[np.ndarray], ClusterMetricsSnapshot]:
    """Concurrent submissions coalesced by a MicroBatcher over ``engine``.

    Requests are submitted as fast as the bounded queue admits them
    (``overflow="block"`` backpressure), so the batcher coalesces whatever
    accumulates while its flushes (at most two at a time) are in flight —
    the steady state of a busy service.  The tracing scope encloses the
    batcher's whole lifetime so the flusher threads' ``queue_wait`` records
    land in the run's registry; a :class:`WorkerPool`'s stage table also
    merges every worker's ``stats`` snapshot (``gather``, ``featurize``) via
    :meth:`WorkerPool.obs_snapshot`.
    """
    stages = None
    with tracing() if trace else nullcontext() as tracer:
        with MicroBatcher(
            engine,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            max_queue=MAX_QUEUE,
            overflow="block",
        ) as batcher:
            started = time.perf_counter()
            futures = [batcher.submit_score(pairs) for pairs in requests]
            results = [future.result() for future in futures]
            elapsed = time.perf_counter() - started
        if trace:
            registry = engine.obs_snapshot() if isinstance(engine, WorkerPool) else tracer.registry
            stages = format_stage_table(registry)
    # Snapshot after close(), which joins the flushers: every flush has
    # recorded its metrics by then.
    snapshot = batcher.metrics.snapshot()
    return (
        ServingRun(
            label=label,
            elapsed_s=elapsed,
            requests=len(requests),
            pairs=sum(len(r) for r in requests),
            cache=engine.cache_info(),
            stages=stages,
        ),
        results,
        snapshot,
    )


@dataclass(frozen=True)
class TierReport:
    """One partitioned tier's timed run and its parity against the single engine."""

    run: ServingRun
    #: The micro-batcher's metrics after the timed run.
    metrics: ClusterMetricsSnapshot
    #: Direct ``predict_proba`` agrees bit-for-bit with the single engine on
    #: every request (partitioning and the wire contribute nothing).
    exact: bool
    #: Largest |Δ probability| between the micro-batched results and the
    #: single engine (coalescing noise, bounded by :data:`DRIFT_BOUND`).
    drift: float
    #: Direct ``serve`` matches the single engine bit-for-bit (probabilities,
    #: decisions, threshold), and ``submit_serve`` through a micro-batcher
    #: keeps thresholds and decisions except where a probability sits within
    #: coalescing drift of an explicit threshold.
    serve_exact: bool
    #: Largest |Δ probability| between ``submit_serve`` responses and the
    #: single engine's serve.
    serve_drift: float


@dataclass(frozen=True)
class ComparisonReport:
    """The single engine against every partitioned tier, same cold request sequence."""

    single: ServingRun
    tiers: tuple[TierReport, ...]

    def speedup(self, tier: TierReport) -> float:
        """The tier's throughput over the single engine's."""
        elapsed = tier.run.elapsed_s
        return self.single.elapsed_s / elapsed if elapsed > 0 else float("inf")

    def failures(self) -> list[str]:
        """One message per broken parity check, naming its tier; empty when clean."""
        failures = []
        for tier in self.tiers:
            label = tier.run.label
            if not tier.exact:
                failures.append(f"{label}: probabilities diverged from the single engine")
            if tier.drift > DRIFT_BOUND:
                failures.append(f"{label}: micro-batch coalescing drifted by {tier.drift:.2e}")
            if not tier.serve_exact:
                failures.append(f"{label}: typed serve responses diverged from the single engine")
            if tier.serve_drift > DRIFT_BOUND:
                failures.append(f"{label}: batched serve drifted by {tier.serve_drift:.2e}")
        return failures

    def format(self) -> str:
        runs = [self.single] + [tier.run for tier in self.tiers]
        lines = [
            f"{'path':<28} {'elapsed s':>10} {'req/s':>10} {'pairs/s':>10} {'hit_rate':>9}",
        ]
        for run in runs:
            lines.append(
                f"{run.label:<28} {run.elapsed_s:>10.3f} {run.requests_per_s:>10.1f} "
                f"{run.pairs_per_s:>10.1f} {run.cache.hit_rate:>9.3f}"
            )
        for tier in self.tiers:
            lines.append("")
            lines.append(
                f"{tier.run.label}: speedup {self.speedup(tier):.2f}x  "
                f"bit-for-bit: {'yes' if tier.exact else 'NO'}  "
                f"drift: {tier.drift:.1e}  "
                f"serve exact: {'yes' if tier.serve_exact else 'NO'}  "
                f"serve drift: {tier.serve_drift:.1e}"
            )
            lines.append(tier.metrics.format())
        for run in runs:
            if run.stages is not None:
                lines.append("")
                lines.append(f"stage breakdown — {run.label}:")
                lines.append(run.stages)
        return "\n".join(lines)


def compare_serving_paths(
    judge,
    requests: list[list[Pair]],
    *,
    num_shards: int = 4,
    cache_size: int = 4096,
    max_batch: int = 256,
    max_delay_ms: float = 0.0,
    num_workers: int | None = None,
    trace: bool = False,
) -> ComparisonReport:
    """Run the single engine and each partitioned tier cold and compare them.

    ``trace=True`` runs every timed pass under a scoped tracer and attaches
    per-stage latency tables to the report; the default keeps the headline
    numbers untraced (tracing costs a few percent of throughput at most,
    but the benchmark guards compare against historical untraced numbers).

    The single engine's timed pass is the throughput baseline; then the
    sharded tier, and with ``num_workers`` set the process tier, each run
    :func:`_measure_tier`: a timed micro-batched pass followed by un-timed
    parity passes on the same engine (rows do not depend on cache state).

    The sharded engine is constructed — and every shard's judge replica
    deep-copied — *before* the single pass runs: the judge's internal
    featurizer caches (history cache, text-vectorizer LRU) warm up during
    that pass, and replicas copied afterwards would inherit that warmth and
    fake part of the sharded speedup.  (Worker processes are immune: they
    rebuild the judge from the saved bundle.)
    """
    single_engine = ColocationEngine(judge, cache_size=cache_size)
    with ShardedEngine(judge, num_shards=num_shards, cache_size=cache_size) as sharded:
        single, single_results = run_single(single_engine, requests, trace=trace)
        step = max(1, len(requests) // SERVE_SAMPLES)
        serve_requests = [
            JudgeRequest(pairs=tuple(pairs), threshold=(None if index % 2 == 0 else 0.4))
            for index, pairs in enumerate(requests[::step])
        ]
        expected = (single_results, serve_requests, list(map(single_engine.serve, serve_requests)))
        options = {"max_batch": max_batch, "max_delay_ms": max_delay_ms, "trace": trace}
        label = f"sharded x{num_shards} + micro-batch"
        tiers = [_measure_tier(sharded, label, requests, expected, **options)]
    if num_workers is not None:
        with WorkerPool(judge, num_workers=num_workers, cache_size=cache_size) as pool:
            label = f"workers x{num_workers} + micro-batch"
            tiers.append(_measure_tier(pool, label, requests, expected, **options))
    return ComparisonReport(single=single, tiers=tuple(tiers))


def _measure_tier(
    engine: PartitionedEngine,
    label: str,
    requests: list[list[Pair]],
    expected: tuple[list[np.ndarray], list[JudgeRequest], list[JudgeResponse]],
    *,
    max_batch: int,
    max_delay_ms: float,
    trace: bool,
) -> TierReport:
    """The timed micro-batched pass, then the four parity checks, on one engine.

    ``expected`` is the single engine's ``(results, serve requests, serve
    responses)``.  The serve sample alternates default and explicit
    per-request thresholds.  Its batched pass goes through ``submit_serve``;
    decisions there must match modulo a threshold graze (see
    :func:`_decisions_match_modulo_drift`).
    """
    single_results, serve_requests, single_responses = expected
    run, results, metrics = run_batched(
        engine,
        requests,
        label=label,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        trace=trace,
    )
    exact = all(
        np.array_equal(single_result, engine.predict_proba(pairs))
        for single_result, pairs in zip(single_results, requests)
    )
    serve_exact = all(
        direct.probabilities == single.probabilities
        and direct.decisions == single.decisions
        and direct.threshold == single.threshold
        for direct, single in zip(map(engine.serve, serve_requests), single_responses)
    )
    with MicroBatcher(
        engine, max_batch=max_batch, max_queue=MAX_QUEUE, overflow="block"
    ) as batcher:
        futures = [batcher.submit_serve(request) for request in serve_requests]
        batched_responses = [future.result() for future in futures]
    serve_exact = serve_exact and all(
        batched.threshold == single.threshold and _decisions_match_modulo_drift(batched, single)
        for batched, single in zip(batched_responses, single_responses)
    )
    return TierReport(
        run=run,
        metrics=metrics,
        exact=exact,
        drift=_max_drift(single_results, results),
        serve_exact=serve_exact,
        serve_drift=_max_drift(
            [single.probabilities for single in single_responses],
            [batched.probabilities for batched in batched_responses],
        ),
    )


def _max_drift(expected, got) -> float:
    """Largest |Δ| between two aligned sequences of probability vectors."""
    return max(
        (
            float(np.abs(np.subtract(a, b)).max()) if len(a) else 0.0
            for a, b in zip(expected, got)
        ),
        default=0.0,
    )


def _decisions_match_modulo_drift(batched: JudgeResponse, expected: JudgeResponse) -> bool:
    """Coalesced decisions must match except at an exact threshold graze.

    Explicit-threshold decisions cut the coalesced probabilities, so a pair
    whose uncoalesced probability sits within the coalescing drift of the
    threshold may legitimately flip (see ``JudgementCore.serve_batch``); a
    flip anywhere else is a real divergence.
    """
    return all(
        batched_decision == expected_decision
        or abs(probability - expected.threshold) <= DRIFT_BOUND
        for batched_decision, expected_decision, probability in zip(
            batched.decisions, expected.decisions, expected.probabilities
        )
    )
