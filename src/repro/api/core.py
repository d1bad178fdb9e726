""":class:`JudgementCore` — the one decision/serve path behind every transport.

The library serves judgement through four transports — the single
:class:`repro.api.ColocationEngine`, the hash-partitioned
:class:`repro.cluster.ShardedEngine`, the request-coalescing
:class:`repro.cluster.MicroBatcher` and the process-tier
:class:`repro.cluster.WorkerPool` — and all four must agree bit-for-bit.
Historically each transport hand-copied the decision logic (threshold rules,
``decide_feature_pairs`` fallbacks, non-feature-space fallbacks, per-call
cache accounting), and the copies diverged in exactly the ways copies do:
one path featurized a shared profile twice, another dropped the judge's own
decision rule.

The core removes the structure that bred those bugs.  It owns the judgement
logic *once* and is parameterized on the only two things that differ between
transports:

* ``gather`` — a feature-gather callable ``profiles -> (rows, stats)``.  The
  single engine passes its LRU-backed ``_resolve_features``; the sharded
  engine passes its thread-pool fan-out across shards; the worker pool
  passes its wire fan-out across worker processes.
* ``scorer`` — a pair-scoring callable ``(left, right) -> probabilities``
  over aligned feature matrices (the engine's chunk-canonical
  ``_score_batched``).

Everything downstream of those two callables — probability computation,
decision rules, typed :class:`JudgeRequest` serving, per-request cache
accounting — lives here and nowhere else.

Pairs resolve both sides in **one** ``gather`` call (lefts then rights,
concatenated), so a profile appearing on both sides of a batch is featurized
once even with caching disabled — the single-gather behavior the sharded
engine always had, now shared by every path.  :meth:`JudgementCore.serve_batch`
extends that to a whole flush: every request in it resolves through one
gather, and the gather's ``missed`` positions attribute the cache traffic
back to the requests (see :meth:`JudgementCore.resolve_pair_features`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.api.messages import JudgeRequest, JudgeResponse
from repro.core.protocols import (
    pairwise_probability_matrix,
    profile_key,
    symmetric_probability_matrix,
    upper_triangle_pairs,
)
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError
from repro.obs import STAGE_GATHER, STAGE_SCORE, get_tracer


@dataclass(frozen=True)
class CallCacheStats:
    """One call's own cache traffic (never contaminated by concurrent callers).

    ``invalidated`` counts the cache rows dropped by explicit
    ``invalidate``/``invalidate_stale`` calls that this gather observed —
    each engine drains its not-yet-reported invalidation count into the next
    gather's stats, so a request served right after a profile mutation
    carries the invalidation traffic that preceded it (the micro-batcher
    processes invalidations first in a flush; the flush's requests then
    account them).

    ``missed`` is what a *gather* reports about its featurized rows: the
    positions, in the profile list it was handed, of the first occurrence of
    each distinct profile it featurized.  The core uses them to attribute a
    coalesced gather's misses to the requests that shared it; per-request
    stats leave it empty.
    """

    hits: int
    misses: int
    featurized: int
    invalidated: int = 0
    missed: tuple[int, ...] = ()

    @classmethod
    def merge(
        cls, parts: Iterable[tuple["CallCacheStats", Sequence[int]]]
    ) -> "CallCacheStats":
        """Sum the stats of sub-gathers that together served one gather.

        Each part pairs a sub-gather's stats with the positions, in the
        merged gather's profile list, of the profiles that sub-gather was
        handed — so its ``missed`` positions translate back to the caller's.
        """
        hits = misses = featurized = invalidated = 0
        missed: list[int] = []
        for stats, positions in parts:
            hits += stats.hits
            misses += stats.misses
            featurized += stats.featurized
            invalidated += stats.invalidated
            missed.extend(positions[i] for i in stats.missed)
        return cls(
            hits=hits,
            misses=misses,
            featurized=featurized,
            invalidated=invalidated,
            missed=tuple(missed),
        )


#: The zero-traffic stats of a call that never touched the feature cache.
NO_CACHE_TRAFFIC = CallCacheStats(hits=0, misses=0, featurized=0)

#: ``gather`` contract: feature rows for profiles plus the call's own cache
#: traffic, row ``i`` aligned with profile ``i``; ``stats.missed`` names the
#: profiles the call featurized.
FeatureGather = Callable[[list], tuple[np.ndarray, CallCacheStats]]

#: ``scorer`` contract: co-location probabilities from two aligned feature
#: matrices, independent of how the workload was chunked or coalesced.
PairScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


class JudgementCore:
    """The shared decision/serve logic of every serving transport.

    Parameters
    ----------
    judge:
        The judge instance that scores and decides on the feature-space path
        (for the sharded engine this is shard 0's replica — the same instance
        whose ``score_feature_pairs`` the scorer drives).
    gather:
        Feature-gather callable ``profiles -> (rows, CallCacheStats)``.
    scorer:
        Pair-scoring callable ``(left, right) -> probabilities``.
    explicit_threshold:
        The transport's explicit decision threshold; ``None`` follows the
        judge's own rule (``decide_feature_pairs`` / ``predict`` when
        available, else a 0.5 probability cut).
    fallback_judge:
        The judge used on non-feature-space fallback paths (``predict_proba``
        / ``predict`` / ``probability_matrix``).  Defaults to ``judge``; the
        sharded engine passes the caller's original judge so fallbacks never
        route through a replica.
    """

    def __init__(
        self,
        judge,
        *,
        gather: FeatureGather,
        scorer: PairScorer,
        explicit_threshold: float | None = None,
        fallback_judge=None,
    ):
        if explicit_threshold is not None and not 0.0 <= explicit_threshold <= 1.0:
            raise ConfigurationError("threshold must lie in [0, 1]")
        self.judge = judge
        self.fallback_judge = fallback_judge if fallback_judge is not None else judge
        self.explicit_threshold = explicit_threshold
        self._gather = gather
        self._scorer = scorer

    # --------------------------------------------------------------- plumbing
    @property
    def feature_space(self) -> bool:
        """Whether the judge separates featurization from pair scoring."""
        return hasattr(self.judge, "featurize_profiles") and hasattr(
            self.judge, "score_feature_pairs"
        )

    @property
    def threshold(self) -> float:
        """The effective decision threshold for probability cuts."""
        if self.explicit_threshold is not None:
            return self.explicit_threshold
        return float(getattr(self.judge, "decision_threshold", 0.5))

    def resolve_pair_features(
        self, pairs: Sequence[Pair], segments: Sequence[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[CallCacheStats]]:
        """Both sides' feature rows from **one** gather call.

        Lefts and rights resolve together, so a profile shared between the
        two sides (or between pairs) reaches the featurizer once even with
        caching disabled — and the stats count it once.

        ``segments`` splits ``pairs`` into consecutive requests (their pair
        counts, summing to ``len(pairs)``) and the stats come back one per
        segment, under the flush attribution rule:

        * a profile the gather featurized is a miss for the **first**
          segment containing it and a hit for every later one;
        * a profile repeated within one segment counts once;
        * the invalidations the gather drained go to the first segment.

        A single segment under that rule reports exactly the gather's own
        stats, which is what comes back, as the only entry, when
        ``segments`` is omitted.
        """
        profiles = [p.left for p in pairs] + [p.right for p in pairs]
        rows, stats = self._gather(profiles)
        left, right = rows[: len(pairs)], rows[len(pairs) :]
        if segments is None:
            return left, right, [stats]
        keys = [profile_key(profile) for profile in profiles]
        missed = {keys[position] for position in stats.missed}
        claimed: set = set()
        segment_stats = []
        start = 0
        for number, length in enumerate(segments):
            stop = start + length
            distinct = set(keys[start:stop])
            distinct.update(keys[len(pairs) + start : len(pairs) + stop])
            misses = (distinct & missed) - claimed
            claimed |= misses
            segment_stats.append(
                CallCacheStats(
                    hits=len(distinct) - len(misses),
                    misses=len(misses),
                    featurized=len(misses),
                    invalidated=stats.invalidated if number == 0 else 0,
                )
            )
            start = stop
        return left, right, segment_stats

    # -------------------------------------------------------------- judgement
    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability per pair (batched, feature-cached)."""
        if not pairs:
            return np.zeros(0)
        if self.feature_space:
            tracer = get_tracer()
            with tracer.stage(STAGE_GATHER):
                left, right, _ = self.resolve_pair_features(pairs)
            with tracer.stage(STAGE_SCORE):
                return self._scorer(left, right)
        return np.asarray(self.fallback_judge.predict_proba(list(pairs)), dtype=float)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions per pair.

        Follows the judge's own decision rule — including non-threshold
        rules like Comp2Loc's argmax equality — unless the transport was
        given an explicit threshold, which then cuts the probabilities.
        """
        if not pairs:
            return np.zeros(0, dtype=int)
        if self.explicit_threshold is None:
            if self.feature_space and hasattr(self.judge, "decide_feature_pairs"):
                # Non-threshold decisions still benefit from the feature cache.
                tracer = get_tracer()
                with tracer.stage(STAGE_GATHER):
                    left, right, _ = self.resolve_pair_features(pairs)
                with tracer.stage(STAGE_SCORE):
                    return np.asarray(
                        self.judge.decide_feature_pairs(left, right), dtype=int
                    )
            if not self.feature_space and hasattr(self.fallback_judge, "predict"):
                # Keep the wrapped judge's own rule (e.g. a baseline's argmax
                # equality); there is no cache to route through anyway.
                return np.asarray(self.fallback_judge.predict(list(pairs)), dtype=int)
        return (self.predict_proba(pairs) >= self.threshold).astype(int)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """The ``N x N`` pairwise probability matrix, featurizing each profile once."""
        n = len(profiles)
        if self.feature_space:
            if n < 2:
                return np.zeros((n, n))
            tracer = get_tracer()
            with tracer.stage(STAGE_GATHER):
                features, _ = self._gather(list(profiles))
            index_pairs = upper_triangle_pairs(n)
            left = features[[i for i, _ in index_pairs]]
            right = features[[j for _, j in index_pairs]]
            with tracer.stage(STAGE_SCORE):
                probabilities = self._scorer(left, right)
            return symmetric_probability_matrix(n, index_pairs, probabilities)
        if hasattr(self.fallback_judge, "probability_matrix"):
            return np.asarray(
                self.fallback_judge.probability_matrix(list(profiles)), dtype=float
            )
        return pairwise_probability_matrix(self.fallback_judge, list(profiles))

    # ----------------------------------------------------------------- serving
    def serve(self, request: JudgeRequest) -> JudgeResponse:
        """Answer one typed judgement request.

        With no explicit threshold (neither on the request nor on the
        transport), decisions follow the judge's own rule — matching
        :meth:`predict`, including non-threshold rules like Comp2Loc's
        argmax equality.  An explicit threshold cuts the probabilities.
        """
        return self.serve_batch([request])[0]

    def serve_batch(self, requests: Iterable[JudgeRequest]) -> list[JudgeResponse]:
        """Answer typed requests together: **one** gather, **one** scorer call.

        The coalescing entry point behind ``MicroBatcher.submit_serve``.  The
        pairs of every feature-space request resolve through a single
        :meth:`resolve_pair_features` call — so a flush makes one featurize
        call (one wire round trip per owner worker) however many requests it
        holds, and a profile shared between requests featurizes once even
        with caching disabled — then all of them score in a single scorer
        call, the same shape-dependent BLAS coalescing the batcher applies
        to plain score requests.  Rows and probabilities are sliced back per
        request.

        Cache accounting stays per response under the attribution rule of
        :meth:`resolve_pair_features`: a profile the gather featurized is a
        miss for the first request, in batch order, that contains it and a
        hit for every later one, and drained invalidations go to the first
        feature-space request.  The responses' ``cache_misses`` therefore
        sum to the rows the gather featurized.

        Decisions and thresholds remain per request, so mixed explicit /
        default-rule requests coalesce safely.  Default-rule decisions
        (``decide_feature_pairs``) are computed from the gathered rows and
        are bit-for-bit the uncoalesced ones; explicit-threshold decisions
        cut the *coalesced* probabilities, so a pair whose probability sits
        within the coalescing drift (~1e-16) of the threshold may decide
        differently than an uncoalesced serve would — the only way to avoid
        that would be to score every request twice.

        A single-request batch is exactly :meth:`serve`: one gather, one
        scorer call over that request's pairs, the same cache stats.
        ``elapsed_ms`` on every response measures the whole batch (the
        requests were served by one call).

        With tracing enabled (:func:`repro.obs.tracing`), every feature-space
        request gets its own :class:`repro.obs.Trace`.  The single gather
        and the single score are each measured once into the registry and
        attributed to every participating trace, ``gather`` together with
        the spans nested in it (``featurize``, ``wire_*``, a worker's own
        stages), ``score`` together with the per-request decisions cut from
        the scores (a ``decide_feature_pairs`` rule is model work too, as in
        :meth:`predict`); the report rides back on ``JudgeResponse.trace``.
        Slow-request hooks fire against the batch's ``elapsed_ms``.
        """
        requests = list(requests)
        for request in requests:
            if request.threshold is not None and not 0.0 <= request.threshold <= 1.0:
                raise ConfigurationError("request threshold must lie in [0, 1]")
        tracer = get_tracer()
        traced = tracer.enabled
        started = time.perf_counter()
        count = len(requests)
        # Every slot is filled below: by the fallback path or by the segment loop.
        thresholds: list[float] = [0.0] * count
        default_rule = [False] * count
        probabilities: list[np.ndarray] = [None] * count  # type: ignore[list-item]
        decisions: list[np.ndarray] = [None] * count  # type: ignore[list-item]
        stats: list[CallCacheStats] = [NO_CACHE_TRAFFIC] * count
        traces: list = [None] * count
        feature_requests: list[int] = []  # indices, in batch order
        feature_space = self.feature_space
        default_threshold = None
        for index, request in enumerate(requests):
            if request.threshold is None:
                if default_threshold is None:
                    default_threshold = self.threshold
                thresholds[index] = default_threshold
                default_rule[index] = self.explicit_threshold is None
            else:
                thresholds[index] = float(request.threshold)
            if request.pairs and feature_space:
                feature_requests.append(index)
                continue
            pairs = list(request.pairs)
            probabilities[index] = self.predict_proba(pairs)
            if pairs and default_rule[index] and hasattr(self.fallback_judge, "predict"):
                decisions[index] = np.asarray(self.fallback_judge.predict(pairs), dtype=int)
            else:
                decisions[index] = (probabilities[index] >= thresholds[index]).astype(int)
        if feature_requests:
            pairs = [pair for index in feature_requests for pair in requests[index].pairs]
            lengths = [len(requests[index].pairs) for index in feature_requests]
            if traced:
                for index in feature_requests:
                    traces[index] = tracer.start_trace()
                # The gather runs under the first request's trace (its id is
                # what crosses the wire); every other participant then gets
                # a copy of the spans it recorded.
                lead = traces[feature_requests[0]]
                with tracer.activate(lead), tracer.stage(STAGE_GATHER):
                    left, right, segment_stats = self.resolve_pair_features(pairs, lengths)
                if len(feature_requests) > 1:
                    gathered = lead.stage_list()
                    for index in feature_requests[1:]:
                        for name, duration_ms in gathered:
                            traces[index].add(name, duration_ms)
                score_started = tracer.clock()
            else:
                left, right, segment_stats = self.resolve_pair_features(pairs, lengths)
            scored = self._scorer(left, right)
            decide = hasattr(self.judge, "decide_feature_pairs")
            offset = 0
            for index, length, request_stats in zip(feature_requests, lengths, segment_stats):
                stop = offset + length
                probabilities[index] = scored[offset:stop]
                stats[index] = request_stats
                if default_rule[index] and decide:
                    decisions[index] = np.asarray(
                        self.judge.decide_feature_pairs(left[offset:stop], right[offset:stop]),
                        dtype=int,
                    )
                else:
                    decisions[index] = (probabilities[index] >= thresholds[index]).astype(int)
                offset = stop
            if traced:
                # One scorer call and the decisions cut from it cover every
                # segment: the measurement goes to the registry once and to
                # each participating trace.
                tracer.record_stage(
                    STAGE_SCORE,
                    (tracer.clock() - score_started) * 1e3,
                    traces=[traces[index] for index in feature_requests],
                )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        responses = []
        for index in range(count):
            trace = traces[index]
            if trace is not None:
                tracer.finish(trace, total_ms=elapsed_ms)
            request_stats = stats[index]
            responses.append(
                JudgeResponse(
                    probabilities=tuple(probabilities[index].tolist()),
                    decisions=tuple(decisions[index].tolist()),
                    threshold=thresholds[index],
                    cache_hits=request_stats.hits,
                    cache_misses=request_stats.misses,
                    cache_invalidated=request_stats.invalidated,
                    elapsed_ms=elapsed_ms,
                    trace=trace.report() if trace is not None else None,
                )
            )
        return responses
