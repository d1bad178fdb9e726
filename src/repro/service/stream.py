"""Incremental profile construction and scoring from a live tweet stream.

The offline :class:`repro.data.profiles.ProfileBuilder` needs the whole
timeline up front; an online service sees tweets one at a time.
:class:`OnlineProfileBuilder` keeps a bounded per-user visit history and
builds the profile for each incoming tweet from the state accumulated so far,
mirroring Definition 4: the visit history contains only visits *before* the
recent tweet.

:class:`StreamScorer` composes the builder with a
:class:`repro.service.pairing.SlidingPairWindow` and a
:class:`repro.api.ColocationEngine`: tweets in, scored Δt-compatible candidate
pairs out.  It is the common substrate of the streaming applications (friends
notification builds on it directly).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.records import Pair, Profile, Tweet, Visit
from repro.errors import DataGenerationError
from repro.features.history import HistoryDeltaTracker
from repro.geo.poi import POIRegistry
from repro.service.pairing import SlidingPairWindow


class OnlineProfileBuilder:
    """Builds profiles from tweets arriving in timestamp order.

    Parameters
    ----------
    registry:
        The POI set ``P``; geo-tagged tweets inside a POI polygon produce
        labelled profiles (their ``pid`` is set).
    max_history:
        Cap on the per-user visit history carried by emitted profiles.
        ``0`` keeps no visits at all (every profile has an empty history);
        ``None`` keeps an unbounded history.
    enforce_order:
        When True (default), a tweet older than the user's latest seen tweet
        raises :class:`DataGenerationError` — out-of-order delivery would
        silently corrupt visit histories.
    """

    def __init__(
        self,
        registry: POIRegistry,
        max_history: int | None = 64,
        enforce_order: bool = True,
    ):
        if max_history is not None and max_history < 0:
            raise DataGenerationError("max_history must be non-negative")
        self.registry = registry
        self.max_history = max_history
        self.enforce_order = enforce_order
        self._histories: dict[int, deque[Visit]] = {}
        self._last_ts: dict[int, float] = {}
        self._revisions: dict[int, int] = {}
        self._profiles_built = 0

    # ------------------------------------------------------------------ state
    @property
    def num_users(self) -> int:
        """Number of distinct users seen so far."""
        return len(self._last_ts)

    @property
    def profiles_built(self) -> int:
        """Number of profiles emitted so far."""
        return self._profiles_built

    def history(self, uid: int) -> tuple[Visit, ...]:
        """The visit history currently held for a user."""
        return tuple(self._histories.get(uid, ()))

    def revision(self, uid: int) -> int:
        """The history revision the user's *next* profile will carry.

        The revision counts the visits ingested for the user so far — the same
        quantity the offline :class:`repro.data.profiles.ProfileBuilder` stamps
        (``len(visits_before)``), so a profile built either way for the same
        history state gets the same cache identity.  It advances on every
        geo-tagged tweet even under a capped history whose *length* stays put,
        which is exactly what makes the key collision impossible.
        """
        return self._revisions.get(uid, 0)

    # ---------------------------------------------------------------- consume
    def consume(self, tweet: Tweet) -> Profile:
        """Ingest one tweet and return the profile it defines.

        The profile's visit history reflects only tweets consumed *before*
        this one; if the tweet is geo-tagged it is added to the user's history
        afterwards, ready for the next profile.
        """
        last = self._last_ts.get(tweet.uid)
        if self.enforce_order and last is not None and tweet.ts < last:
            raise DataGenerationError(
                f"tweet for user {tweet.uid} at ts={tweet.ts} arrived after ts={last}"
            )
        self._last_ts[tweet.uid] = max(tweet.ts, last) if last is not None else tweet.ts

        history = tuple(self._histories.get(tweet.uid, ()))
        pid = None
        if tweet.is_geotagged:
            poi = self.registry.locate(tweet.lat, tweet.lon)  # type: ignore[arg-type]
            if poi is not None:
                pid = poi.pid
        revision = self._revisions.get(tweet.uid, 0)
        profile = Profile(
            uid=tweet.uid, tweet=tweet, visit_history=history, pid=pid, revision=revision
        )
        self._profiles_built += 1

        if tweet.is_geotagged:
            # maxlen=0 is a valid deque bound (keep nothing); only None means
            # unbounded.  `self.max_history or None` would conflate the two.
            bucket = self._histories.setdefault(tweet.uid, deque(maxlen=self.max_history))
            bucket.append(Visit(ts=tweet.ts, lat=tweet.lat, lon=tweet.lon))  # type: ignore[arg-type]
            self._revisions[tweet.uid] = revision + 1
        return profile

    def consume_many(self, tweets: list[Tweet]) -> list[Profile]:
        """Ingest tweets in order and return their profiles."""
        return [self.consume(tweet) for tweet in sorted(tweets, key=lambda t: t.ts)]


@dataclass(frozen=True)
class ScoredPair:
    """One candidate pair with the engine's co-location probability."""

    pair: Pair
    probability: float


def _history_featurizer_from(judge):
    """The seedable HisRect featurizer behind a judge, or ``None``.

    Seedable means: the featurizer accepts precomputed history rows
    (``warm_history_row``), actually uses history features, and its history
    featurizer speaks the delta contract (``featurize_delta``).
    """
    featurizer = getattr(judge, "featurizer", None)
    if featurizer is None or not hasattr(featurizer, "warm_history_row"):
        return None
    if not getattr(getattr(featurizer, "config", None), "use_history", False):
        return None
    history = getattr(featurizer, "history_featurizer", None)
    if history is None or not hasattr(history, "featurize_delta"):
        return None
    return featurizer


def _seedable_featurizers(engine):
    """``(reference_featurizer, profile -> featurizer)`` for a serving stack.

    Walks batcher fronts down to the engine, then resolves which featurizer
    instance will featurize a given profile: the single engine's judge, or —
    for a :class:`repro.cluster.ShardedEngine` with replicated judges — the
    owner shard's replica (replicas deep-copy the fitted parameters, so rows
    computed against the reference are bit-identical on every replica).
    Returns ``None`` when the stack cannot be seeded from this process
    (a :class:`repro.cluster.WorkerPool`: its featurizers live in worker
    processes, where the engine-side revisioned cache already does the work).
    """
    node = engine
    for _ in range(8):  # bounded walk through wrapper fronts (MicroBatcher)
        if hasattr(node, "num_workers"):
            return None
        inner = getattr(node, "engine", None)
        if inner is None or inner is node:
            break
        node = inner
    shards = getattr(node, "shards", None)
    if shards is not None and hasattr(node, "shard_of"):
        featurizers = [_history_featurizer_from(shard.judge) for shard in shards]
        if any(featurizer is None for featurizer in featurizers):
            return None
        return featurizers[0], lambda profile: featurizers[node.shard_of(profile)]
    featurizer = _history_featurizer_from(getattr(node, "judge", node))
    if featurizer is None:
        return None
    return featurizer, lambda profile: featurizer


class StreamScorer:
    """Tweets in, engine-scored candidate pairs out.

    Parameters
    ----------
    engine:
        A :class:`repro.api.ColocationEngine`, a
        :class:`repro.cluster.ShardedEngine` (the sharded path: each user's
        features live on their owner shard) or a raw fitted judge, which is
        wrapped.  The engine's feature cache is what keeps a profile from
        being re-featurized for every pair it participates in.
    registry:
        POI set for labelling geo-tagged tweets; defaults to the engine's.
    delta_t / max_distance_m / max_history / enforce_order:
        Forwarded to the sliding window and the profile builder.
        ``enforce_order`` keeps the builder's strict default; pass ``False``
        for tolerant out-of-order ingestion.
    pair_filter:
        Optional predicate applied to candidate pairs *before* they reach the
        engine (e.g. "are these two users friends"), keeping the judged batch
        small.
    incremental:
        Maintain a :class:`repro.features.HistoryDeltaTracker` mirroring the
        builder's per-user histories and seed the featurizer's history-row
        cache with delta-updated Eq. (1)–(2) rows before each profile is
        scored (default).  The delta path reuses the batch kernels, so seeded
        rows are bit-identical to scratch featurization — scores do not
        change, only the per-ingest featurization cost (O(1 visit) instead of
        O(history)).  Stacks whose featurizers this process cannot reach
        (a :class:`repro.cluster.WorkerPool`) fall back to scratch
        featurization automatically; :attr:`incremental` reports whether
        seeding is actually active.
    """

    def __init__(
        self,
        engine,
        registry: POIRegistry | None = None,
        delta_t: float = 3600.0,
        max_history: int | None = 64,
        max_distance_m: float | None = None,
        pair_filter: Callable[[Pair], bool] | None = None,
        enforce_order: bool = True,
        incremental: bool = True,
    ):
        from repro.service._engine import resolve_engine

        self.engine = resolve_engine(engine)
        self.builder = OnlineProfileBuilder(
            registry if registry is not None else self.engine.registry,
            max_history=max_history,
            enforce_order=enforce_order,
        )
        self.window = SlidingPairWindow(delta_t=delta_t, max_distance_m=max_distance_m)
        self.pair_filter = pair_filter
        self._tracker: HistoryDeltaTracker | None = None
        self._featurizer_of = None
        if incremental:
            resolved = _seedable_featurizers(self.engine)
            if resolved is not None:
                reference, self._featurizer_of = resolved
                self._tracker = HistoryDeltaTracker(
                    reference.history_featurizer, max_history=max_history
                )

    @property
    def incremental(self) -> bool:
        """Whether delta-featurization seeding is active on this scorer."""
        return self._tracker is not None

    def _consume(self, tweet: Tweet) -> Profile:
        """Builder consume plus (when active) incremental history seeding.

        The seeded row is computed from the tracker's pre-append state — the
        same history the emitted profile carries — and warmed into the
        featurizer that will featurize this profile; the visit is appended to
        the tracker afterwards, mirroring the builder's post-emission append.
        """
        profile = self.builder.consume(tweet)
        if self._tracker is not None:
            featurizer = self._featurizer_of(profile)
            featurizer.warm_history_row(profile, self._tracker.row_for(profile))
            if tweet.is_geotagged:
                self._tracker.append(
                    profile.uid, Visit(ts=tweet.ts, lat=tweet.lat, lon=tweet.lon)  # type: ignore[arg-type]
                )
        return profile

    def process(self, tweet: Tweet) -> list[ScoredPair]:
        """Consume one tweet; return its scored Δt-compatible candidate pairs."""
        profile = self._consume(tweet)
        candidates = self.window.add(profile)
        if self.pair_filter is not None:
            candidates = [pair for pair in candidates if self.pair_filter(pair)]
        if not candidates:
            return []
        probabilities = self.engine.predict_proba(candidates)
        # One tolist() instead of a float() per pair: same Python floats.
        return [
            ScoredPair(pair, probability)
            for pair, probability in zip(candidates, np.asarray(probabilities).tolist())
        ]

    def process_many(self, tweets: list[Tweet]) -> list[ScoredPair]:
        """Consume tweets in timestamp order and collect every scored pair.

        Tweets sharing a timestamp are consumed one by one (profile state is
        sequential) but their candidate pairs score as **one** engine call —
        one batched gather instead of a call per tweet.  Coalescing changes
        the BLAS batch shape, so like a :class:`repro.cluster.MicroBatcher`
        flush the probabilities may drift from per-tweet :meth:`process`
        calls by last-mantissa-bit noise only (``<= 1e-12``); feature rows
        and cache identity are unaffected.
        """
        ordered = sorted(tweets, key=lambda t: t.ts)
        scored: list[ScoredPair] = []
        index = 0
        while index < len(ordered):
            stop = index
            while stop < len(ordered) and ordered[stop].ts == ordered[index].ts:
                stop += 1
            groups: list[list[Pair]] = []
            for tweet in ordered[index:stop]:
                candidates = self.window.add(self._consume(tweet))
                if self.pair_filter is not None:
                    candidates = [pair for pair in candidates if self.pair_filter(pair)]
                groups.append(candidates)
            index = stop
            flat = [pair for group in groups for pair in group]
            if not flat:
                continue
            probabilities = np.asarray(self.engine.predict_proba(flat)).tolist()
            scored.extend(
                ScoredPair(pair, probability)
                for pair, probability in zip(flat, probabilities)
            )
        return scored
