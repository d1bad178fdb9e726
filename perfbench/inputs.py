"""Seeded workload inputs, drawn lazily from compact arrays.

Every generator draws its randomness chunk by chunk into NumPy arrays from
``numpy.random.default_rng(seed)`` and builds records one request at a time.
The same seed therefore gives the same inputs however many requests a run
consumes, and the serving process never holds a pre-built request list: a
few thousand pre-built requests are 150k-500k live objects, which every
gen-2 collection of the serving process would have to traverse.

Each generator accumulates its own CPU time in ``gen_s`` so a run can show
how much of the caller thread the harness itself used.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.api import JudgeRequest
from repro.data.records import Pair, Profile, Tweet, Visit

EARTH_RADIUS_M = 6_371_000.0
#: Requests drawn per refill of a generator's arrays.
CHUNK = 1024
#: Visits sit this far (uniform, metres) from the POI centre they cluster on.
SCATTER_M = 300.0


@dataclass(frozen=True)
class World:
    """The fixed geography and vocabulary inputs are drawn over."""

    lat: np.ndarray
    lon: np.ndarray
    words: tuple[str, ...]

    @classmethod
    def from_pipeline(cls, pipeline) -> "World":
        pois = pipeline.featurizer.registry.pois
        return cls(
            lat=np.array([poi.center.lat for poi in pois]),
            lon=np.array([poi.center.lon for poi in pois]),
            words=tuple(w for w in pipeline.vocabulary.id_to_token if not w.startswith("<")),
        )

    def scatter(self, rng, poi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points uniformly within ``SCATTER_M`` of the given POI centres."""
        north = rng.uniform(-SCATTER_M, SCATTER_M, size=poi.shape)
        east = rng.uniform(-SCATTER_M, SCATTER_M, size=poi.shape)
        lat0 = self.lat[poi]
        lat = lat0 + np.degrees(north / EARTH_RADIUS_M)
        lon = self.lon[poi] + np.degrees(east / (EARTH_RADIUS_M * np.cos(np.radians(lat0))))
        return lat, lon

    def sentence(self, rng) -> str:
        count = int(rng.integers(5, 11))
        return " ".join(self.words[i] for i in rng.integers(len(self.words), size=count))


def zipf_cdf(n: int, s: float) -> np.ndarray:
    """Cumulative ``p(rank k) ~ k^-s`` over ranks ``1..n``."""
    weights = np.arange(1, n + 1, dtype=float) ** -s
    return np.cumsum(weights / weights.sum())


def draw_ranks(rng, cdf: np.ndarray, size) -> np.ndarray:
    return np.minimum(np.searchsorted(cdf, rng.random(size)), len(cdf) - 1)


def _visits(world: World, rng, home: int, count: int, before_ts: float, home_share: float):
    """``count`` visits before ``before_ts``, oldest first, mostly near ``home``."""
    pois = np.where(
        rng.random(count) < home_share, home, rng.integers(len(world.lat), size=count)
    )
    lat, lon = world.scatter(rng, pois)
    ts = before_ts - np.sort(rng.uniform(60.0, 30 * 86400.0, size=count))[::-1]
    return tuple(map(Visit, ts.tolist(), lat.tolist(), lon.tolist()))


class TweetStream:
    """``stream_ingest`` input: a Zipf-skewed tweet stream in timestamp order.

    Gaps between tweets are exponential with mean ``mean_gap_s``; a
    ``geo_share`` of tweets is geo-tagged, mostly near the user's home POI.
    ``next()`` returns ``(tweet, sampled)``; sampled tweets are the seeded
    subset whose results the run checks against a cache-free engine.
    """

    def __init__(
        self,
        world: World,
        seed: int,
        *,
        num_users: int,
        zipf_s: float,
        geo_share: float,
        home_share: float,
        mean_gap_s: float,
        start_ts: float,
        sample_share: float,
    ):
        self.world = world
        self._rng = np.random.default_rng(seed)
        self._cdf = zipf_cdf(num_users, zipf_s)
        self._uid_of_rank = self._rng.permutation(num_users)
        self._home = self._rng.integers(len(world.lat), size=num_users)
        self._geo_share = geo_share
        self._home_share = home_share
        self._mean_gap_s = mean_gap_s
        self._sample_share = sample_share
        self._ts = start_ts
        self._pos = CHUNK
        self.gen_s = 0.0

    def _refill(self) -> None:
        rng = self._rng
        uids = self._uid_of_rank[draw_ranks(rng, self._cdf, CHUNK)]
        pois = np.where(
            rng.random(CHUNK) < self._home_share,
            self._home[uids],
            rng.integers(len(self.world.lat), size=CHUNK),
        )
        lat, lon = self.world.scatter(rng, pois)
        self._uids = uids.tolist()
        self._geo = (rng.random(CHUNK) < self._geo_share).tolist()
        self._lat, self._lon = lat.tolist(), lon.tolist()
        self._ts_chunk = (self._ts + np.cumsum(rng.exponential(self._mean_gap_s, CHUNK))).tolist()
        self._ts = self._ts_chunk[-1]
        self._sampled = (rng.random(CHUNK) < self._sample_share).tolist()
        self._text_seeds = rng.integers(1 << 62, size=CHUNK).tolist()
        self._pos = 0

    def next(self) -> tuple[Tweet, bool]:
        started = time.thread_time()
        if self._pos == CHUNK:
            self._refill()
        i = self._pos
        self._pos += 1
        content = self.world.sentence(np.random.default_rng(self._text_seeds[i]))
        geo = self._geo[i]
        tweet = Tweet(
            uid=self._uids[i],
            ts=self._ts_chunk[i],
            content=content,
            lat=self._lat[i] if geo else None,
            lon=self._lon[i] if geo else None,
        )
        self.gen_s += time.thread_time() - started
        return tweet, self._sampled[i]


class FreshRequests:
    """``fresh_batch`` input: fresh long-history queries against resident candidates.

    ``residents`` are built once (they are the population whose rows the
    store holds); every request carries a new query profile -- a user outside
    the resident set with a ``history_len``-visit history and a new
    timestamp, so its row is never cached -- paired with ``candidates``
    Zipf-drawn residents.  Every other request carries an explicit threshold
    of 0.4, so both decision rules are exercised.
    """

    def __init__(
        self,
        world: World,
        seed: int,
        *,
        residents: int,
        resident_history: int,
        query_users: int,
        history_len: int,
        candidates: int,
        zipf_s: float,
        home_share: float,
        start_ts: float,
        sample_share: float,
    ):
        self.world = world
        rng = self._rng = np.random.default_rng(seed)
        started = time.thread_time()
        homes = rng.integers(len(world.lat), size=residents)
        self.residents = [
            Profile(
                uid=uid,
                tweet=Tweet(uid=uid, ts=start_ts, content=world.sentence(rng)),
                visit_history=_visits(
                    world, rng, int(homes[uid]), resident_history, start_ts, home_share
                ),
            )
            for uid in range(residents)
        ]
        self._cdf = zipf_cdf(residents, zipf_s)
        self._resident_of_rank = rng.permutation(residents)
        self._query_home = rng.integers(len(world.lat), size=query_users)
        self._first_query_uid = residents
        self._query_users = query_users
        self._history_len = history_len
        self._candidates = candidates
        self._home_share = home_share
        self._sample_share = sample_share
        self._ts = start_ts
        self._index = 0
        self._pos = CHUNK
        self.gen_s = time.thread_time() - started

    def warmup_requests(self, count: int) -> list[JudgeRequest]:
        """Fixed requests among the residents (rows the warm-up already cached)."""
        n = len(self.residents)
        return [
            JudgeRequest(
                pairs=tuple(
                    Pair(left=self.residents[i % n], right=self.residents[(i + k) % n])
                    for k in range(1, self._candidates + 1)
                )
            )
            for i in range(count)
        ]

    def _refill(self) -> None:
        rng = self._rng
        self._queries = rng.integers(self._query_users, size=CHUNK).tolist()
        self._cands = self._resident_of_rank[
            draw_ranks(rng, self._cdf, (CHUNK, self._candidates))
        ].tolist()
        self._sampled = (rng.random(CHUNK) < self._sample_share).tolist()
        self._seeds = rng.integers(1 << 62, size=CHUNK).tolist()
        self._pos = 0

    def next(self) -> tuple[JudgeRequest, bool]:
        started = time.thread_time()
        if self._pos == CHUNK:
            self._refill()
        i = self._pos
        self._pos += 1
        self._index += 1
        self._ts += 1.0
        q = self._queries[i]
        rng = np.random.default_rng(self._seeds[i])
        uid = self._first_query_uid + q
        query = Profile(
            uid=uid,
            tweet=Tweet(uid=uid, ts=self._ts, content=self.world.sentence(rng)),
            visit_history=_visits(
                self.world, rng, int(self._query_home[q]), self._history_len, self._ts,
                self._home_share,
            ),
        )
        request = JudgeRequest(
            pairs=tuple(Pair(left=query, right=self.residents[c]) for c in self._cands[i]),
            threshold=None if self._index % 2 else 0.4,
        )
        self.gen_s += time.thread_time() - started
        return request, self._sampled[i]
