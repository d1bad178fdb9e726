""":class:`ShardedEngine` — N hash-partitioned :class:`ColocationEngine` shards.

One :class:`repro.api.ColocationEngine` owns one feature cache and serves one
caller at a time; the sharded engine splits the user population across ``N``
shards so (a) each shard's bounded LRU holds a *disjoint* slice of users — a
burst of traffic for one slice never churns another slice's cache — and (b)
feature gathering for a batch fans out across shards on a thread pool, one
featurize call per shard.

Routing is by a **stable** hash of the profile's ``uid`` (the first component
of :func:`repro.core.profile_key`): every profile a user emits lands on the
same shard, and — unlike the salted builtin ``hash`` — the mapping survives
process restarts, so a :meth:`snapshot` taken by one incarnation restores
cleanly into the next (even with a different shard count: :meth:`restore`
re-routes every row by key).

Pair scoring gathers feature rows from both owners and reuses the judge's
``score_feature_pairs`` with the engine's exact chunking, so
``ShardedEngine.predict_proba`` is bit-for-bit identical to a single
:class:`ColocationEngine` over the same fitted judge.  Judges without the
feature-level interface fall back to their own ``predict_proba`` (there is
nothing to shard — no per-profile features exist).

Python threads share one interpreter, so by default each shard drives its own
``copy.deepcopy`` of the judge: the judge's internal featurizer caches (text
vectorizer LRU, history cache) are not thread-safe, and replicating the model
per shard mirrors the production layout anyway (one replica per worker).
Featurization is additionally serialised *per shard* — concurrent top-level
callers fan out across shards but queue within one, so a replica's caches are
only ever mutated by one thread at a time.  Pass ``replicate_judge=False`` to
share one judge across shards and serialise featurization through a single
lock (memory-lean, gather parallelism disabled).
"""

from __future__ import annotations

import copy
import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np

from repro.api.core import CallCacheStats, JudgementCore
from repro.api.engine import ColocationEngine, EngineCacheInfo
from repro.api.messages import JudgeRequest, JudgeResponse
from repro.core.protocols import ProfileKey, profile_key
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError
from repro.obs import get_tracer


def shard_index(key: "ProfileKey | int", num_shards: int) -> int:
    """The owning shard of a profile key (or bare uid): a stable uid hash.

    CRC-32 of the uid's canonical big-endian two's-complement bytes —
    deterministic across processes and platforms (builtin ``hash`` is salted
    per process), uniform enough for load spreading, and a function of the
    *user* only, so every profile version a user emits shares a shard with
    its history.  A bare ``int`` routes identically to any key of that uid —
    which is what lets ``invalidate(uids)`` find a user's owner without
    having any of their profiles in hand.

    The encoding is variable-length with an 8-byte floor: every uid in the
    signed 64-bit range keeps the fixed 8-byte encoding (so snapshots taken
    before the width fix still restore onto the same shards), and wider uids
    take exactly as many bytes as their two's-complement value needs — one
    canonical encoding per integer, so any int routes stably instead of
    raising ``OverflowError``.
    """
    uid = int(key) if isinstance(key, int) else int(key[0])
    # Minimal two's-complement width in bits (value bits + one sign bit),
    # floored at 64 so in-range uids keep the legacy 8-byte encoding.
    bits = (uid.bit_length() if uid >= 0 else (~uid).bit_length()) + 1
    length = max(8, (bits + 7) // 8)
    return zlib.crc32(uid.to_bytes(length, "big", signed=True)) % num_shards


def shard_arena_dir(
    root: "str | os.PathLike | None", index: int, prefix: str = "shard"
) -> str | None:
    """The arena slice directory of one shard/worker under a shared root.

    Slices are per-owner subdirectories (``shard-003``, ``worker-001``)
    because each arena file has exactly one writer; the shared *root* is
    what a whole cluster points at to warm-start.  ``None`` root → no arena.
    """
    if root is None:
        return None
    return os.path.join(os.fspath(root), f"{prefix}-{index:03d}")


def route_snapshot_rows(
    snapshot: tuple[dict[ProfileKey, np.ndarray], ...], num_shards: int
) -> list[dict[ProfileKey, np.ndarray]]:
    """Re-route per-shard cache exports onto ``num_shards`` owner slots.

    Every row lands on its key's stable-hash owner, so a snapshot taken at
    one shard/worker count restores correctly into another.  Source exports
    are interleaved position-wise (each source's coldest rows first, its
    hottest last) so when the restored capacity is smaller, the LRU bound
    evicts the approximately coldest rows across the whole snapshot rather
    than whichever source happened to import first.  Shared by
    :meth:`ShardedEngine.restore` and the process-tier
    :meth:`repro.cluster.WorkerPool.restore`.
    """
    routed: list[dict[ProfileKey, np.ndarray]] = [{} for _ in range(num_shards)]
    iterators = [iter(rows.items()) for rows in snapshot]
    while iterators:
        remaining = []
        for iterator in iterators:
            item = next(iterator, None)
            if item is None:
                continue
            key, row = item
            routed[shard_index(key, num_shards)][key] = row
            remaining.append(iterator)
        iterators = remaining
    return routed


class ShardedEngine:
    """Serve a fitted judge across hash-partitioned engine shards.

    Parameters
    ----------
    judge:
        Any fitted judge a :class:`ColocationEngine` accepts.
    num_shards:
        Number of engine shards (each with its own bounded feature cache).
    cache_size:
        **Total** feature-row budget, split evenly across shards — so a
        sharded engine and a single engine with the same ``cache_size`` hold
        the same number of rows and compare fairly.
    threshold / batch_size / registry:
        Forwarded to every shard (see :class:`ColocationEngine`).
    replicate_judge:
        Deep-copy the judge once per shard so shards featurize in parallel
        (default).  ``False`` shares the single judge instance and serialises
        featurization through a lock.  Judges without the feature-level
        interface are never replicated — every call path falls back to the
        original judge, so replicas would only waste memory.
    max_workers:
        Thread-pool width for per-shard feature gathering; defaults to
        ``num_shards``.
    arena_dir:
        Optional cold-tier root: each shard gets its own memmap arena slice
        ``arena_dir/shard-NNN`` behind its hot LRU, so evicted rows demote
        to disk instead of dropping and a restarted cluster pointed at the
        same directory warm-starts without re-featurizing.
    """

    def __init__(
        self,
        judge,
        *,
        num_shards: int = 4,
        cache_size: int = 4096,
        threshold: float | None = None,
        batch_size: int = 1024,
        registry=None,
        replicate_judge: bool = True,
        max_workers: int | None = None,
        arena_dir: str | os.PathLike | None = None,
    ):
        if num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        self.judge = judge
        self.num_shards = num_shards
        self.cache_size = cache_size
        self.batch_size = batch_size
        # Replicas exist to isolate the featurizers' internal caches, so a
        # judge without the feature-level interface never needs them (every
        # call path falls back to the original judge) — and a single shard
        # still gets one: sharing the caller's instance would let warmth
        # leak between engines that are supposed to be independent.
        feature_space = hasattr(judge, "featurize_profiles") and hasattr(
            judge, "score_feature_pairs"
        )
        self.replicated = replicate_judge and feature_space
        # Split the total budget exactly: the first cache_size % num_shards
        # shards take the remainder, so merged maxsize == cache_size.
        base, extra = divmod(cache_size, num_shards)
        self.arena_dir = arena_dir
        self.shards: list[ColocationEngine] = []
        for index in range(num_shards):
            shard_judge = copy.deepcopy(judge) if self.replicated else judge
            self.shards.append(
                ColocationEngine(
                    shard_judge,
                    cache_size=base + (1 if index < extra else 0),
                    threshold=threshold,
                    batch_size=batch_size,
                    registry=registry,
                    arena_dir=shard_arena_dir(arena_dir, index),
                )
            )
        # Featurization must be serialised per judge instance: the judges'
        # internal featurizer caches (text vectorizer LRU, history cache) are
        # not thread-safe.  With replicas that is one lock per shard —
        # concurrent top-level callers still fan out across shards — and with
        # a shared judge it is one lock for everything.
        if self.replicated:
            self._gather_locks = [threading.Lock() for _ in range(num_shards)]
        else:
            shared = threading.Lock()
            self._gather_locks = [shared] * num_shards
        workers = max_workers if max_workers is not None else num_shards
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, min(workers, num_shards)),
            thread_name_prefix="repro-shard",
        )
        #: The shared decision/serve logic — the exact object the single
        #: engine runs, parameterized on this cluster's cross-shard gather
        #: and shard 0's chunk-canonical scorer.  Feature-space calls go
        #: through shard 0's judge replica (the same one that scores);
        #: fallbacks for non-feature-space judges use the original ``judge``.
        self._core = JudgementCore(
            self.shards[0].judge,
            gather=self._resolve_features,
            scorer=self.shards[0]._score_batched,
            explicit_threshold=threshold,
            fallback_judge=judge,
        )

    # --------------------------------------------------------------- plumbing
    @property
    def threshold(self) -> float:
        """The decision threshold applied by :meth:`predict` and :meth:`serve`."""
        return self._core.threshold

    @property
    def registry(self):
        """The POI registry behind the judge (shard 0's view)."""
        return self.shards[0].registry

    @property
    def _feature_space(self) -> bool:
        return self._core.feature_space

    def shard_of(self, profile: Profile) -> int:
        """The index of the shard owning this profile's user."""
        return shard_index(profile_key(profile), self.num_shards)

    def close(self) -> None:
        """Shut down the gather pool and flush shard arenas (idempotent)."""
        self._pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ----------------------------------------------------------- feature path
    def _gather(
        self, shard: int, profiles: list[Profile], trace=None
    ) -> tuple[np.ndarray, CallCacheStats]:
        # Trace activation rides a ContextVar, which does not cross into pool
        # threads — the caller's trace arrives explicitly and is re-activated
        # here so shard-side stages (featurize) land in the right trace.
        with self._gather_locks[shard]:
            with get_tracer().activate(trace):
                return self.shards[shard]._resolve_features(profiles)

    def _resolve_features(
        self, profiles: list[Profile]
    ) -> tuple[np.ndarray, CallCacheStats]:
        """Feature rows gathered from each profile's owner shard, in parallel,
        plus this call's own cache traffic summed over the shards (each
        shard's ``missed`` positions mapped back onto ``profiles``)."""
        tracer = get_tracer()
        trace = tracer.current_trace() if tracer.enabled else None
        owners = [self.shard_of(p) for p in profiles]
        groups: dict[int, list[int]] = {}
        for position, owner in enumerate(owners):
            groups.setdefault(owner, []).append(position)
        futures = {
            owner: self._pool.submit(
                self._gather, owner, [profiles[i] for i in positions], trace
            )
            for owner, positions in groups.items()
        }
        rows: np.ndarray | None = None
        parts = []
        for owner, positions in groups.items():
            shard_rows, shard_stats = futures[owner].result()
            parts.append((shard_stats, positions))
            if rows is None:
                rows = np.empty((len(profiles), shard_rows.shape[1]), dtype=shard_rows.dtype)
            rows[positions] = shard_rows
        assert rows is not None
        return rows, CallCacheStats.merge(parts)

    def _features_for(self, profiles: list[Profile]) -> np.ndarray:
        """Feature rows gathered from each profile's owner shard, in parallel."""
        rows, _ = self._resolve_features(profiles)
        return rows

    def _warm_shard(self, shard: int, profiles: list[Profile]) -> int:
        with self._gather_locks[shard]:
            return self.shards[shard].warm(profiles)

    def warm(self, profiles: list[Profile]) -> int:
        """Pre-featurize profiles into their owner shards; returns rows featurized.

        The count sums each shard's own per-call accounting, so concurrent
        callers driving the same cluster do not inflate each other's totals.
        """
        if not profiles or not self._feature_space:
            return 0
        groups: dict[int, list[Profile]] = {}
        for profile in profiles:
            groups.setdefault(self.shard_of(profile), []).append(profile)
        futures = [
            self._pool.submit(self._warm_shard, owner, group) for owner, group in groups.items()
        ]
        return sum(future.result() for future in futures)

    def features(self, profiles: list[Profile]) -> np.ndarray:
        """Cached frozen feature rows for profiles (gathered across shards)."""
        if not self._feature_space:
            raise ConfigurationError(
                "the wrapped judge has no feature-level interface (FeatureSpaceJudge)"
            )
        if not profiles:
            return self.shards[0].features([])
        return self._features_for(profiles)

    # ------------------------------------------------------------- cache admin
    def cache_info(self) -> EngineCacheInfo:
        """Cluster-level cache statistics (all shards merged)."""
        return EngineCacheInfo.merge(self.shard_cache_infos())

    def shard_cache_infos(self) -> tuple[EngineCacheInfo, ...]:
        """Per-shard cache statistics, index-aligned with :attr:`shards`."""
        return tuple(shard.cache_info() for shard in self.shards)

    def clear_cache(self) -> None:
        """Drop every shard's cached feature rows (keeps the counters)."""
        for shard in self.shards:
            shard.clear_cache()

    def invalidate(self, uids: Iterable[int]) -> int:
        """Drop the given users' cached rows on their owner shards.

        Each uid routes to its stable-hash owner — only that shard can hold
        the user's rows, so invalidation never touches (or locks) the other
        shards' caches.  Returns the total rows dropped.
        """
        groups: dict[int, list[int]] = {}
        for uid in uids:
            groups.setdefault(shard_index(int(uid), self.num_shards), []).append(int(uid))
        return sum(self.shards[owner].invalidate(group) for owner, group in groups.items())

    def invalidate_stale(self) -> int:
        """Drop superseded-revision rows on every shard; returns rows dropped."""
        return sum(shard.invalidate_stale() for shard in self.shards)

    def snapshot(self) -> tuple[dict[ProfileKey, np.ndarray], ...]:
        """Per-shard store exports, index-aligned with :attr:`shards`."""
        return tuple(shard.store.export() for shard in self.shards)

    def restore(self, snapshot: tuple[dict[ProfileKey, np.ndarray], ...]) -> int:
        """Repopulate shard stores from a :meth:`snapshot`; returns rows kept.

        Every row is re-routed by its key's stable hash, so a snapshot taken
        at one shard count restores correctly into another — see
        :func:`route_snapshot_rows` for the eviction-fairness interleave.
        """
        routed = route_snapshot_rows(snapshot, self.num_shards)
        return sum(
            shard.store.import_rows(rows) for shard, rows in zip(self.shards, routed)
        )

    # -------------------------------------------------------------- judgement
    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability per pair; bit-for-bit the single engine's.

        Left and right profiles gather in one fan-out (each shard featurizes
        its misses as one batch); scoring reuses the engine's exact chunking
        over the full pair list, so neither sharding nor gather order changes
        a single bit of the result.
        """
        return self._core.predict_proba(pairs)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions per pair (judge's rule, like the engine)."""
        return self._core.predict(pairs)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """The ``N x N`` pairwise matrix, each profile featurized on its shard."""
        return self._core.probability_matrix(profiles)

    # ----------------------------------------------------------------- serving
    def serve(self, request: JudgeRequest) -> JudgeResponse:
        """Answer one typed judgement request (cache traffic summed over shards)."""
        return self._core.serve(request)

    def serve_batch(self, requests: Iterable[JudgeRequest]) -> list[JudgeResponse]:
        """Answer typed requests together, scoring them as one coalesced batch.

        See :meth:`repro.api.JudgementCore.serve_batch` — this is the entry
        point ``MicroBatcher.submit_serve`` flushes through.
        """
        return self._core.serve_batch(requests)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.cache_info()
        return (
            f"ShardedEngine(judge={type(self.judge).__name__}, shards={self.num_shards}, "
            f"cache={info.size}/{info.maxsize}, hit_rate={info.hit_rate:.2f})"
        )
