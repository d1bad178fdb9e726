"""The partitioned engine and its in-process form, :class:`ShardedEngine`.

One :class:`repro.api.ColocationEngine` owns one feature cache and serves one
caller at a time.  A partitioned engine splits the user population across
``N`` shards so (a) each shard's bounded cache holds a *disjoint* slice of
users — a burst of traffic for one slice never churns another slice's cache —
and (b) feature gathering for a batch fans out across shards concurrently,
one gather per owner shard.  :class:`PartitionedEngine` is that engine written
once; its two transports differ only in what a shard is:

* :class:`ShardedEngine` — each shard is an engine in this process, driven by
  its own thread;
* :class:`repro.cluster.WorkerPool` — each shard is a wire client of one
  worker process.

Routing is by a **stable** hash of the profile's ``uid`` (the first component
of :func:`repro.core.profile_key`): every profile a user emits lands on the
same shard, and — unlike the salted builtin ``hash`` — the mapping survives
process restarts, so a :meth:`PartitionedEngine.snapshot` taken by one
incarnation restores cleanly into the next (even with a different shard
count: :meth:`PartitionedEngine.restore` re-routes every row by key).

Pair scoring gathers feature rows from both owners and reuses the judge's
``score_feature_pairs`` with the engine's exact chunking, so every transport
is bit-for-bit identical to a single :class:`ColocationEngine` over the same
fitted judge.  Judges without the feature-level interface fall back to their
own ``predict_proba`` (there is nothing to shard — no per-profile features
exist).
"""

from __future__ import annotations

import copy
import os
import threading
import zlib
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Callable, Iterable

import numpy as np

from repro.api.core import NO_CACHE_TRAFFIC, CallCacheStats, JudgementCore
from repro.api.engine import ColocationEngine, EngineCacheInfo
from repro.api.messages import JudgeRequest, JudgeResponse
from repro.core.protocols import ProfileKey, profile_key
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError
from repro.obs import get_tracer
from repro.store.base import check_profile_keys


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


def split_budget(cache_size: int, parts: int, what: str) -> list[int]:
    """Split a **total** feature-row budget over ``parts`` cache slices.

    The first ``cache_size % parts`` slices take the remainder, so the
    slices sum to ``cache_size`` and a partitioned engine compares fairly
    with a single engine of the same ``cache_size``.
    """
    if parts < 1:
        raise ConfigurationError(f"{what} must be >= 1")
    if cache_size < 0:
        raise ConfigurationError("cache_size must be >= 0")
    base, extra = divmod(cache_size, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


class PartitionedEngine:
    """Serve a fitted judge across hash-partitioned shards.

    Owns everything that does not depend on what a shard is: routing,
    per-owner deduplication, the concurrent fan-out with scatter-back and
    stat merging, trace propagation, the cache-admin surface and the
    delegations to the shared :class:`repro.api.JudgementCore`.

    A shard is any object with

    * ``submit_gather(profiles, trace)``, returning a
      :class:`concurrent.futures.Future` of the owner's
      ``(rows, CallCacheStats)``;
    * ``cache_info()``, ``invalidate(uids)``, ``invalidate_stale()``,
      ``export()`` and ``import_rows(rows)``, as on
      :class:`ColocationEngine` and its feature store;
    * ``close()``, which :meth:`close` calls — a transport that owns more
      than its shards (the worker pool's processes and event loop)
      overrides :meth:`close` instead.

    ``local`` is the in-process engine whose chunk-canonical scorer scores
    every pair, whose registry the engine reports, and whose judge decides
    on the feature-space path; fallbacks for non-feature-space judges use
    the original ``judge``.
    """

    #: Bound on waiting for one shard's answer (``None`` waits).
    call_timeout: float | None = None

    def __init__(
        self,
        judge,
        shards: list,
        *,
        local: ColocationEngine,
        threshold: float | None,
        cache_size: int,
    ):
        self.judge = judge
        self.cache_size = cache_size
        self.batch_size = local.batch_size
        self._shards = shards
        self._local = local
        self._close_lock = threading.Lock()
        self._closed = False
        #: The shared decision/serve logic — the exact object the single
        #: engine runs, parameterized on this engine's cross-shard gather
        #: and the local engine's chunk-canonical scorer.
        self._core = JudgementCore(
            local.judge,
            gather=self._resolve_features,
            scorer=local._score_batched,
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
        """The POI registry behind the judge (the local engine's view)."""
        return self._local.registry

    def shard_of(self, profile: Profile) -> int:
        """The index of the shard owning this profile's user."""
        return shard_index(profile_key(profile), len(self._shards))

    def close(self) -> None:
        """Close every shard (idempotent); later calls raise ``ConfigurationError``."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ---------------------------------------------------------------- fan-out
    def _fan_out(self, submits: Iterable[Callable[[], Future]]) -> list:
        """Start every shard call, wait for *all*, then raise the first failure.

        Waiting out the siblings of a failed call means no shard is still
        working for a request its caller has already seen fail (and no wire
        coroutine is abandoned mid-socket).  Results come back in order.
        """
        if self._closed:
            raise ConfigurationError(f"the {type(self).__name__} is closed")
        futures: list[Future] = []
        first_error: BaseException | None = None
        for submit in submits:
            try:
                futures.append(submit())
            except BaseException as exc:
                first_error = exc
                break
        results = []
        for future in futures:
            try:
                results.append(future.result(self.call_timeout))
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def _route(self, profiles: list[Profile]) -> list[tuple[int, list[int], list[int], list[int]]]:
        """Owner groups of one call: ``(owner, positions, row_of, sent)``.

        ``positions`` are the group's indices into ``profiles``; each
        distinct profile goes to its owner once (``sent`` holds the position
        of its first occurrence) and ``row_of`` maps every position to its
        row in the owner's answer.
        """
        count = len(self._shards)
        plans: dict[int, tuple[list[int], list[int], list[int], dict]] = {}
        for position, profile in enumerate(profiles):
            key = profile_key(profile)
            owner = shard_index(key, count)
            plan = plans.get(owner)
            if plan is None:
                plan = plans[owner] = ([], [], [], {})
            positions, row_of, sent, unique = plan
            row = unique.get(key)
            if row is None:
                row = unique[key] = len(sent)
                sent.append(position)
            positions.append(position)
            row_of.append(row)
        return [(owner, *plan[:3]) for owner, plan in plans.items()]

    def _gather_owners(
        self, batches: list[tuple[int, list[Profile]]], trace
    ) -> list[tuple[np.ndarray, CallCacheStats]]:
        """One gather per ``(owner, profiles)`` batch, concurrently, in order."""
        return self._fan_out(
            partial(self._shards[owner].submit_gather, group, trace)
            for owner, group in batches
        )

    def _resolve_features(
        self, profiles: list[Profile]
    ) -> tuple[np.ndarray, CallCacheStats]:
        """Feature rows gathered from each profile's owner shard, in parallel,
        plus this call's own cache traffic summed over the shards (each
        owner's ``missed`` positions mapped back onto ``profiles``).

        The caller's trace (a ContextVar, which does not cross threads or
        processes) is handed to the shards explicitly, so shard-side stages
        land in the caller's trace.
        """
        if not profiles:
            return self._local.features([]), NO_CACHE_TRAFFIC
        tracer = get_tracer()
        trace = tracer.current_trace() if tracer.enabled else None
        plans = self._route(profiles)
        results = self._gather_owners(
            [(owner, [profiles[i] for i in sent]) for owner, _, _, sent in plans], trace
        )
        rows: np.ndarray | None = None
        parts = []
        for (_, positions, row_of, sent), (owner_rows, stats) in zip(plans, results):
            parts.append((stats, sent))
            if rows is None:
                rows = np.empty((len(profiles), owner_rows.shape[1]), dtype=owner_rows.dtype)
            rows[positions] = owner_rows if len(sent) == len(positions) else owner_rows[row_of]
        assert rows is not None
        return rows, CallCacheStats.merge(parts)

    def warm(self, profiles: list[Profile]) -> int:
        """Pre-featurize profiles into their owner shards; returns rows featurized.

        A gather whose rows are dropped.  The count sums each shard's own
        per-call accounting, so concurrent callers driving the same cluster
        do not inflate each other's totals.
        """
        if not profiles or not self._core.feature_space:
            return 0
        return self._resolve_features(profiles)[1].featurized

    def features(self, profiles: list[Profile]) -> np.ndarray:
        """Cached frozen feature rows for profiles (gathered across shards)."""
        if not self._core.feature_space:
            raise ConfigurationError(
                "the wrapped judge has no feature-level interface (FeatureSpaceJudge)"
            )
        rows, _ = self._resolve_features(profiles)
        return rows

    # ------------------------------------------------------------- cache admin
    def cache_info(self) -> EngineCacheInfo:
        """Cluster-level cache statistics (all shards merged)."""
        return EngineCacheInfo.merge(self.shard_cache_infos())

    def shard_cache_infos(self) -> tuple[EngineCacheInfo, ...]:
        """Per-shard cache statistics, index-aligned with the shards."""
        return tuple(shard.cache_info() for shard in self._shards)

    def invalidate(self, uids: Iterable[int]) -> int:
        """Drop the given users' cached rows on their owner shards.

        Each uid routes to its stable-hash owner — only that shard can hold
        the user's rows, so invalidation never touches the other shards'
        caches.  Returns the total rows dropped (0 once closed).
        """
        uid_set = {int(uid) for uid in uids}
        if not uid_set or self._closed:
            return 0
        groups: dict[int, list[int]] = {}
        for uid in sorted(uid_set):
            groups.setdefault(shard_index(uid, len(self._shards)), []).append(uid)
        return sum(
            self._shards[owner].invalidate(group) for owner, group in sorted(groups.items())
        )

    def invalidate_stale(self) -> int:
        """Drop superseded-revision rows on every shard; returns rows dropped."""
        if self._closed:
            return 0
        return sum(shard.invalidate_stale() for shard in self._shards)

    def snapshot(self) -> tuple[dict[ProfileKey, np.ndarray], ...]:
        """Per-shard store exports, index-aligned with the shards."""
        return tuple(shard.export() for shard in self._shards)

    def restore(self, snapshot: tuple[dict[ProfileKey, np.ndarray], ...]) -> int:
        """Repopulate shard stores from a :meth:`snapshot`; returns rows kept.

        Every row is re-routed to its key's stable-hash owner, so a snapshot
        taken at one shard count restores correctly into another.  Source
        exports are interleaved position-wise (each source's coldest rows
        first, its hottest last) so when the restored capacity is smaller,
        the LRU bound evicts the approximately coldest rows across the whole
        snapshot rather than whichever source happened to import first.
        A malformed key raises :class:`ConfigurationError` before any shard
        installs a row.
        """
        for rows in snapshot:
            check_profile_keys(rows)
        routed: list[dict[ProfileKey, np.ndarray]] = [{} for _ in self._shards]
        iterators = [iter(rows.items()) for rows in snapshot]
        while iterators:
            remaining = []
            for iterator in iterators:
                item = next(iterator, None)
                if item is None:
                    continue
                key, row = item
                routed[shard_index(key, len(routed))][key] = row
                remaining.append(iterator)
            iterators = remaining
        return sum(shard.import_rows(rows) for shard, rows in zip(self._shards, routed))

    # -------------------------------------------------------------- judgement
    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability per pair; bit-for-bit the single engine's.

        Left and right profiles gather in one fan-out (each owner featurizes
        its misses as one batch); scoring reuses the engine's exact chunking
        over the full pair list, so neither partitioning nor gather order
        changes a single bit of the result.
        """
        return self._core.predict_proba(pairs)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions per pair (judge's rule, like the engine)."""
        return self._core.predict(pairs)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """The ``N x N`` pairwise matrix, each profile featurized on its owner."""
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


class _EngineShard(ColocationEngine):
    """An in-process shard: an engine driven by its own single thread.

    The thread is the fan-out: a call submits one gather per owner shard and
    they run concurrently, while each shard's gathers queue on its one
    thread, so a replica runs at most one featurize at a time and
    concurrent callers cannot pile onto one shard.  It is not a lock: the
    replica's featurizer memos (the vectorizer's word vectors, the ``Fv(r)``
    rows) are each a locked :class:`repro.store.HotStore`, safe to share.
    """

    def __init__(self, judge, **kwargs):
        super().__init__(judge, **kwargs)
        self._thread = ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-shard")

    def submit_gather(self, profiles: list[Profile], trace) -> Future:
        return self._thread.submit(self._gather, profiles, trace)

    def _gather(self, profiles: list[Profile], trace) -> tuple[np.ndarray, CallCacheStats]:
        # Trace activation rides a ContextVar, which does not cross into the
        # shard thread — the caller's trace is re-activated here so
        # shard-side stages (featurize) land in the right trace.
        with get_tracer().activate(trace):
            return self._resolve_features(profiles)

    def export(self) -> dict[ProfileKey, np.ndarray]:
        return self.store.export()

    def import_rows(self, rows: dict[ProfileKey, np.ndarray]) -> int:
        return self.store.import_rows(rows)

    def close(self) -> None:
        self._thread.shutdown(wait=True)
        super().close()


class ShardedEngine(PartitionedEngine):
    """Serve a fitted judge across hash-partitioned engine shards in-process.

    Parameters
    ----------
    judge:
        Any fitted judge a :class:`ColocationEngine` accepts.  A judge with
        the feature-level interface is deep-copied once per shard, so shards
        featurize in parallel and a shard's warmth never leaks into the
        caller's instance; other judges are shared (every call path falls
        back to the original judge, so replicas would only waste memory).
    num_shards:
        Number of engine shards (each with its own bounded feature cache).
    cache_size:
        **Total** feature-row budget, split evenly across shards.
    threshold / batch_size / registry:
        Forwarded to every shard (see :class:`ColocationEngine`).
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
        arena_dir: str | os.PathLike | None = None,
    ):
        sizes = split_budget(cache_size, num_shards, "num_shards")
        feature_space = hasattr(judge, "featurize_profiles") and hasattr(
            judge, "score_feature_pairs"
        )
        self.num_shards = num_shards
        self.arena_dir = arena_dir
        #: The shard engines, index-aligned with :func:`shard_index`.
        self.shards: list[ColocationEngine] = [
            _EngineShard(
                copy.deepcopy(judge) if feature_space else judge,
                cache_size=size,
                threshold=threshold,
                batch_size=batch_size,
                registry=registry,
                arena_dir=shard_arena_dir(arena_dir, index),
            )
            for index, size in enumerate(sizes)
        ]
        super().__init__(
            judge,
            self.shards,
            local=self.shards[0],
            threshold=threshold,
            cache_size=cache_size,
        )

    def clear_cache(self) -> None:
        """Drop every shard's cached feature rows (keeps the counters)."""
        for shard in self.shards:
            shard.clear_cache()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.cache_info()
        return (
            f"ShardedEngine(judge={type(self.judge).__name__}, shards={self.num_shards}, "
            f"cache={info.size}/{info.maxsize}, hit_rate={info.hit_rate:.2f})"
        )
