""":class:`ColocationEngine` — a fitted judge behind a batched, cached facade.

The engine exists because every online application asks the same two
questions (score these pairs / score this group) and pays the same hidden
cost: featurizing profiles.  The judges that separate featurization from pair
scoring (:class:`repro.core.FeatureSpaceJudge`) let the engine keep one
bounded feature store of per-profile rows shared by *all* entry points —
``predict_proba``, ``probability_matrix``, the sliding-window services — so a
profile seen by several services in the same Δt window is featurized once.
The store is a :class:`repro.store.TieredStore`: an in-RAM LRU, optionally
over a memmap arena (``arena_dir=``) so the warm set survives restarts and
outgrows RAM.

Judges without the feature-level interface (the social judge, duck-typed test
stubs) still work: the engine falls back to their ``predict_proba`` and the
generic pairwise matrix.

Decision and serving logic itself lives in :class:`repro.api.JudgementCore`
— the one object every transport runs (this engine, the partitioned
:class:`repro.cluster.ShardedEngine` and :class:`repro.cluster.WorkerPool`,
and the :class:`repro.cluster.MicroBatcher` over any of them), so they cannot
diverge.  The engine contributes the feature cache (its
``_resolve_features`` is the core's ``gather``) and the chunk-canonical
``_score_batched`` scorer.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.api.core import CallCacheStats, JudgementCore
from repro.api.messages import JudgeRequest, JudgeResponse
from repro.core.protocols import ProfileKey, featurizer_dim, profile_key
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError
from repro.obs import STAGE_FEATURIZE, get_tracer
from repro.store import ArenaStore, EngineCacheInfo, HotStore, TieredStore
from repro.store.base import resolve_rows


class ColocationEngine:
    """Serve a fitted co-location judge to online applications.

    Parameters
    ----------
    judge:
        Any fitted judge satisfying :class:`repro.core.CoLocationJudge` (or
        at minimum exposing ``predict_proba``): a pipeline, the HisRect
        judge, the One-phase model, Comp2Loc, the social judge, a baseline.
    cache_size:
        Maximum number of per-profile feature rows kept in the hot (in-RAM)
        tier of the feature store.  ``0`` disables the hot tier (every call
        featurizes from scratch unless a cold arena answers).
    threshold:
        Decision threshold for :meth:`predict` / :meth:`serve`.  ``None``
        adopts the judge's own ``decision_threshold`` (default 0.5).
    batch_size:
        Pairs scored per network invocation, bounding the scorer's
        intermediate arrays (scoring builds no autograd graph).
    registry:
        Optional explicit POI registry; by default it is taken from the
        judge's featurizer, so services can derive it from the engine.
    arena_dir:
        Give the store a cold tier: a memmap :class:`repro.store.ArenaStore`
        in this directory (created on first write, reopened if present).
    """

    def __init__(
        self,
        judge,
        *,
        cache_size: int = 4096,
        threshold: float | None = None,
        batch_size: int = 1024,
        registry=None,
        arena_dir: str | os.PathLike | None = None,
    ):
        if not hasattr(judge, "predict_proba"):
            raise ConfigurationError("judge must expose predict_proba(pairs)")
        if cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        #: The feature store serving ``_resolve_features``: the hot LRU,
        #: plus a memmap arena cold tier when ``arena_dir`` is given.
        self.store = TieredStore(
            HotStore(cache_size), ArenaStore(arena_dir) if arena_dir is not None else None
        )
        self.judge = judge
        self.cache_size = cache_size
        self.batch_size = batch_size
        self._registry = registry
        #: The shared decision/serve logic (one path for engine, shards and
        #: batcher), parameterized on this engine's cache-backed gather and
        #: chunk-canonical scorer.  Validates ``threshold``.
        self._core = JudgementCore(
            judge,
            gather=self._resolve_features,
            scorer=self._score_batched,
            explicit_threshold=threshold,
        )
        #: Guards the engine's own counters.  Lookup, eviction and
        #: invalidation counts are the store's (it counts under its own
        #: lock); the engine counts only what no store sees — featurization,
        #: which runs outside any lock.
        self._lock = threading.Lock()
        self._featurized = 0  # guarded-by: _lock
        #: Invalidated-row count not yet reported by a gather call: drained
        #: into the next call's :class:`CallCacheStats`, so typed responses
        #: surface the invalidation traffic that preceded them (the batcher
        #: processes invalidations first in a flush; the flush's serves then
        #: account them).
        self._pending_invalidated = 0  # guarded-by: _lock

    # --------------------------------------------------------------- plumbing
    @classmethod
    def ensure(cls, judge_or_engine, **kwargs) -> "ColocationEngine":
        """Pass an engine through unchanged; wrap a raw judge."""
        if isinstance(judge_or_engine, ColocationEngine):
            return judge_or_engine
        return cls(judge_or_engine, **kwargs)

    @property
    def threshold(self) -> float:
        """The decision threshold applied by :meth:`predict` and :meth:`serve`."""
        return self._core.threshold

    @property
    def registry(self):
        """The POI registry behind the judge's featurizer (or the explicit one)."""
        if self._registry is not None:
            return self._registry
        featurizer = getattr(self.judge, "featurizer", None)
        registry = getattr(featurizer, "registry", None)
        if registry is None:
            raise ConfigurationError(
                "the wrapped judge exposes no POI registry; pass registry= explicitly"
            )
        return registry

    @property
    def _feature_space(self) -> bool:
        return self._core.feature_space

    # ----------------------------------------------------------- feature cache
    def resolve_keyed(
        self,
        keys: Sequence[ProfileKey],
        build: Callable[[list[int]], list[Profile]],
    ) -> tuple[np.ndarray, "CallCacheStats"]:
        """Feature rows for ``keys`` through the store, plus this call's own
        cache statistics — the one resolve entry of every transport.

        ``build(positions)`` returns the profiles at those key positions; it
        runs once, for the store's misses only, so a caller holding keys
        without profiles (a worker's columnar batch) builds just what it
        featurizes.  :meth:`_resolve_features` is the call over profiles in
        hand.

        Duplicate keys within one call are deduplicated before touching the
        featurizer, so each distinct profile is featurized exactly once
        even with a disabled cache.  The stats are local to the call (its
        hits, misses, featurized rows and the positions of those misses), so
        concurrent callers never leak into each other's accounting.

        Thread-safe: the store carries its own lock and the engine lock only
        guards counters; featurization of the misses runs outside both so
        concurrent callers overlap on the expensive part.  Two threads missing the same
        profile simultaneously both featurize it (both misses are counted,
        last insert wins) — wasted work, never corruption.  The featurizer's
        own memos are locked :class:`repro.store.HotStore` objects that race
        the same way.  :class:`repro.cluster.ShardedEngine` runs each shard's
        gathers on that shard's one thread to fan calls out across shards,
        not for safety.
        """

        def featurize(positions: list[int]) -> np.ndarray:
            profiles = build(positions)
            with get_tracer().stage(STAGE_FEATURIZE):
                rows = self.judge.featurize_profiles(profiles)
            with self._lock:
                self._featurized += len(positions)
            return rows  # views of one batch: the hot tier copies them on insert

        rows, missed, hits = resolve_rows(self.store, keys, featurize)
        with self._lock:
            call_invalidated = self._pending_invalidated
            self._pending_invalidated = 0
        return rows, CallCacheStats(
            hits=hits,
            misses=len(missed),
            featurized=len(missed),
            invalidated=call_invalidated,
            missed=missed,
        )

    def _resolve_features(self, profiles: list[Profile]) -> tuple[np.ndarray, "CallCacheStats"]:
        """:meth:`resolve_keyed` over profiles in hand (the core's ``gather``)."""
        return self.resolve_keyed(*_keyed(profiles))

    # ------------------------------------------------------------ invalidation
    def invalidate(self, uids: Iterable[int]) -> int:
        """Drop every cached feature row of the given users; returns rows dropped.

        The live-mutation hook: a user whose visit history changed outside
        the revision-stamped path (or whose old rows should be reclaimed
        eagerly) gets all resident rows — any timestamp, any revision, any
        tier — removed, so the next lookup re-featurizes.  Revision-exact
        keys already prevent *serving* a stale row; invalidation reclaims
        the space and keeps ``cache_info`` honest about live users.
        """
        dropped = self.store.invalidate(uids)
        with self._lock:
            self._pending_invalidated += dropped
        return dropped

    def invalidate_stale(self) -> int:
        """Drop resident rows superseded by a higher observed revision.

        Unrevisioned rows (profiles built outside the builders) are never
        dropped — they carry no ordering to judge staleness by.
        Returns the rows dropped.
        """
        dropped = self.store.invalidate_stale()
        with self._lock:
            self._pending_invalidated += dropped
        return dropped

    def warm(self, profiles: list[Profile]) -> int:
        """Pre-featurize profiles into the cache; returns rows featurized.

        A gather whose rows are dropped.  The count covers this call only —
        concurrent callers featurizing at the same time do not inflate it.
        """
        if not profiles or not self._feature_space:
            return 0
        return self._resolve_features(profiles)[1].featurized

    def cache_info(self) -> EngineCacheInfo:
        """The store's statistics plus the rows this engine featurized."""
        with self._lock:
            featurized = self._featurized
        return dataclasses.replace(self.store.stats(), featurized=featurized)

    def clear_cache(self) -> None:
        """Drop every cached feature row, all tiers (keeps the counters)."""
        self.store.clear()

    def close(self) -> None:
        """Flush and release the store's cold tier, if any (idempotent)."""
        self.store.close()

    # -------------------------------------------------------------- judgement
    def _score_batched(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # A single-pair chunk is padded with a duplicate row and the extra
        # score dropped, for the same reason as HisRectFeaturizer.featurize:
        # the B=1 BLAS path drifts ~1e-16 from the batched kernel, and scores
        # must not depend on how a workload was chunked or coalesced.
        chunks = []
        for start in range(0, len(left), self.batch_size):
            stop = start + self.batch_size
            chunk_left, chunk_right = left[start:stop], right[start:stop]
            if len(chunk_left) == 1:
                doubled = self.judge.score_feature_pairs(
                    np.concatenate([chunk_left, chunk_left]),
                    np.concatenate([chunk_right, chunk_right]),
                )
                chunks.append(np.asarray(doubled)[:1])
            else:
                chunks.append(self.judge.score_feature_pairs(chunk_left, chunk_right))
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability per pair (batched, feature-cached).

        Both sides resolve in one gather, so a profile appearing on both
        sides of the batch featurizes once even with ``cache_size=0``.
        """
        return self._core.predict_proba(pairs)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions per pair.

        Follows the judge's own decision rule — including non-threshold
        rules like Comp2Loc's argmax equality — unless the engine was given
        an explicit ``threshold``, which then cuts the probabilities.
        """
        return self._core.predict(pairs)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """The ``N x N`` pairwise probability matrix, featurizing each profile once."""
        return self._core.probability_matrix(profiles)

    def features(self, profiles: list[Profile]) -> np.ndarray:
        """Cached frozen feature rows for profiles (t-SNE, diagnostics)."""
        if not self._feature_space:
            raise ConfigurationError(
                "the wrapped judge has no feature-level interface (FeatureSpaceJudge)"
            )
        if not profiles:
            featurizer = getattr(self.judge, "featurizer", None)
            return np.zeros((0, featurizer_dim(featurizer)))
        return self._resolve_features(profiles)[0]

    # ---------------------------------------------------------- POI inference
    def infer_poi_proba(self, profiles: list[Profile]) -> np.ndarray:
        """POI probability distributions per profile (two-phase judges only)."""
        if not hasattr(self.judge, "infer_poi_proba"):
            raise ConfigurationError("the wrapped judge does not support POI inference")
        return self.judge.infer_poi_proba(profiles)

    def infer_poi(self, profiles: list[Profile]) -> list[int]:
        """Hard POI (pid) predictions per profile (two-phase judges only)."""
        if not hasattr(self.judge, "infer_poi"):
            raise ConfigurationError("the wrapped judge does not support POI inference")
        return self.judge.infer_poi(profiles)

    # ----------------------------------------------------------------- serving
    def serve(self, request: JudgeRequest) -> JudgeResponse:
        """Answer one typed judgement request.

        With no explicit threshold (neither on the request nor on the
        engine), decisions follow the judge's own rule — matching
        :meth:`predict`, including non-threshold rules like Comp2Loc's
        argmax equality.  An explicit threshold cuts the probabilities.
        """
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
            f"ColocationEngine(judge={type(self.judge).__name__}, "
            f"cache={info.size}/{info.maxsize}, hit_rate={info.hit_rate:.2f})"
        )


def _keyed(
    profiles: list[Profile],
) -> tuple[list[ProfileKey], Callable[[list[int]], list[Profile]]]:
    """The cache keys of ``profiles`` and a builder picking them by position."""
    return [profile_key(p) for p in profiles], lambda positions: [profiles[i] for i in positions]
