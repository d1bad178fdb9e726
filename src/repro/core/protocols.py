"""Structural protocols implemented by every co-location judge.

These are :class:`typing.Protocol` classes, so conformance is structural: the
HisRect judge, the One-phase model, Comp2Loc, the social judge, both
location-inference baselines and the pipeline itself all satisfy
:class:`CoLocationJudge` without inheriting from anything.  The protocols are
``runtime_checkable`` so ``isinstance(judge, CoLocationJudge)`` works as a
capability test in the serving layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.data.dataset import ColocationDataset
    from repro.data.records import Pair, Profile

#: The cache key identifying one profile's frozen HisRect feature vector:
#: ``(uid, ts, content, len(visit_history), revision)``.  ``revision`` is the
#: builder-stamped history revision (``-1`` for unstamped profiles).
ProfileKey = tuple[int, float, str, int, int]

#: Revision component of keys built from profiles without a stamped revision.
UNREVISIONED = -1

#: Profiles featurized per featurizer invocation.  Serving builds no autograd
#: graph, so this bounds the padded ``(B, T, M)`` word-vector batch and the
#: per-step recurrent state arrays of one forward pass.
FEATURIZE_CHUNK = 64


def featurizer_dim(featurizer, default: int = 0) -> int:
    """The feature dimensionality a featurizer-like object reports.

    Every featurizer exposes ``feature_dim``; older duck-typed stubs may
    offer only the historical ``dimension`` name.  Empty-batch shapes
    everywhere go through this one lookup so ``(0, D)`` is right for all of
    them.
    """
    dim = getattr(featurizer, "feature_dim", None)
    if dim is None:
        dim = getattr(featurizer, "dimension", default)
    return int(dim)


def featurize_in_chunks(featurizer, profiles: "list[Profile]", chunk: int = FEATURIZE_CHUNK) -> np.ndarray:
    """Run profiles through ``featurizer.featurize`` in bounded chunks.

    The shared implementation behind every judge's ``featurize_profiles``:
    identical chunking everywhere keeps feature rows bit-identical no matter
    which entry point computed them.  ``featurize`` runs each layer's batch
    definition on plain arrays and builds no autograd graph; the chunk bounds
    the padded ``(B, T, M)`` word-vector batch (``T`` is the chunk's longest
    tweet) and the per-step state arrays of one forward pass.

    Feature rows are independent of their chunk companions, including how far
    the chunk's longest tweet pads them, as long as ``featurize`` keeps a
    one-profile chunk off BLAS's ``B=1`` (gemv) kernels, whose rows drift
    ~1e-16 from the batched ones.  ``HisRectFeaturizer.featurize`` does so by
    featurizing a single profile as a pair with itself; for such a featurizer
    any partition of a workload into chunks — including the per-shard miss
    batches of :class:`repro.cluster.ShardedEngine` — yields bit-identical
    features.  This helper adds no padding of its own.
    """
    rows = [
        featurizer.featurize(profiles[start : start + chunk])
        for start in range(0, len(profiles), chunk)
    ]
    return np.concatenate(rows) if rows else np.zeros((0, featurizer_dim(featurizer)))


def shared_poi_probability_matrix(poi_proba: np.ndarray) -> np.ndarray:
    """Pairwise shared-POI probability matrix from per-profile POI distributions.

    ``poi_proba`` is the ``(N, |P|)`` matrix of POI score distributions; the
    pair score is ``sum_k p_i[k] * p_j[k]`` (the probability both profiles
    sit at the same POI), i.e. ``P P^T`` with a unit diagonal.  Mirrors the
    judge convention: zeros for fewer than two profiles.
    """
    n = len(poi_proba)
    if n < 2:
        return np.zeros((n, n))
    matrix = poi_proba @ poi_proba.T
    np.fill_diagonal(matrix, 1.0)
    return matrix


def profile_key(profile: "Profile") -> ProfileKey:
    """The feature-cache key: ``(uid, ts, content, len(visit_history), revision)``.

    The history length distinguishes profiles emitted at the same timestamp
    with the same tweet but a grown visit history (duplicate stream delivery
    appends the visit between emissions).  Length alone is not identity,
    though: a full ``maxlen`` deque that drops its oldest visit and appends a
    new one produces a *different* feature vector at an unchanged length, so
    the key also carries the builder-stamped monotonic ``Profile.revision``
    (``UNREVISIONED`` = -1 when the profile was built outside the builders and
    falls back to length-based identity).  Profiles sharing this key
    featurize identically.  ``uid`` stays the first element — shard routing
    (:func:`repro.cluster.shard_index`) keys on ``key[0]``.
    """
    revision = UNREVISIONED if profile.revision is None else int(profile.revision)
    return (profile.uid, profile.ts, profile.content, len(profile.visit_history), revision)


def superseded_keys(keys: "Iterable[ProfileKey]") -> set[ProfileKey]:
    """The stale subset of ``keys``: revisioned keys below their uid's maximum.

    Unrevisioned keys (revision ``UNREVISIONED``) are never considered stale —
    they carry no ordering information.  Shared by every cache that needs an
    ``invalidate_stale`` sweep (engine rows, the worker pool's retained
    snapshot rows).
    """
    latest: dict[int, int] = {}
    materialized = list(keys)
    for key in materialized:
        revision = key[4]
        if revision >= 0 and revision > latest.get(key[0], UNREVISIONED):
            latest[key[0]] = revision
    return {
        key
        for key in materialized
        if 0 <= key[4] < latest.get(key[0], UNREVISIONED)
    }


class RevisionedKeyIndex:
    """Per-uid index over resident :data:`ProfileKey` cache keys.

    The stores (:class:`repro.store.HotStore`, :class:`repro.store.ArenaStore`),
    and with them every per-profile memo, keep one of these so invalidation is
    O(rows dropped), not O(cache): ``keys_of`` answers ``invalidate(uids)``
    and ``stale_keys`` answers ``invalidate_stale()``.  Registration never
    drops anything by itself — with revision-exact keys every resident row
    is correct for its own key, and older generations stay legitimately
    queryable (timeline replay, a sliding window's not-yet-expired
    profiles); reclaiming them is the caller's explicit decision.
    Not thread-safe — callers mutate it under their own cache lock.
    """

    def __init__(self) -> None:
        self._by_uid: dict[int, set[ProfileKey]] = {}
        self._latest: dict[int, int] = {}

    def register(self, key: ProfileKey) -> None:
        """Index a newly inserted key (and advance its uid's revision watermark)."""
        uid, revision = key[0], key[4]
        self._by_uid.setdefault(uid, set()).add(key)
        if revision > self._latest.get(uid, UNREVISIONED):
            self._latest[uid] = revision

    def discard(self, key: ProfileKey) -> None:
        """Drop a key from the index (cache eviction or invalidation)."""
        resident = self._by_uid.get(key[0])
        if resident is not None:
            resident.discard(key)
            if not resident:
                del self._by_uid[key[0]]

    def keys_of(self, uids: "Iterable[int]") -> list[ProfileKey]:
        """All resident keys belonging to the given uids."""
        out: list[ProfileKey] = []
        for uid in uids:
            out.extend(self._by_uid.get(int(uid), ()))
        return out

    def stale_keys(self) -> list[ProfileKey]:
        """Resident revisioned keys superseded by a higher observed revision."""
        out: list[ProfileKey] = []
        for uid, resident in self._by_uid.items():
            latest = self._latest.get(uid, UNREVISIONED)
            out.extend(k for k in resident if 0 <= k[4] < latest)
        return out

    def clear(self) -> None:
        """Forget every resident key (revision watermarks survive)."""
        self._by_uid.clear()


@runtime_checkable
class CoLocationJudge(Protocol):
    """What every judge-like model exposes once fitted."""

    def predict_proba(self, pairs: "list[Pair]") -> np.ndarray:
        """Co-location probability per pair, shape ``(len(pairs),)``."""
        ...

    def predict(self, pairs: "list[Pair]") -> np.ndarray:
        """Binary co-location decisions per pair."""
        ...

    def probability_matrix(self, profiles: "list[Profile]") -> np.ndarray:
        """Pairwise co-location probability matrix, shape ``(N, N)``."""
        ...


@runtime_checkable
class FeatureSpaceJudge(Protocol):
    """A judge that separates featurization from pair scoring.

    The :class:`repro.api.ColocationEngine` uses this interface to memoise
    per-profile features in an LRU cache and score pairs directly from cached
    feature rows, so repeated windows never re-featurize the same profile.
    """

    def featurize_profiles(self, profiles: "list[Profile]") -> np.ndarray:
        """Frozen feature rows for profiles, shape ``(B, D)``; no caching."""
        ...

    def score_feature_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Co-location probabilities from two aligned feature matrices."""
        ...


@runtime_checkable
class TrainableApproach(Protocol):
    """An unfitted approach that trains itself on a whole dataset.

    This is what ``repro.registry.build("judge", name, config)`` returns:
    calling :meth:`fit` with a :class:`repro.data.dataset.ColocationDataset`
    yields an object satisfying :class:`CoLocationJudge`.
    """

    def fit(self, dataset: "ColocationDataset") -> "TrainableApproach":
        """Train on the dataset's training split; returns self."""
        ...


def upper_triangle_pairs(n: int) -> list[tuple[int, int]]:
    """The ``(i, j)`` index pairs of the strict upper triangle, row-major."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def symmetric_probability_matrix(
    n: int, index_pairs: list[tuple[int, int]], probabilities: np.ndarray
) -> np.ndarray:
    """Assemble the judge-convention ``N x N`` matrix from per-pair scores.

    Symmetric, unit diagonal for two or more profiles, zeros otherwise — the
    single implementation behind every ``probability_matrix``.
    """
    matrix = np.zeros((n, n))
    if n < 2:
        return matrix
    for (i, j), probability in zip(index_pairs, probabilities):
        matrix[i, j] = matrix[j, i] = probability
    np.fill_diagonal(matrix, 1.0)
    return matrix


def pairwise_probability_matrix(judge: CoLocationJudge, profiles: "list[Profile]") -> np.ndarray:
    """Generic ``N x N`` probability matrix built from ``predict_proba``.

    Judges without a feature-level shortcut (the social judge, pair-wise
    baselines) fall back to scoring every unordered profile pair.
    """
    from repro.data.records import Pair

    n = len(profiles)
    if n < 2:
        return np.zeros((n, n))
    index_pairs = upper_triangle_pairs(n)
    pairs = [Pair(left=profiles[i], right=profiles[j], co_label=None) for i, j in index_pairs]
    probabilities = np.asarray(judge.predict_proba(pairs), dtype=float)
    return symmetric_probability_matrix(n, index_pairs, probabilities)
