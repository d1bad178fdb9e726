"""The feature-store contract: what a serving cache must do, tier-agnostic.

:class:`FeatureStore` is the structural protocol every serving transport's
feature cache satisfies — the single hot-tier LRU (:class:`repro.store.HotStore`),
the memmap arena cold tier (:class:`repro.store.ArenaStore`), and the
:class:`repro.store.TieredStore` that composes them.  The
:class:`repro.api.ColocationEngine` talks only to this contract, so swapping
the cache layout (bigger-than-RAM cold tiers, future remote tiers) never
touches the judgement path.

Ownership rule: ``put(key, row)`` *moves* the row into the store — callers
that just allocated the row (the engine inserting the batch it featurized)
hand it over without a defensive copy; callers holding borrowed rows
(``import_rows`` restoring another engine's export, wire restores) pass
``copy=True``.  ``get`` returns rows the caller must treat as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.protocols import ProfileKey
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class EngineCacheInfo:
    """One consistent snapshot of a feature cache's traffic and occupancy.

    The single cache-statistics type: stores fill in the counts of the
    operations they perform (lookups, evictions, tier moves, invalidation
    drops), the engine adds ``featurized`` (no store sees featurization),
    and partitioned transports :meth:`merge` per-shard snapshots.

    ``size``/``maxsize`` describe the hot (in-RAM) tier while ``cold_size``
    counts live rows in the cold arena.  ``hits`` = ``hot_hits`` +
    ``cold_hits`` split lookup traffic by the tier that answered;
    ``promotions`` are cold rows copied into the hot tier on a
    hot-miss/cold-hit, ``demotions`` are hot-tier evictions whose row stayed
    reachable in the cold tier instead of being dropped.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0
    #: Total profile rows pushed through the featurizer so far.
    featurized: int = 0
    #: Rows dropped by explicit ``invalidate``/``invalidate_stale`` calls.
    invalidated: int = 0
    hot_hits: int = 0
    cold_hits: int = 0
    promotions: int = 0
    demotions: int = 0
    #: Live rows in the cold arena tier (0 without one).
    cold_size: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def merge(cls, infos: Iterable["EngineCacheInfo"]) -> "EngineCacheInfo":
        """Aggregate shard-level snapshots into one cluster-level snapshot.

        Every field sums (counters, sizes and capacities alike); ``hit_rate``
        derives from the summed counters.  An empty iterable merges to the
        all-zero snapshot.
        """
        totals = dict.fromkeys((f.name for f in fields(cls)), 0)
        for info in infos:
            for name in totals:
                totals[name] += getattr(info, name)
        return cls(**totals)


@runtime_checkable
class FeatureStore(Protocol):
    """What the serving layer requires of a feature-row cache.

    Implementations are thread-safe: the engine featurizes outside any lock
    and concurrent callers race benignly (both featurize a shared miss, last
    insert wins), so every store method must tolerate interleaved calls.
    """

    #: Hot-tier row bound (0 disables in-RAM caching).
    capacity: int

    def get(self, key: ProfileKey) -> np.ndarray | None:
        """The row cached under ``key`` (any tier), or ``None``.  Treat as read-only."""
        ...

    def put(self, key: ProfileKey, row: np.ndarray, *, copy: bool = False) -> None:
        """Install a row, taking ownership; ``copy=True`` for borrowed rows."""
        ...

    def invalidate(self, uids: Iterable[int]) -> int:
        """Drop every row of the given users, all tiers; returns keys dropped."""
        ...

    def invalidate_stale(self) -> int:
        """Drop rows superseded by a higher observed revision; returns keys dropped."""
        ...

    def clear(self) -> None:
        """Drop every resident row (counters survive)."""
        ...

    def export(self) -> dict[ProfileKey, np.ndarray]:
        """Copy the hot tier's rows, LRU order preserved (coldest first)."""
        ...

    def import_rows(self, rows: dict[ProfileKey, np.ndarray]) -> int:
        """Install borrowed rows (always copied); returns keys still resident."""
        ...

    def stats(self) -> EngineCacheInfo:
        """Current tier traffic and occupancy (``featurized`` stays 0)."""
        ...

    def __len__(self) -> int:
        """Hot-tier rows resident."""
        ...

    def __contains__(self, key: ProfileKey) -> bool:
        """Whether ``key`` is resident in any tier."""
        ...


def check_profile_keys(keys: Iterable[ProfileKey]) -> None:
    """Raise :class:`ConfigurationError` unless every key is a 5-tuple ``ProfileKey``.

    The restore entry points call this before installing anything, so a
    malformed snapshot leaves no row behind that the revision index never saw.
    """
    for key in keys:
        if not isinstance(key, tuple) or len(key) != 5:
            raise ConfigurationError(
                f"a profile key is (uid, ts, content, history_len, revision), got {key!r}"
            )


def resolve_rows(
    store: FeatureStore,
    keys: Sequence[ProfileKey],
    compute: Callable[[list[int]], Sequence[np.ndarray]],
) -> tuple[np.ndarray, tuple[int, ...], int]:
    """The stacked rows of non-empty ``keys``, the miss positions and the hit count.

    One ``store.get`` per distinct key, one ``compute`` call with the
    positions of the misses' first occurrences (it returns their rows in
    that order), one ``store.put`` per miss.  Computed rows are stacked
    directly, so a batch larger than the store's capacity is still whole.
    """
    resolved: dict = {}
    missing: dict = {}
    for position, key in enumerate(keys):
        if key in resolved or key in missing:
            continue
        row = store.get(key)
        if row is None:
            missing[key] = position
        else:
            resolved[key] = row
    hits = len(resolved)
    if missing:
        for key, row in zip(missing, compute(list(missing.values()))):
            resolved[key] = row
            store.put(key, row)
    return np.stack([resolved[key] for key in keys]), tuple(missing.values()), hits
