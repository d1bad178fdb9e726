""":class:`HotStore` — the revision-indexed in-RAM LRU tier.

This is the feature cache that used to live inlined in
:class:`repro.api.ColocationEngine`: a bounded :class:`OrderedDict` LRU over
:data:`repro.core.protocols.ProfileKey` rows plus a
:class:`repro.core.protocols.RevisionedKeyIndex` so ``invalidate(uids)`` /
``invalidate_stale()`` run in O(rows dropped), not O(cache).  Extracted so
the engine depends only on the :class:`repro.store.FeatureStore` contract and
the LRU can sit as the hot tier of a :class:`repro.store.TieredStore`.

The eviction hook is the tiering seam: a :class:`repro.store.TieredStore`
installs its demotion callback as ``_on_evict``, so rows leaving RAM land in
the cold arena instead of being dropped.  With ``capacity=0`` the store
caches nothing and ``put`` is a no-op (the tiered store still
write-throughs to its cold tier itself).
It is also the memo type of the featurizers and judges, which are
deep-copied per shard and pickled into worker bundles, so a store copies.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from copy import deepcopy
from typing import Callable, Iterable

import numpy as np

from repro.core.protocols import ProfileKey, RevisionedKeyIndex
from repro.errors import ConfigurationError
from repro.store.base import EngineCacheInfo, check_profile_keys


class HotStore:
    """Bounded, thread-safe, revision-indexed LRU over feature rows.

    Parameters
    ----------
    capacity:
        Maximum rows resident; ``0`` disables the tier (puts are dropped).
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigurationError("capacity must be >= 0")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._rows: OrderedDict[ProfileKey, np.ndarray] = OrderedDict()  # guarded-by: _lock
        self._index = RevisionedKeyIndex()  # guarded-by: _lock
        #: Called with ``(key, row)`` for every row the LRU bound pushes out,
        #: under the store lock, so it must not call back into this store.
        self._on_evict: Callable[[ProfileKey, np.ndarray], None] | None = None
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._invalidated = 0  # guarded-by: _lock

    # ----------------------------------------------------------------- lookups
    def get(self, key: ProfileKey) -> np.ndarray | None:
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                self._misses += 1
            else:
                self._rows.move_to_end(key)
                self._hits += 1
            return row

    def put(self, key: ProfileKey, row: np.ndarray, *, copy: bool = False) -> None:
        """Install a row, taking ownership (``copy=True`` for borrowed rows).

        Views are always copied, even with ``copy=False``: a view keeps its
        whole base array alive, so caching one row of a featurized ``(B, D)``
        batch would pin the entire batch in RAM and ``capacity`` would no
        longer bound this tier's memory.  Only a standalone array (no base)
        is taken by reference.

        Insertion never drops other revisions of the same user: with
        revision-exact keys every resident row is correct for its own key,
        and older generations stay legitimately queryable (timeline replay,
        a sliding window's not-yet-expired profiles).  Reclaiming dead
        revisions is the caller's explicit decision — :meth:`invalidate` /
        :meth:`invalidate_stale` — not an insert side effect.
        """
        if self.capacity == 0:
            return
        row = np.asarray(row)
        if copy or row.base is not None:
            row = np.array(row, copy=True)
        with self._lock:
            self._rows[key] = row
            self._rows.move_to_end(key)
            self._index.register(key)
            while len(self._rows) > self.capacity:
                evicted_key, evicted_row = self._rows.popitem(last=False)
                self._index.discard(evicted_key)
                self._evictions += 1
                if self._on_evict is not None:
                    self._on_evict(evicted_key, evicted_row)

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def __contains__(self, key: ProfileKey) -> bool:
        with self._lock:
            return key in self._rows

    # ------------------------------------------------------------ invalidation
    def drop_keys(self, keys: Iterable[ProfileKey]) -> list[ProfileKey]:
        """Drop the given keys; returns those that were actually resident."""
        dropped = []
        with self._lock:
            for key in keys:
                if self._rows.pop(key, None) is not None:
                    dropped.append(key)
                self._index.discard(key)
        return dropped

    def invalidate(self, uids: Iterable[int]) -> int:
        with self._lock:
            dropped = len(self.drop_keys(self._index.keys_of(uids)))
            self._invalidated += dropped
            return dropped

    def invalidate_stale(self) -> int:
        with self._lock:
            dropped = len(self.drop_keys(self._index.stale_keys()))
            self._invalidated += dropped
            return dropped

    def keys_of(self, uids: Iterable[int]) -> list[ProfileKey]:
        """Resident keys of the given users (invalidation planning)."""
        with self._lock:
            return self._index.keys_of(uids)

    def stale_keys(self) -> list[ProfileKey]:
        """Resident keys superseded by a higher observed revision."""
        with self._lock:
            return self._index.stale_keys()

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()
            self._index.clear()

    # -------------------------------------------------------- snapshot/restore
    def export(self) -> dict[ProfileKey, np.ndarray]:
        """Copy the resident rows, LRU order preserved (coldest first)."""
        with self._lock:
            return {key: np.array(row, copy=True) for key, row in self._rows.items()}

    def import_rows(self, rows: dict[ProfileKey, np.ndarray]) -> int:
        """Install borrowed rows (copied); returns imported keys still resident."""
        check_profile_keys(rows)
        if self.capacity == 0:
            return 0
        with self._lock:
            for key, row in rows.items():
                self.put(key, row, copy=True)
            return sum(1 for key in rows if key in self._rows)

    # ------------------------------------------------------------ copy/pickle
    def __getstate__(self) -> dict:
        """Everything but the lock, the row table and index taken under it.

        ``deepcopy`` and ``pickle`` both go through this: a copy has the same
        rows in the same LRU order, watermarks and counters, and a fresh lock.
        """
        with self._lock:
            state = dict(vars(self))
            state["_rows"] = OrderedDict(self._rows)
            state["_index"] = deepcopy(self._index)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._lock = threading.RLock()

    # --------------------------------------------------------------- telemetry
    def stats(self) -> EngineCacheInfo:
        with self._lock:
            return EngineCacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._rows),
                maxsize=self.capacity,
                invalidated=self._invalidated,
                hot_hits=self._hits,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HotStore(size={len(self)}/{self.capacity})"
