"""Tiered feature storage for the serving layer.

Serving an Eq. (1)–(2) co-location judgement is two phases: featurize the
(user, timestamp) profile, then score it.  Featurization dominates, so every
transport caches feature rows — and this package owns that cache as a
subsystem of its own, behind the :class:`FeatureStore` protocol, instead of
an ``OrderedDict`` inlined in the engine.

**Resolving.**  :func:`resolve_rows` is the one memo loop: the engine runs
it over its tiered store, the per-profile memos of :mod:`repro.features` and
:mod:`repro.colocation` over a plain :class:`HotStore` each.

**Tiering.**  :class:`HotStore` is the revision-indexed in-RAM LRU (the
engine's original cache, extracted).  :class:`ArenaStore` is the cold tier: a
float64 ``numpy.memmap`` arena of row slots on disk, bounded as a FIFO
ring.  :class:`TieredStore` composes them with a write-through policy — a put
lands in the arena (durable) and the LRU (fast) in one call; a hot-miss /
cold-hit *promotes* the row back into RAM; a hot-tier LRU eviction is a
*demotion* because the arena still holds the row, so falling out of RAM costs
a page-cache read later, not a re-featurization.  ``cold=None`` degenerates
to the single-tier LRU — the default when no arena directory is configured.

**Invalidation.**  Profile identity is revisioned
(:data:`repro.core.protocols.ProfileKey` carries the feature revision), so
both tiers keep a :class:`repro.core.protocols.RevisionedKeyIndex` and drop
rows in O(dropped): ``invalidate(uids)`` for explicit mutation,
``invalidate_stale()`` for rows superseded by a higher observed revision.
In the arena a drop is a *tombstone* — a ``del`` record frees the slot into a
recycle list; the bytes stay in the file but become unreachable.

**Arena on-disk format** (one directory per arena slice, one writer):

* ``header.json`` — ``{magic, version, dtype, dim, capacity}``, written
  atomically via temp-file + rename once the row dimensionality is known.
* ``arena.dat`` — the ``(capacity, dim)`` row memmap.
* ``index.log`` — append-only JSONL of ``put``/``del``/``clear`` records,
  flushed per line; replay tolerates a torn final line, so a process crash
  loses at most the unacknowledged tail.  ``close()`` compacts the log.

A respawned worker reopens its predecessor's slice (the engine's
``arena_dir=``) and serves the warm set without re-featurizing a single row
and without the rows ever crossing the wire.
"""

from repro.store.arena import ArenaStore
from repro.store.base import EngineCacheInfo, FeatureStore, resolve_rows
from repro.store.hot import HotStore
from repro.store.tiered import TieredStore

__all__ = [
    "ArenaStore",
    "EngineCacheInfo",
    "FeatureStore",
    "HotStore",
    "TieredStore",
    "resolve_rows",
]
