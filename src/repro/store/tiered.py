""":class:`TieredStore` — hot LRU over a cold memmap arena.

The composition the serving transports actually run: every lookup tries the
in-RAM :class:`repro.store.HotStore` first, falls through to the
:class:`repro.store.ArenaStore`, and a cold hit *promotes* the row back into
RAM.  Writes are write-through — a freshly featurized row lands in the arena
immediately, so the durable tier is complete even if the process dies the
next instant (this is what makes crash-respawn warm starts featurize-free).
Hot-tier LRU evictions become *demotions*: because the arena already holds
the row, eviction only sheds the RAM copy and the row stays servable at
cold-read cost instead of re-featurization cost.

With ``cold=None`` the tiered store degenerates to the plain hot LRU — the
default for every transport when no arena directory is configured, with
byte-identical semantics to the pre-store engine cache.  Once the arena is
closed, writes, demotions, drops and clears skip it, lookups, membership
and ``cold_size`` no longer see its rows, and the hot tier keeps serving
on its own.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Iterable

import numpy as np

from repro.core.protocols import ProfileKey
from repro.obs import (
    EVENT_COLD_HIT,
    EVENT_DEMOTE,
    EVENT_HOT_HIT,
    EVENT_PROMOTE,
    get_tracer,
)
from repro.store.arena import ArenaStore
from repro.store.base import EngineCacheInfo, check_profile_keys
from repro.store.hot import HotStore


class TieredStore:
    """Two-tier feature store: RAM LRU in front, memmap arena behind.

    Parameters
    ----------
    hot:
        The in-RAM tier.  This store installs its eviction hook
        (evictions turn into demotion accounting).
    cold:
        Optional arena tier; ``None`` leaves a single-tier LRU.
    """

    def __init__(self, hot: HotStore, cold: ArenaStore | None = None):
        self._hot = hot
        self._cold = cold
        self._hot._on_evict = self._demote
        self._counters = threading.Lock()
        self._cold_hits = 0
        self._promotions = 0
        self._demotions = 0
        self._invalidated = 0

    @property
    def capacity(self) -> int:
        return self._hot.capacity

    @property
    def hot(self) -> HotStore:
        return self._hot

    @property
    def cold(self) -> ArenaStore | None:
        return self._cold

    def _cold_open(self) -> bool:
        return self._cold is not None and not self._cold.closed

    # ----------------------------------------------------------------- lookups
    def get(self, key: ProfileKey) -> np.ndarray | None:
        # Tier-event latencies (hot_hit / cold_hit / promote) go to the
        # metrics registry only when tracing is enabled; disabled, the
        # lookup path pays a single attribute read.
        tracer = get_tracer()
        timed = tracer.enabled
        lookup_started = tracer.clock() if timed else 0.0
        row = self._hot.get(key)
        if row is not None:
            if timed:
                tracer.record_event(
                    EVENT_HOT_HIT, (tracer.clock() - lookup_started) * 1e3
                )
            return row
        if not self._cold_open():
            return None
        # The arena copies under its own lock (a recycled slot must not tear
        # into the returned row); the hot tier then owns that stable copy.
        row = self._cold.get(key)
        if row is None:
            return None
        if timed:
            tracer.record_event(EVENT_COLD_HIT, (tracer.clock() - lookup_started) * 1e3)
        promoted = False
        if self._hot.capacity > 0:
            promote_started = tracer.clock() if timed else 0.0
            self._hot.put(key, row)
            if timed:
                tracer.record_event(
                    EVENT_PROMOTE, (tracer.clock() - promote_started) * 1e3
                )
            promoted = True
        with self._counters:
            self._cold_hits += 1
            if promoted:
                self._promotions += 1
        return row

    def put(self, key: ProfileKey, row: np.ndarray, *, copy: bool = False) -> None:
        # Write-through: the arena copies into the mapped file, making the
        # row durable before the RAM tier ever sees it.
        if self._cold_open():
            self._cold.put(key, row)
        self._hot.put(key, row, copy=copy)

    def _demote(self, key: ProfileKey, row: np.ndarray) -> None:
        """Hot-tier eviction hook: keep the row reachable in the arena."""
        if not self._cold_open():
            return
        tracer = get_tracer()
        timed = tracer.enabled
        started = tracer.clock() if timed else 0.0
        if key not in self._cold:
            self._cold.put(key, row)
        if timed:
            tracer.record_event(EVENT_DEMOTE, (tracer.clock() - started) * 1e3)
        with self._counters:
            self._demotions += 1

    def __len__(self) -> int:
        return len(self._hot)

    def __contains__(self, key: ProfileKey) -> bool:
        return key in self._hot or (self._cold_open() and key in self._cold)

    # ------------------------------------------------------------ invalidation
    def invalidate(self, uids: Iterable[int]) -> int:
        uids = list(uids)
        return self._drop(lambda tier: tier.keys_of(uids))

    def invalidate_stale(self) -> int:
        return self._drop(lambda tier: tier.stale_keys())

    def _drop(self, doomed_in: Callable[[HotStore | ArenaStore], list[ProfileKey]]) -> int:
        """Drop the keys either tier dooms from both tiers; returns distinct keys dropped.

        The tiers can disagree: a reopened arena rebuilds its revision
        watermarks from its log while the new hot tier starts with none, so
        a row promoted after a reopen can be stale only by the arena's mark.
        """
        tiers = [self._hot, self._cold] if self._cold_open() else [self._hot]
        doomed = {key for tier in tiers for key in doomed_in(tier)}
        dropped = {key for tier in tiers for key in tier.drop_keys(doomed)}
        with self._counters:
            self._invalidated += len(dropped)
        return len(dropped)

    def clear(self) -> None:
        self._hot.clear()
        if self._cold_open():
            self._cold.clear()

    # -------------------------------------------------------- snapshot/restore
    def export(self) -> dict[ProfileKey, np.ndarray]:
        """Copy the hot tier's rows (the wire snapshot stays RAM-sized)."""
        return self._hot.export()

    def import_rows(self, rows: dict[ProfileKey, np.ndarray]) -> int:
        check_profile_keys(rows)
        for key, row in rows.items():
            self.put(key, row, copy=True)
        return sum(1 for key in rows if key in self)

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the cold tier's mapping (hot rows stay usable)."""
        if self._cold is not None:
            self._cold.close()

    # --------------------------------------------------------------- telemetry
    def stats(self) -> EngineCacheInfo:
        # Every lookup first misses or hits the hot tier, so a cold hit is a
        # hot miss the arena answered: misses = hot misses - cold hits, and
        # get() takes no extra lock to count them.  The tier counters are
        # read before the hot tier's, so each cold hit seen here already has
        # its hot miss counted and misses never dip below zero.
        with self._counters:
            cold_hits, promotions, demotions, invalidated = (
                self._cold_hits,
                self._promotions,
                self._demotions,
                self._invalidated,
            )
        hot = self._hot.stats()
        cold_size = len(self._cold) if self._cold_open() else 0
        return dataclasses.replace(
            hot,
            hits=hot.hits + cold_hits,
            misses=hot.misses - cold_hits,
            invalidated=invalidated,
            cold_hits=cold_hits,
            promotions=promotions,
            demotions=demotions,
            cold_size=cold_size,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cold = f", cold={len(self._cold)}" if self._cold is not None else ""
        return f"TieredStore(hot={len(self._hot)}/{self._hot.capacity}{cold})"
