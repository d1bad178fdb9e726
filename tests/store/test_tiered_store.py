"""Tests for the tiered store: promotion, demotion, write-through, concurrency."""

import threading

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.store import ArenaStore, FeatureStore, HotStore, TieredStore


def key(uid, rev=0, ts=0.0):
    return (uid, float(ts), "content", 1, rev)


def row(value, dim=4):
    return np.full(dim, float(value))


@pytest.fixture()
def tiered(tmp_path):
    return TieredStore(HotStore(4), ArenaStore(tmp_path, capacity=64))


def test_satisfies_the_protocol(tiered):
    assert isinstance(tiered, FeatureStore)


def test_degenerates_to_plain_lru_without_a_cold_tier():
    store = TieredStore(HotStore(2))
    store.put(key(1), row(1.0))
    store.put(key(2), row(2.0))
    store.put(key(3), row(3.0))  # evicts key 1 — and there is nowhere to demote
    assert store.get(key(1)) is None
    stats = store.stats()
    assert stats.evictions == 1
    assert stats.demotions == 0 and stats.cold_size == 0


def test_put_writes_through_to_the_cold_tier(tiered):
    tiered.put(key(1), row(1.0))
    assert key(1) in tiered.cold  # durable immediately, not only on eviction
    assert len(tiered.hot) == 1
    assert tiered.stats().cold_size == 1


def test_cold_hit_promotes_back_into_ram(tiered):
    tiered.put(key(1), row(1.0))
    tiered.hot.clear()  # simulate the RAM tier restarting empty
    got = tiered.get(key(1))
    assert np.array_equal(got, row(1.0))
    stats = tiered.stats()
    assert stats.cold_hits == 1 and stats.promotions == 1
    assert key(1) in tiered.hot  # resident again: the next get is a hot hit
    tiered.get(key(1))
    assert tiered.stats().hot_hits == 1


def test_promoted_rows_are_copies_not_arena_views(tiered):
    tiered.put(key(1), row(1.0))
    tiered.hot.clear()
    promoted = tiered.get(key(1))
    tiered.cold.put(key(1), row(9.0))  # overwrite the slot in place
    assert np.array_equal(promoted, row(1.0))


def test_eviction_demotes_instead_of_dropping(tmp_path):
    tiered = TieredStore(HotStore(2), ArenaStore(tmp_path))
    for uid in range(3):
        tiered.put(key(uid), row(uid))
    stats = tiered.stats()
    assert stats.evictions == 1 and stats.demotions == 1
    assert key(0) not in tiered.hot
    assert np.array_equal(tiered.get(key(0)), row(0))  # cold-served, then promoted


def test_capacity_zero_hot_tier_still_serves_from_cold(tmp_path):
    tiered = TieredStore(HotStore(0), ArenaStore(tmp_path))
    tiered.put(key(1), row(1.0))
    assert len(tiered.hot) == 0
    assert np.array_equal(tiered.get(key(1)), row(1.0))
    stats = tiered.stats()
    assert stats.cold_hits == 1 and stats.promotions == 0  # nowhere to promote


def test_invalidate_counts_distinct_keys_across_tiers(tiered):
    tiered.put(key(1, rev=0), row(1.0))
    tiered.put(key(1, rev=1, ts=5.0), row(1.5))
    tiered.put(key(2), row(2.0))
    # key(1, rev=0) lives in both tiers: it must count once, not twice.
    assert tiered.invalidate([1]) == 2
    assert key(1, rev=0) not in tiered
    assert tiered.get(key(1, rev=0)) is None  # the cold copy is gone too
    assert key(2) in tiered


def test_invalidate_stale_sweeps_both_tiers(tiered):
    tiered.put(key(1, rev=1), row(1.0))
    tiered.put(key(1, rev=2, ts=9.0), row(2.0))
    assert tiered.invalidate_stale() == 1
    assert tiered.get(key(1, rev=1)) is None
    assert key(1, rev=2, ts=9.0) in tiered


def test_stale_sweep_after_reopen_reaches_rows_promoted_into_ram(tmp_path):
    """A reopened arena's watermark can run ahead of the fresh hot tier's:
    a row stale only by the arena's mark must still leave RAM."""
    first = TieredStore(HotStore(2), ArenaStore(tmp_path))
    first.put(key(1, rev=0), row(0.0))
    first.put(key(1, rev=2, ts=9.0), row(2.0))
    first.close()
    reopened = TieredStore(HotStore(2), ArenaStore(tmp_path))
    assert np.array_equal(reopened.get(key(1, rev=0)), row(0.0))  # promoted
    assert reopened.invalidate_stale() == 1
    assert reopened.get(key(1, rev=0)) is None
    assert key(1, rev=0) not in reopened
    assert np.array_equal(reopened.get(key(1, rev=2, ts=9.0)), row(2.0))


def test_a_closed_cold_tier_is_skipped_without_raising(tmp_path):
    tiered = TieredStore(HotStore(1), ArenaStore(tmp_path))
    tiered.put(key(1), row(1.0))
    tiered.close()
    tiered.put(key(2), row(2.0))  # no write-through; evicting key 1 demotes nothing
    assert np.array_equal(tiered.get(key(2)), row(2.0))  # the hot tier still serves
    assert tiered.get(key(1)) is None
    assert tiered.invalidate([2]) == 1
    assert tiered.invalidate_stale() == 0
    tiered.clear()
    assert tiered.stats().demotions == 0
    with pytest.raises(ConfigurationError):
        tiered.cold.put(key(3), row(3.0))  # the arena itself refuses
    assert ArenaStore(tmp_path).keys() == [key(1)]  # nothing reached the disk after close


def test_a_closed_cold_tier_reports_no_rows_it_cannot_serve(tmp_path):
    tiered = TieredStore(HotStore(0), ArenaStore(tmp_path))
    tiered.put(key(1), row(1.0))
    assert key(1) in tiered and tiered.stats().cold_size == 1
    tiered.close()
    assert tiered.get(key(1)) is None
    assert key(1) not in tiered
    assert tiered.stats().cold_size == 0


def test_export_is_hot_tier_sized(tiered):
    for uid in range(6):  # 6 puts through a 4-row hot tier
        tiered.put(key(uid), row(uid))
    assert len(tiered.export()) == 4
    assert tiered.stats().cold_size == 6


def test_import_rows_lands_in_both_tiers(tiered):
    assert tiered.import_rows({key(uid): row(uid) for uid in range(6)}) == 6
    assert len(tiered.hot) == 4
    assert len(tiered.cold) == 6  # the overflow is cold-served, not lost


def test_clear_empties_both_tiers(tiered):
    tiered.put(key(1), row(1.0))
    tiered.clear()
    assert len(tiered.hot) == 0 and len(tiered.cold) == 0
    assert tiered.get(key(1)) is None


def test_eight_thread_mixed_traffic_stays_consistent(tmp_path):
    """8 threads of interleaved get/put/invalidate leave no torn state.

    Every row is ``full(dim, uid)``, so any successfully read row must be
    internally uniform and match its key — a torn read, cross-key mix-up, or
    slot aliasing would break that invariant immediately.
    """
    tiered = TieredStore(HotStore(32), ArenaStore(tmp_path, capacity=256))
    uids = list(range(24))
    errors = []
    barrier = threading.Barrier(8)

    def worker(seed):
        rng = np.random.default_rng(seed)
        barrier.wait()
        try:
            for step in range(300):
                uid = int(rng.choice(uids))
                action = step % 3
                if action == 0:
                    tiered.put(key(uid), np.full(4, float(uid)))
                elif action == 1:
                    got = tiered.get(key(uid))
                    if got is not None:
                        copied = np.array(got)
                        if not np.all(copied == float(uid)):
                            errors.append((uid, copied))
                else:
                    tiered.invalidate([uid])
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[:3]

    # And the store is still fully functional afterwards.
    tiered.put(key(999), row(7.0))
    assert np.array_equal(tiered.get(key(999)), row(7.0))
    stats = tiered.stats()
    assert stats.size == len(tiered.hot)
    assert stats.cold_size == len(tiered.cold)
