"""Tests for the hot (in-RAM LRU) feature-store tier."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.store import EngineCacheInfo, FeatureStore, HotStore


def key(uid, rev=0, ts=0.0):
    return (uid, float(ts), "content", 1, rev)


def row(value, dim=4):
    return np.full(dim, float(value))


def test_satisfies_the_protocol():
    assert isinstance(HotStore(4), FeatureStore)


def test_rejects_negative_capacity():
    with pytest.raises(ConfigurationError):
        HotStore(-1)


def test_get_put_round_trip_and_hit_accounting():
    store = HotStore(4)
    assert store.get(key(1)) is None
    store.put(key(1), row(1.0))
    assert np.array_equal(store.get(key(1)), row(1.0))
    stats = store.stats()
    assert stats == EngineCacheInfo(hits=1, misses=1, size=1, maxsize=4, hot_hits=1)


def test_put_takes_ownership_without_copy_by_default():
    store = HotStore(4)
    owned = row(1.0)
    store.put(key(1), owned)
    assert store.get(key(1)) is owned


def test_put_copies_views_so_one_row_never_pins_its_base_batch():
    store = HotStore(4)
    batch = np.arange(12.0).reshape(3, 4)  # a featurized (B, D) batch
    store.put(key(1), batch[0])
    cached = store.get(key(1))
    assert cached.base is None  # no reference into the batch keeps it alive
    batch[0] = -1.0
    assert np.array_equal(cached, np.arange(4.0))


def test_put_copy_true_defends_against_borrowed_rows():
    store = HotStore(4)
    borrowed = row(1.0)
    store.put(key(1), borrowed, copy=True)
    borrowed[:] = -1.0
    assert np.array_equal(store.get(key(1)), row(1.0))


def test_lru_eviction_drops_coldest_first():
    evicted = []
    store = HotStore(2)
    store._on_evict = lambda k, r: evicted.append(k)  # as TieredStore installs it
    store.put(key(1), row(1.0))
    store.put(key(2), row(2.0))
    store.get(key(1))  # refresh: key 2 becomes the coldest
    store.put(key(3), row(3.0))
    assert evicted == [key(2)]
    assert key(2) not in store
    assert store.stats().evictions == 1


def test_capacity_zero_is_a_no_op_cache():
    store = HotStore(0)
    store.put(key(1), row(1.0))
    assert len(store) == 0
    assert store.stats().evictions == 0  # dropped puts are not "evictions"
    assert store.import_rows({key(2): row(2.0)}) == 0


def test_invalidate_drops_all_rows_of_the_uids():
    store = HotStore(8)
    store.put(key(1, rev=0), row(1.0))
    store.put(key(1, rev=1, ts=5.0), row(1.5))
    store.put(key(2), row(2.0))
    assert store.invalidate([1]) == 2
    assert len(store) == 1
    assert key(2) in store
    assert store.invalidate([1]) == 0  # already gone


def test_invalidate_stale_keeps_the_watermark_revision():
    store = HotStore(8)
    store.put(key(1, rev=1), row(1.0))
    store.put(key(1, rev=3, ts=9.0), row(3.0))
    store.put(key(2, rev=-1), row(2.0))  # unrevisioned: never stale
    assert store.invalidate_stale() == 1
    assert key(1, rev=3, ts=9.0) in store
    assert key(2, rev=-1) in store


def test_export_import_round_trip_preserves_lru_order():
    source = HotStore(4)
    for uid in range(3):
        source.put(key(uid), row(uid))
    exported = source.export()
    assert list(exported) == [key(0), key(1), key(2)]  # coldest first
    target = HotStore(4)
    assert target.import_rows(exported) == 3
    assert np.array_equal(target.get(key(2)), row(2))


def test_import_respects_the_bound():
    target = HotStore(2)
    imported = target.import_rows({key(uid): row(uid) for uid in range(5)})
    assert imported == 2  # only the hottest (last-iterated) tail survives
    assert key(3) in target and key(4) in target


def test_clear_drops_rows_but_keeps_counters():
    store = HotStore(2)
    store.put(key(1), row(1.0))
    store.get(key(1))
    store.clear()
    assert len(store) == 0
    assert store.stats().hot_hits == 1
