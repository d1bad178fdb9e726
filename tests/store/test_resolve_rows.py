"""``resolve_rows`` — the one memo loop — and copying a ``HotStore``.

Every per-profile cache (the engine's tiered store, the judges' feature
memos, the ``Fv(r)`` memo) resolves through :func:`repro.store.resolve_rows`
over a :class:`repro.store.HotStore`; judges holding those stores are
deep-copied per shard and pickled into worker bundles, so the store must
copy as an independent equal.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.store import HotStore, resolve_rows


def _key(uid, revision=0, ts=0.0):
    return (uid, ts, "tweet", 1, revision)


class CountingStore(HotStore):
    """A HotStore recording every get and put it serves."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.gets = []
        self.puts = []

    def get(self, key):
        self.gets.append(key)
        return super().get(key)

    def put(self, key, row, *, copy=False):
        self.puts.append(key)
        super().put(key, row, copy=copy)


class TestResolveRows:
    def test_one_get_per_distinct_key_one_compute_one_put_per_miss(self):
        store = CountingStore(8)
        store.put(_key(2), np.full(3, 2.0))
        store.puts.clear()
        keys = [_key(1), _key(2), _key(1), _key(3), _key(2)]
        calls = []

        def compute(positions):
            calls.append(positions)
            return np.stack([np.full(3, float(keys[i][0])) for i in positions])

        rows, missed, hits = resolve_rows(store, keys, compute)
        assert store.gets == [_key(1), _key(2), _key(3)]
        assert calls == [[0, 3]]  # first occurrences of the two misses
        assert store.puts == [_key(1), _key(3)]
        assert missed == (0, 3)
        assert hits == 1
        assert np.array_equal(rows[:, 0], [1.0, 2.0, 1.0, 3.0, 2.0])

    def test_all_hits_never_compute(self):
        store = HotStore(4)
        store.put(_key(1), np.ones(2))

        def compute(positions):
            raise AssertionError("nothing to compute")

        rows, missed, hits = resolve_rows(store, [_key(1), _key(1)], compute)
        assert missed == () and hits == 1
        assert np.array_equal(rows, np.ones((2, 2)))

    @pytest.mark.parametrize("capacity", [0, 2])
    def test_batch_larger_than_the_store_is_still_complete(self, capacity):
        store = HotStore(capacity)
        keys = [_key(uid) for uid in range(6)]
        rows, missed, _ = resolve_rows(
            store, keys, lambda positions: np.arange(len(positions) * 2.0).reshape(-1, 2)
        )
        assert missed == tuple(range(6))
        assert np.array_equal(rows, np.arange(12.0).reshape(6, 2))
        assert len(store) == capacity

    def test_cached_rows_do_not_pin_the_computed_batch(self):
        store = HotStore(4)
        batch = np.zeros((3, 5))
        resolve_rows(store, [_key(0), _key(1), _key(2)], lambda positions: batch)
        assert all(store.get(_key(uid)).base is None for uid in range(3))


def _filled_store():
    store = HotStore(3)
    store.put(_key(1, revision=1), np.full(2, 1.0))
    store.put(_key(1, revision=2), np.full(2, 2.0))
    store.put(_key(2), np.full(2, 3.0))
    store.get(_key(1, revision=1))  # refresh: revision 2 is now the LRU row
    store.get(_key(9))  # one miss
    store.clear()  # rows gone, watermarks kept
    store.put(_key(1, revision=1), np.full(2, 1.0))
    store.put(_key(3), np.full(2, 4.0))
    store.put(_key(2), np.full(2, 3.0))
    store.get(_key(1, revision=1))
    return store


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda store: pickle.loads(pickle.dumps(store))],
    ids=["deepcopy", "pickle"],
)
class TestHotStoreCopies:
    def test_copy_keeps_rows_lru_order_counters_and_watermarks(self, clone):
        store = _filled_store()
        twin = clone(store)
        assert list(twin.export()) == list(store.export())
        assert all(
            np.array_equal(twin.export()[key], row) for key, row in store.export().items()
        )
        assert twin.stats() == store.stats()
        # The uid-1 watermark (revision 2) survived clear() and the copy:
        # the resident revision-1 row is stale in both.
        assert twin.stale_keys() == store.stale_keys() == [_key(1, revision=1)]
        assert twin.invalidate_stale() == 1

    def test_copy_is_independent_of_the_original(self, clone):
        store = _filled_store()
        twin = clone(store)
        assert twin._lock is not store._lock
        twin.get(_key(1, revision=1))[:] = 9.0  # rows are copies, not shared
        twin.put(_key(7), np.zeros(2))  # evicts the twin's LRU row only
        twin.invalidate([2])
        assert list(store.export()) == [_key(3), _key(2), _key(1, revision=1)]
        assert np.array_equal(store.get(_key(1, revision=1)), np.full(2, 1.0))
        assert _key(2) not in twin
        assert store.stats().evictions == 0 and twin.stats().evictions == 1
        store.put(_key(8), np.zeros(2))
        assert _key(8) not in twin and _key(3) not in twin
