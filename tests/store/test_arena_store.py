"""Tests for the memmap arena cold tier: persistence, tombstones, crash safety."""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.store import ArenaStore, FeatureStore


def key(uid, rev=0, ts=0.0):
    return (uid, float(ts), "content", 1, rev)


def row(value, dim=4):
    return np.full(dim, float(value))


def test_satisfies_the_protocol(tmp_path):
    assert isinstance(ArenaStore(tmp_path), FeatureStore)


def test_materialises_lazily_on_first_put(tmp_path):
    arena = ArenaStore(tmp_path / "arena")
    assert not (tmp_path / "arena").exists()  # nothing on disk yet
    arena.put(key(1), row(1.0))
    assert (tmp_path / "arena" / "header.json").exists()
    assert (tmp_path / "arena" / "arena.dat").exists()
    assert np.array_equal(arena.get(key(1)), row(1.0))


def test_rows_survive_close_and_reopen(tmp_path):
    with ArenaStore(tmp_path) as arena:
        arena.put(key(1), row(1.0))
        arena.put(key(2), row(2.0))
    reopened = ArenaStore(tmp_path)
    assert len(reopened) == 2
    assert np.array_equal(reopened.get(key(2)), row(2.0))


def test_rows_survive_without_close_process_crash_semantics(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1), row(1.0))
    # No close(), no sync(): simulate the owner dying.  The log was flushed
    # per put and the memmap pages live in the shared page cache, so a new
    # mapping of the same files sees everything.
    del arena
    reopened = ArenaStore(tmp_path)
    assert np.array_equal(reopened.get(key(1)), row(1.0))


def test_replay_tolerates_a_torn_log_tail(tmp_path):
    with ArenaStore(tmp_path) as arena:
        arena.put(key(1), row(1.0))
        arena.put(key(2), row(2.0))
    log = tmp_path / "index.log"
    log.write_text(log.read_text() + '{"op": "put", "key": [3, 0.0, "c')  # torn line
    reopened = ArenaStore(tmp_path)
    assert len(reopened) == 2  # the torn record is skipped, not fatal


def test_replay_refuses_mid_file_corruption(tmp_path):
    """Only a torn *tail* is a crash artefact; damage earlier in the log
    could swallow a del record and alias two keys onto one recycled slot,
    so mapping must fail instead of serving another key's bytes."""
    with ArenaStore(tmp_path) as arena:
        arena.put(key(1), row(1.0))
        arena.put(key(2), row(2.0))
    log = tmp_path / "index.log"
    lines = log.read_text().splitlines()
    lines.insert(1, "not a json record")
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError):
        ArenaStore(tmp_path)


def test_tombstone_invalidation_recycles_slots(tmp_path):
    arena = ArenaStore(tmp_path, capacity=2)
    arena.put(key(1), row(1.0))
    arena.put(key(2), row(2.0))
    assert arena.invalidate([1]) == 1
    assert key(1) not in arena
    arena.put(key(3), row(3.0))  # reuses the tombstoned slot, no eviction
    assert key(2) in arena and key(3) in arena


def test_full_arena_evicts_fifo(tmp_path):
    arena = ArenaStore(tmp_path, capacity=2)
    arena.put(key(1), row(1.0))
    arena.put(key(2), row(2.0))
    arena.put(key(3), row(3.0))
    assert key(1) not in arena  # oldest insertion overwritten
    assert np.array_equal(arena.get(key(3)), row(3.0))
    assert len(arena) == 2


def test_refreshing_a_key_rejoins_the_fifo_tail(tmp_path):
    arena = ArenaStore(tmp_path, capacity=2)
    arena.put(key(1), row(1.0))
    arena.put(key(2), row(2.0))
    arena.put(key(1), row(1.5))  # refresh: key 2 is now the oldest
    arena.put(key(3), row(3.0))
    assert key(1) in arena and key(2) not in arena
    assert np.array_equal(arena.get(key(1)), row(1.5))


def test_invalidate_stale_sweeps_superseded_revisions(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1, rev=1), row(1.0))
    arena.put(key(1, rev=4, ts=9.0), row(4.0))
    assert arena.invalidate_stale() == 1
    assert key(1, rev=4, ts=9.0) in arena


def test_tombstones_survive_restart(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1), row(1.0))
    arena.put(key(2), row(2.0))
    arena.invalidate([1])
    del arena  # crash: del records were already flushed
    reopened = ArenaStore(tmp_path)
    assert key(1) not in reopened
    assert key(2) in reopened


def test_close_compacts_the_log(tmp_path):
    arena = ArenaStore(tmp_path)
    for _ in range(5):
        arena.put(key(1), row(1.0))  # 5 log records, 1 live row
    arena.close()
    lines = (tmp_path / "index.log").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["op"] == "put"


def test_export_copies_rows_out_of_the_mapping(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1), row(1.0))
    exported = arena.export()
    arena.put(key(1), row(9.0))  # overwrite the slot in place
    assert np.array_equal(exported[key(1)], row(1.0))


def test_rejects_corrupt_header_and_wrong_dim(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1), row(1.0, dim=4))
    with pytest.raises(ConfigurationError):
        arena.put(key(2), row(2.0, dim=5))
    arena.close()
    (tmp_path / "header.json").write_text("not json")
    with pytest.raises(ConfigurationError):
        ArenaStore(tmp_path)


def _rewrite_header(directory, **fields):
    header_path = directory / "header.json"
    header = json.loads(header_path.read_text())
    header.update(fields)
    header_path.write_text(json.dumps(header))


def test_rejects_a_header_whose_dtype_is_not_float64(tmp_path):
    with ArenaStore(tmp_path) as arena:
        arena.put(key(1), row(1.0))
    _rewrite_header(tmp_path, dtype="float32")
    with pytest.raises(ConfigurationError, match="dtype"):
        ArenaStore(tmp_path)


def test_rejects_an_unsupported_format_version(tmp_path):
    with ArenaStore(tmp_path) as arena:
        arena.put(key(1), row(1.0))
    _rewrite_header(tmp_path, version=2)
    with pytest.raises(ConfigurationError, match="version"):
        ArenaStore(tmp_path)


def test_rows_are_stored_as_float64(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1), np.arange(4, dtype=np.int32))
    arena.put(key(2), np.full(4, 0.1, dtype=np.float32))
    assert arena.get(key(1)).dtype == np.float64
    assert np.array_equal(arena.get(key(1)), [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(arena.get(key(2)), np.full(4, np.float32(0.1), dtype=np.float64))


def test_get_hands_out_a_copy_not_a_view_of_the_mapping(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1), row(1.0))
    served = arena.get(key(1))
    served[:] = 7.0  # the caller's copy is its own
    assert np.array_equal(arena.get(key(1)), row(1.0))
    arena.put(key(1), row(2.0))  # rewriting the slot leaves the copy alone
    assert np.array_equal(served, row(7.0))


def test_a_closed_arena_serves_nothing_and_refuses_writes(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1), row(1.0))
    arena.close()
    arena.close()  # idempotent
    assert arena.closed
    assert arena.get(key(1)) is None  # the mapping is released
    for write in (
        lambda: arena.put(key(2), row(2.0)),
        lambda: arena.drop_keys([key(1)]),
        arena.clear,
    ):
        with pytest.raises(ConfigurationError):
            write()
    assert ArenaStore(tmp_path).keys() == [key(1)]


def test_stats_report_cold_occupancy(tmp_path):
    arena = ArenaStore(tmp_path)
    arena.put(key(1), row(1.0))
    arena.put(key(2), row(2.0))
    stats = arena.stats()
    assert stats.cold_size == 2
    assert stats.size == 0  # the arena is nobody's hot tier
