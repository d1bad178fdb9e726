""":class:`ArenaStore` — the memmap arena cold tier.

A float64 row arena on disk: feature rows live in slots of one
``numpy.memmap`` file, keyed by :data:`repro.core.protocols.ProfileKey`, so a
cache miss costs a page-cache read instead of running the encoders — and a
restarted shard or worker warm-starts by *mapping the file* instead of
re-featurizing or re-receiving its rows over the wire.

On-disk format (one directory per arena slice; exactly one writer at a time):

* ``header.json`` — ``{"magic", "version", "dtype", "dim", "capacity"}``,
  written atomically (temp file + rename) once the row dimensionality is
  known.  A directory without a readable header is an empty arena.
* ``arena.dat`` — the ``(capacity, dim)`` memmap of raw rows.
* ``index.log`` — append-only JSONL of ``put`` / ``del`` / ``clear``
  records mapping keys to slots.  Each record is one line flushed to the OS
  as it is written, so a *process* crash loses at most the torn final line
  (replay tolerates exactly that: an undecodable *last* line is dropped,
  corruption anywhere earlier refuses to map — skipping a mid-file ``del``
  could alias two keys onto one recycled slot); everything acknowledged
  before the crash is recovered.  :meth:`close` compacts the log to the
  live mapping.

Invalidation is tombstone-based: a ``del`` record frees the slot (the row
bytes stay in the file but become unreachable) and the free list recycles it
for the next insert.  When every slot is live, the oldest insertion is
tombstoned and overwritten (FIFO), so the arena is a bounded ring, not an
append-only leak.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from collections import OrderedDict
from typing import Iterable

import numpy as np

from repro.core.protocols import ProfileKey, RevisionedKeyIndex
from repro.errors import ConfigurationError
from repro.store.base import EngineCacheInfo, check_profile_keys

_MAGIC = "repro-feature-arena"
_VERSION = 1
_HEADER = "header.json"
_DATA = "arena.dat"
_LOG = "index.log"
#: Feature rows are float64 everywhere; the header pins it so every
#: incarnation maps the same bytes.
_DTYPE = np.dtype(np.float64)


def _decode_key(raw) -> ProfileKey:
    return (int(raw[0]), float(raw[1]), str(raw[2]), int(raw[3]), int(raw[4]))


class ArenaStore:
    """Float64 memmap arena of feature rows, keyed by profile key.

    Parameters
    ----------
    directory:
        The arena slice directory (created on first write if absent).
    capacity:
        Row slots in the arena file.  Ignored when opening an existing
        arena — the header's capacity wins.
    """

    def __init__(self, directory: str | os.PathLike, *, capacity: int = 65536):
        if capacity < 1:
            raise ConfigurationError("arena capacity must be >= 1")
        self.directory = pathlib.Path(directory)
        self.capacity = int(capacity)
        self.dim: int | None = None
        self._lock = threading.RLock()
        #: key -> slot, insertion-ordered: the FIFO ring's eviction order.
        self._slots: OrderedDict[ProfileKey, int] = OrderedDict()
        self._free: list[int] = []
        self._high_water = 0  # slots ever allocated (free list lives below it)
        self._index = RevisionedKeyIndex()
        self._mmap: np.memmap | None = None
        self._log = None
        #: After :meth:`close` the arena serves nothing and writes raise.
        self.closed = False

        header_path = self.directory / _HEADER
        if header_path.exists():
            self._open_existing(header_path)
        # A fresh directory materialises lazily on the first put, when the
        # row dimensionality is known.

    # ------------------------------------------------------------- file layout
    def _open_existing(self, header_path: pathlib.Path) -> None:
        try:
            header = json.loads(header_path.read_text())
        except ValueError as exc:
            raise ConfigurationError(f"corrupt arena header in {self.directory}") from exc
        if header.get("magic") != _MAGIC:
            raise ConfigurationError(f"{self.directory} is not a feature arena")
        if int(header.get("version", 0)) != _VERSION:
            raise ConfigurationError(
                f"arena version {header.get('version')!r} unsupported (want {_VERSION})"
            )
        if header.get("dtype") != _DTYPE.name:
            raise ConfigurationError(
                f"arena dtype {header.get('dtype')!r} unsupported (want {_DTYPE.name})"
            )
        self.capacity = int(header["capacity"])
        self.dim = int(header["dim"])
        self._mmap = np.memmap(
            self.directory / _DATA, dtype=_DTYPE, mode="r+", shape=(self.capacity, self.dim)
        )
        self._replay_log()
        self._log = open(self.directory / _LOG, "a", encoding="utf-8")

    def _initialise(self, dim: int) -> None:
        """First write into a fresh directory: header, data file, log."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self.dim = int(dim)
        self._mmap = np.memmap(
            self.directory / _DATA, dtype=_DTYPE, mode="w+", shape=(self.capacity, self.dim)
        )
        header = {
            "magic": _MAGIC,
            "version": _VERSION,
            "dtype": _DTYPE.name,
            "dim": self.dim,
            "capacity": self.capacity,
        }
        # Atomic header write: a crash mid-create leaves no half-written
        # header, so the directory reads as an empty arena, never a corrupt one.
        tmp = self.directory / (_HEADER + ".tmp")
        tmp.write_text(json.dumps(header))
        os.replace(tmp, self.directory / _HEADER)
        self._log = open(self.directory / _LOG, "a", encoding="utf-8")

    def _replay_log(self) -> None:
        log_path = self.directory / _LOG
        if not log_path.exists():
            return
        with open(log_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for lineno, line in enumerate(lines, start=1):
            try:
                record = json.loads(line)
            except ValueError:
                if lineno == len(lines):
                    break  # torn tail line from a crash mid-append
                # A corrupt record anywhere else is real damage: skipping a
                # mid-file "del" would resurrect a tombstoned key whose slot
                # may since have been recycled, aliasing two keys onto one
                # slot — refuse to map rather than serve another key's bytes.
                raise ConfigurationError(
                    f"corrupt arena index log in {self.directory} "
                    f"(line {lineno} of {len(lines)})"
                )
            op = record.get("op")
            if op == "put":
                key = _decode_key(record["key"])
                slot = int(record["slot"])
                if key in self._slots:
                    self._slots.move_to_end(key)
                    self._slots[key] = slot
                else:
                    self._slots[key] = slot
                    self._index.register(key)
            elif op == "del":
                key = _decode_key(record["key"])
                self._slots.pop(key, None)
                self._index.discard(key)
            elif op == "clear":
                self._slots.clear()
                self._index.clear()
        allocated = set(self._slots.values())
        self._high_water = max(allocated) + 1 if allocated else 0
        self._free = [slot for slot in range(self._high_water) if slot not in allocated]

    def _append(self, record: dict) -> None:
        if self._log is not None:
            self._log.write(json.dumps(record) + "\n")
            self._log.flush()  # reach the kernel: survives a process crash

    def _require_open(self) -> None:
        if self.closed:
            raise ConfigurationError("the arena store is closed")

    # ----------------------------------------------------------------- lookups
    def get(self, key: ProfileKey) -> np.ndarray | None:
        """A copy of the row stored under ``key``.

        The copy is taken *under the arena lock*: a concurrent
        invalidate-then-put could recycle the slot, and a view handed out
        across the lock boundary could tear into another key's bytes.
        """
        with self._lock:
            if self._mmap is None:
                return None
            slot = self._slots.get(key)
            if slot is None:
                return None
            return np.array(self._mmap[slot])

    def put(self, key: ProfileKey, row: np.ndarray, *, copy: bool = False) -> None:
        """Write a row into a slot (rows always copy into the mapped file)."""
        self._require_open()
        row = np.asarray(row, dtype=_DTYPE)
        if row.ndim != 1:
            raise ConfigurationError(f"arena rows must be 1-D, got shape {row.shape}")
        with self._lock:
            if self._mmap is None:
                self._initialise(row.shape[0])
            if row.shape[0] != self.dim:
                raise ConfigurationError(
                    f"arena holds dim-{self.dim} rows, got dim-{row.shape[0]}"
                )
            slot = self._slots.get(key)
            if slot is None:
                slot = self._allocate_slot()
                self._slots[key] = slot
                self._index.register(key)
            else:
                self._slots.move_to_end(key)  # refreshed rows rejoin the ring's tail
            self._mmap[slot] = row
            self._append({"op": "put", "key": list(key), "slot": slot})

    def _allocate_slot(self) -> int:
        """A free slot: tombstoned first, then unused, then the FIFO victim."""
        if self._free:
            return self._free.pop()
        if self._high_water < self.capacity:
            slot = self._high_water
            self._high_water += 1
            return slot
        victim, slot = self._slots.popitem(last=False)
        self._index.discard(victim)
        self._append({"op": "del", "key": list(victim)})
        return slot

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    def __contains__(self, key: ProfileKey) -> bool:
        with self._lock:
            return key in self._slots

    def keys(self) -> list[ProfileKey]:
        """Live keys, insertion order (FIFO eviction order)."""
        with self._lock:
            return list(self._slots)

    # ------------------------------------------------------------ invalidation
    def drop_keys(self, keys: Iterable[ProfileKey]) -> list[ProfileKey]:
        """Tombstone the given keys; returns those that were actually live."""
        self._require_open()
        dropped = []
        with self._lock:
            for key in keys:
                slot = self._slots.pop(key, None)
                self._index.discard(key)
                if slot is not None:
                    self._free.append(slot)
                    self._append({"op": "del", "key": list(key)})
                    dropped.append(key)
        return dropped

    def invalidate(self, uids: Iterable[int]) -> int:
        with self._lock:
            return len(self.drop_keys(self._index.keys_of(uids)))

    def invalidate_stale(self) -> int:
        with self._lock:
            return len(self.drop_keys(self._index.stale_keys()))

    def keys_of(self, uids: Iterable[int]) -> list[ProfileKey]:
        """Live keys of the given users (invalidation planning)."""
        with self._lock:
            return self._index.keys_of(uids)

    def stale_keys(self) -> list[ProfileKey]:
        """Live keys superseded by a higher observed revision."""
        with self._lock:
            return self._index.stale_keys()

    def clear(self) -> None:
        self._require_open()
        with self._lock:
            self._slots.clear()
            # Revision watermarks survive, as in the hot tier: a tiered
            # store's stale sweep must judge both tiers by the same mark.
            self._index.clear()
            self._free = list(range(self._high_water))
            self._append({"op": "clear"})

    # -------------------------------------------------------- snapshot/restore
    def export(self) -> dict[ProfileKey, np.ndarray]:
        """Copy every live row out of the arena (wire-reship fallback path)."""
        with self._lock:
            if self._mmap is None:
                return {}
            return {key: np.array(self._mmap[slot]) for key, slot in self._slots.items()}

    def import_rows(self, rows: dict[ProfileKey, np.ndarray]) -> int:
        check_profile_keys(rows)
        for key, row in rows.items():
            self.put(key, row)
        with self._lock:
            return sum(1 for key in rows if key in self._slots)

    # --------------------------------------------------------------- lifecycle
    def _compact_log(self) -> None:
        """Rewrite the log as the live mapping only (atomic rename)."""
        tmp = self.directory / (_LOG + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for key, slot in self._slots.items():
                handle.write(json.dumps({"op": "put", "key": list(key), "slot": slot}) + "\n")
        os.replace(tmp, self.directory / _LOG)

    def close(self) -> None:
        """Flush, compact the index log, release the mapping (idempotent)."""
        with self._lock:
            if self.closed:
                return
            if self._mmap is not None:
                self._mmap.flush()
            if self._log is not None:
                self._log.close()
                self._log = None
                self._compact_log()
            self._mmap = None
            self.closed = True

    def __enter__(self) -> "ArenaStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # --------------------------------------------------------------- telemetry
    def stats(self) -> EngineCacheInfo:
        with self._lock:
            return EngineCacheInfo(cold_size=len(self._slots))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArenaStore({self.directory}, rows={len(self)}/{self.capacity})"
