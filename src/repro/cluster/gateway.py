""":class:`WorkerPool` — the process-worker tier behind an asyncio gateway.

:class:`repro.api.ColocationEngine` is one process, and
:class:`repro.cluster.ShardedEngine` is one process with shard threads — both
sit under the GIL, so featurization never runs truly in parallel.  The pool
is the same :class:`repro.cluster.sharded.PartitionedEngine` over a different
kind of shard: it spawns ``num_workers`` **worker processes**
(:mod:`repro.cluster.worker`), each rebuilt from the fitted judge via the
save/load bundle and owning one hash slice of the user population (the same
:func:`repro.cluster.shard_index` routing, so a thread shard and a process
worker agree on ownership), and fronts them with an asyncio event loop that
fans each batch's feature gather out across worker sockets concurrently.

**One decision path, four transports.**  Routing, per-owner deduplication,
the fan-out, the cache-admin surface and the :class:`repro.api.JudgementCore`
delegations are the partitioned engine's; this module adds only the wire
shard (columnar profile batches out — JSON scalar rows plus one float64
visits array, :func:`repro.cluster.wire.encode_profiles` — and raw numpy
feature rows back) and the process lifecycle.  Featurization — the
CPU-bound cost — parallelises across processes; scoring, a small batched
matmul, runs in the gateway.  Because the worker's loaded pipeline restores
bitwise-exact and the profile batch crosses the wire exactly,
``WorkerPool.predict_proba`` matches the single engine bit-for-bit,
``resolve_engine`` passes a pool through, and any :mod:`repro.service`
application, or a :class:`repro.cluster.MicroBatcher`, can sit on top
unchanged.  Cache invalidation routes ``INVALIDATE`` frames to owner workers
and purges the gateway's retained warm-start rows, so neither a live worker
nor a respawned one can serve a superseded profile revision.

**Failure model.**  A worker dying (crash, kill, broken socket) fails the
call in flight — and every call queued behind it — *promptly* with
:class:`repro.errors.WorkerCrashError`; nothing hangs on a socket that will
never answer, and :class:`repro.cluster.ClusterMetrics` counts the death.
With ``respawn=True`` the next call routed to the dead worker first respawns
it from the bundle and warm-starts its cache from the most recent
:meth:`snapshot`/:meth:`restore` rows the pool retains (the process-tier twin
of shard snapshot/restore).  :meth:`close` drains in-flight calls, sends
every worker a SHUTDOWN frame, and reaps the processes — EOF alone also stops
a worker, so even a crashed gateway leaves no orphans behind (workers are
daemonic).
"""

from __future__ import annotations

import asyncio
import dataclasses
import multiprocessing
import secrets
import tempfile
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable

import numpy as np

from repro.api.core import CallCacheStats
from repro.api.engine import ColocationEngine, EngineCacheInfo
from repro.cluster import wire
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.sharded import PartitionedEngine, shard_arena_dir, split_budget
from repro.cluster.worker import save_judge_bundle, worker_main
from repro.core.protocols import ProfileKey, superseded_keys
from repro.data.records import Profile
from repro.errors import ConfigurationError, WireProtocolError, WorkerCrashError
from repro.obs import (
    STAGE_WIRE_RTT,
    STAGE_WIRE_SERIALIZE,
    MetricsRegistry,
    get_tracer,
)

#: How long a HELLO handshake may take once a connection is accepted.
_HELLO_TIMEOUT = 30.0

#: A worker that has reported nothing yet.
_NO_CACHE = EngineCacheInfo()


def _counters(info: EngineCacheInfo) -> EngineCacheInfo:
    """``info`` without the rows it held: what outlives a dead worker."""
    return dataclasses.replace(info, size=0, maxsize=0, cold_size=0)


@dataclass
class _WorkerHandle:
    """One worker process and its gateway-side connection state."""

    index: int
    generation: int
    process: object  # multiprocessing.Process
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    pid: int
    #: Serialises requests on this connection (the wire is request/response).
    #: Queued acquirers observe ``alive`` turning False and fail fast.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    alive: bool = True


def _restore_payload(rows: dict[ProfileKey, np.ndarray]) -> tuple[dict, tuple]:
    """The ``restore`` CALL body and arrays that ship ``rows`` to a worker."""
    return {"keys": wire.encode_keys(rows)}, ((np.stack(list(rows.values())),) if rows else ())


def _gather_reply(owner: int, sent: int, reply, trace) -> tuple[np.ndarray, CallCacheStats]:
    """One worker's ``gather`` RESULT as rows plus that worker's cache traffic.

    The RESULT names the indices of the profiles the worker featurized
    (``missed``); a reply whose rows or indices do not fit the ``sent``
    profiles is malformed, not silently misattributed.  Spans the worker
    recorded under the caller's trace id merge back into ``trace``.
    """
    body, arrays = reply
    if trace is not None:
        for span in body.get("spans", ()):
            if isinstance(span, (list, tuple)) and len(span) == 2:
                trace.add(str(span[0]), float(span[1]))
    rows = arrays[0]
    if len(rows) != sent:
        raise WireProtocolError(f"worker {owner} returned {len(rows)} rows for {sent} profiles")
    missed = tuple(int(i) for i in body["missed"])
    if any(not 0 <= i < sent for i in missed):
        raise WireProtocolError(
            f"worker {owner} reported a missed index outside its {sent} profiles"
        )
    stats = CallCacheStats(
        hits=int(body["hits"]),
        misses=int(body["misses"]),
        featurized=int(body["featurized"]),
        invalidated=int(body.get("invalidated", 0)),
        missed=missed,
    )
    return rows, stats


class _WorkerShard:
    """One worker index as a partitioned-engine shard: wire calls to it.

    Every call resolves the live handle through the pool, so a respawned
    worker keeps serving the same shard.  The shard also retains the rows
    last exported from or imported into it, to warm-start a respawn.
    """

    def __init__(self, pool: "WorkerPool", index: int):
        self.pool = pool
        self.index = index
        #: Rows to warm-start a respawned worker with — refreshed by
        #: export() and import_rows(), purged by invalidation.
        self.retained: dict[ProfileKey, np.ndarray] | None = None
        self._counts_lock = threading.Lock()
        #: The live worker's newest cache report (``cache_info`` or gather).
        self._last = _NO_CACHE  # guarded-by: _counts_lock
        #: The counters of every dead worker in this slot.
        self._carried = _NO_CACHE  # guarded-by: _counts_lock

    def submit(self, op: str, body: dict, arrays=(), frame: int = wire.FRAME_CALL) -> Future:
        handle = self.pool._ensure_worker(self.index)
        return asyncio.run_coroutine_threadsafe(
            self._request(handle, op, body, arrays, frame), self.pool._loop
        )

    async def _request(self, handle: _WorkerHandle, op: str, body: dict, arrays, frame: int):
        """One wire call, keeping the worker's latest cache report.

        ``cache_info`` answers with the report and every ``gather`` RESULT
        carries one.  Both are stored here, on the gateway loop, as the
        reply is read: replies of one connection arrive in call order and
        before any respawn of that worker, so :meth:`carry_counts` always
        folds the dead worker's newest counters.
        """
        reply = await self.pool._request(handle, op, body, arrays, frame=frame)
        answer = reply[0]
        report = answer.get("cache") if op == "gather" else answer if op == "cache_info" else None
        if report is not None:
            with self._counts_lock:
                self._last = EngineCacheInfo(**report)
        return reply

    def call(self, op: str, body: dict, arrays=(), frame: int = wire.FRAME_CALL):
        return self.submit(op, body, arrays, frame).result(self.pool.call_timeout)

    def cache_info(self) -> EngineCacheInfo:
        """This worker slot's cache statistics, counted across respawns.

        The live worker's newest report plus what its dead predecessors last
        reported; a worker that cannot answer adds its own last counters and
        no rows.  This is the surface ``ClusterMetrics`` reads, and the
        moment after an incident is exactly when the report must still
        render.  A worker the heartbeat marks unhealthy is not asked at all —
        a stalled worker would block the report on the incident it is
        reporting.
        """
        answered = False
        if self.pool._healthy[self.index]:
            try:
                self.call("cache_info", {})
                answered = True
            except (WorkerCrashError, ConfigurationError):
                pass
        with self._counts_lock:
            live = self._last if answered else _counters(self._last)
            return EngineCacheInfo.merge([self._carried, live])

    def carry_counts(self) -> None:
        """On respawn: fold the dead worker's last counters into the carried ones."""
        with self._counts_lock:
            self._carried = EngineCacheInfo.merge([self._carried, _counters(self._last)])
            self._last = _NO_CACHE  # never counted twice

    def invalidate(self, uids: list[int]) -> int:
        if self.retained:
            drop = set(uids)
            for key in [k for k in self.retained if k[0] in drop]:
                del self.retained[key]
        return self._invalidate({"uids": uids})

    def invalidate_stale(self) -> int:
        if self.retained:
            for key in superseded_keys(self.retained):
                self.retained.pop(key, None)
        return self._invalidate({"stale": True})

    def _invalidate(self, body: dict) -> int:
        """One INVALIDATE frame; rows dropped in the worker.

        A dead worker answers 0 rather than failing the sweep: its retained
        warm-start rows were already purged gateway-side, which is the part
        that matters — a respawn cannot resurrect the stale rows.
        """
        try:
            response, _ = self.call("invalidate", body, frame=wire.FRAME_INVALIDATE)
        except WorkerCrashError:
            return 0
        return int(response.get("invalidated", 0))

    def export(self) -> dict[ProfileKey, np.ndarray]:
        body, arrays = self.call("snapshot", {})
        rows = arrays[0] if arrays else ()
        self.retained = {
            key: np.array(row, copy=True)
            for key, row in zip(wire.decode_keys(body["keys"]), rows)
        }
        return dict(self.retained)

    def import_rows(self, rows: dict[ProfileKey, np.ndarray]) -> int:
        self.retained = {key: np.array(row, copy=True) for key, row in rows.items()}
        body, _ = self.call("restore", *_restore_payload(rows))
        return int(body["imported"])


class WorkerPool(PartitionedEngine):
    """Serve a fitted judge across hash-partitioned worker *processes*.

    Parameters
    ----------
    judge:
        Any fitted judge a :class:`ColocationEngine` accepts.  Fitted
        :class:`repro.colocation.CoLocationPipeline` objects ship to workers
        through the canonical save/load format; other judges fall back to a
        pickle bundle (bootstrap only — nothing on the wire is ever pickled).
    num_workers:
        Worker processes (each with its own feature-cache slice).
    cache_size:
        **Total** feature-row budget, split evenly across workers — the same
        fairness rule as :class:`repro.cluster.ShardedEngine`.
    threshold / batch_size:
        As on :class:`ColocationEngine`.  The gateway scores and decides;
        workers only featurize, so neither knob leaves this process.
    respawn:
        Respawn a dead worker on the next call routed to it, warm-started
        from the rows most recently seen by :meth:`snapshot`/:meth:`restore`.
        Default ``False``: a dead worker stays dead and calls to it raise
        :class:`WorkerCrashError` (fail fast, let the operator decide).
    metrics:
        Optional externally owned :class:`ClusterMetrics` (share it with a
        fronting :class:`MicroBatcher` for one unified report); by default
        the pool creates its own, exposed as :attr:`metrics`.
    start_timeout:
        Seconds to wait for a spawned worker's HELLO before giving up.
    call_timeout:
        Optional bound on any single wire call (``None`` waits).
    arena_dir:
        Optional cold-tier root: each worker tiers its cache onto a memmap
        arena slice ``arena_dir/worker-NNN``.  A respawned worker then
        warm-starts by *mapping its slice* — zero featurize calls, zero rows
        on the wire — and the gateway's retained-row reship is skipped (it
        remains the fallback when no arena is configured).
    heartbeat_interval_ms:
        Enable the PING/PONG heartbeat: the gateway loop probes each idle
        worker connection this often, feeding ``metrics.observe_heartbeat``
        (per-worker liveness gauge + last-seen stamp).  A probe that gets no
        PONG within ``heartbeat_timeout_ms`` flips the worker unhealthy —
        without cancelling the in-flight probe, so a merely-stalled worker
        (SIGSTOP, GC pause) flips back to healthy when its PONG finally
        lands instead of desynchronising the wire.  ``None`` (default)
        disables the heartbeat.
    heartbeat_timeout_ms:
        How long a probe may wait before the worker is considered stalled
        (default: 4x the interval).
    """

    def __init__(
        self,
        judge,
        *,
        num_workers: int = 2,
        cache_size: int = 4096,
        threshold: float | None = None,
        batch_size: int = 1024,
        respawn: bool = False,
        metrics: ClusterMetrics | None = None,
        start_timeout: float = 120.0,
        call_timeout: float | None = None,
        arena_dir: str | None = None,
        heartbeat_interval_ms: float | None = None,
        heartbeat_timeout_ms: float | None = None,
    ):
        self._worker_cache_sizes = split_budget(cache_size, num_workers, "num_workers")
        if heartbeat_interval_ms is not None and heartbeat_interval_ms <= 0:
            raise ConfigurationError("heartbeat_interval_ms must be > 0")
        self.num_workers = num_workers
        self.respawn = respawn
        self.arena_dir = arena_dir
        self.start_timeout = start_timeout
        self.call_timeout = call_timeout
        self.metrics = metrics if metrics is not None else ClusterMetrics(self)
        # The local engine scores, shapes empty results and answers the
        # registry, never featurizes: its cache is disabled because feature
        # rows live in the workers.  It also validates threshold/batch_size.
        super().__init__(
            judge,
            [_WorkerShard(self, index) for index in range(num_workers)],
            local=ColocationEngine(
                judge, cache_size=0, threshold=threshold, batch_size=batch_size
            ),
            threshold=threshold,
            cache_size=cache_size,
        )
        self._respawn_locks = [threading.Lock() for _ in range(num_workers)]
        self._generation = 0
        self._hello_waiters: dict[str, asyncio.Future] = {}
        self._mp = multiprocessing.get_context("spawn")
        self.heartbeat_interval_ms = heartbeat_interval_ms
        self.heartbeat_timeout_ms = (
            heartbeat_timeout_ms
            if heartbeat_timeout_ms is not None
            else (heartbeat_interval_ms * 4 if heartbeat_interval_ms else None)
        )
        #: Heartbeat's view of each worker (all healthy until a probe says
        #: otherwise; stays all-True when the heartbeat is disabled).
        self._healthy = [True] * num_workers
        self._heartbeat_future = None

        self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-worker-pool-")
        self._bundle_dir = self._tmpdir.name
        save_judge_bundle(judge, self._bundle_dir)

        # The asyncio gateway: one event loop on a daemon thread, one
        # listening socket workers dial back into.
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-worker-gateway", daemon=True
        )
        self._thread.start()
        try:
            self._server = self._run(self._start_server())
            self._address = self._server.sockets[0].getsockname()[:2]
            self._handles: list[_WorkerHandle] = self._spawn_many(range(num_workers))
            if heartbeat_interval_ms is not None:
                self._heartbeat_future = asyncio.run_coroutine_threadsafe(
                    self._heartbeat_loop(
                        heartbeat_interval_ms / 1e3, self.heartbeat_timeout_ms / 1e3
                    ),
                    self._loop,
                )
        except BaseException:
            self._closed = True
            self._teardown_loop()
            self._tmpdir.cleanup()
            raise

    #: A worker is the process-tier shard: the pool's names for the
    #: partitioned engine's owner routing and per-shard cache statistics.
    worker_of = PartitionedEngine.shard_of
    worker_cache_infos = PartitionedEngine.shard_cache_infos

    def _observe(self, hook: str, *args) -> None:
        """Incident metrics must never break serving (as ``MicroBatcher._observe``)."""
        try:
            getattr(self.metrics, hook)(*args)
        except Exception:
            pass

    # ------------------------------------------------------------ loop plumbing
    def _run(self, coroutine, timeout: float | None = None):
        """Run a coroutine on the gateway loop from the calling thread."""
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout)

    async def _start_server(self):
        return await asyncio.start_server(self._on_connection, "127.0.0.1", 0)

    async def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """Accept a worker dialing back: match its HELLO token to a waiter."""
        try:
            frame = await asyncio.wait_for(
                wire.read_frame_async(reader), timeout=_HELLO_TIMEOUT
            )
            if frame is None or frame[0] != wire.FRAME_HELLO:
                raise WireProtocolError("expected a HELLO frame")
            body, _ = wire.decode_payload(frame[1])
            token = str(body.get("token", ""))
            waiter = self._hello_waiters.pop(token, None)
            if waiter is None or waiter.done():
                raise WireProtocolError("unknown or stale HELLO token")
            sock = writer.get_extra_info("socket")
            if sock is not None:
                import socket as socket_mod

                sock.setsockopt(socket_mod.IPPROTO_TCP, socket_mod.TCP_NODELAY, 1)
            waiter.set_result((reader, writer, int(body.get("pid", 0))))
        except Exception:
            writer.close()

    async def _register_waiter(self, token: str) -> asyncio.Future:
        future = self._loop.create_future()
        self._hello_waiters[token] = future
        return future

    # ---------------------------------------------------------------- spawning
    def _spawn_many(self, indices: Iterable[int]) -> list[_WorkerHandle]:
        """Start workers for ``indices`` concurrently, then collect HELLOs."""
        launches = []
        for index in indices:
            token = secrets.token_hex(16)
            waiter = self._run(self._register_waiter(token))
            self._generation += 1
            process = self._mp.Process(
                target=worker_main,
                args=(self._bundle_dir, self._address[0], self._address[1], token, index),
                kwargs={
                    "cache_size": self._worker_cache_sizes[index],
                    "arena_dir": shard_arena_dir(self.arena_dir, index, prefix="worker"),
                },
                daemon=True,
                name=f"repro-worker-{index}",
            )
            process.start()
            launches.append((index, self._generation, token, process, waiter))
        handles = []
        for index, generation, token, process, waiter in launches:
            try:
                reader, writer, pid = self._run(
                    asyncio.wait_for(waiter, self.start_timeout)
                )
            except BaseException as exc:
                self._hello_waiters.pop(token, None)
                for _, _, _, proc, _ in launches:
                    if proc.is_alive():
                        proc.terminate()
                raise ConfigurationError(
                    f"worker {index} failed to start within {self.start_timeout:.0f}s"
                ) from exc
            handles.append(
                _WorkerHandle(
                    index=index,
                    generation=generation,
                    process=process,
                    reader=reader,
                    writer=writer,
                    pid=pid,
                )
            )
        return handles

    def _ensure_worker(self, index: int) -> _WorkerHandle:
        """The live handle for a worker, respawning it if allowed."""
        if self._closed:
            raise ConfigurationError("the WorkerPool is closed")
        handle = self._handles[index]
        if handle.alive:
            return handle
        if not self.respawn:
            raise WorkerCrashError(
                f"worker {index} is dead and respawn is disabled on this pool"
            )
        with self._respawn_locks[index]:
            handle = self._handles[index]
            if handle.alive:  # another caller beat us to the respawn
                return handle
            (replacement,) = self._spawn_many([index])
            self._shards[index].carry_counts()
            self._handles[index] = replacement
            self._observe("observe_worker_respawn")
            # With an arena the respawned worker already mapped its slice —
            # its warm set came off disk, not the wire.  The retained-row
            # reship below is the no-arena fallback.
            retained = self._shards[index].retained
            if retained and self.arena_dir is None:
                try:
                    self._run(
                        self._request(replacement, "restore", *_restore_payload(retained)),
                        self.call_timeout,
                    )
                except Exception:
                    pass  # a cold respawned worker is still a working worker
            return replacement

    def _note_death(self, handle: _WorkerHandle, cause: Exception | None) -> None:
        """Mark a connection dead exactly once; close it and count the loss."""
        if not handle.alive:
            return
        handle.alive = False
        try:
            handle.writer.close()
        except Exception:
            pass
        try:
            handle.process.join(timeout=0)  # reap immediately if already exited
        except Exception:
            pass
        self._observe("observe_worker_death")

    # ------------------------------------------------------------- wire calls
    async def _roundtrip(self, handle: _WorkerHandle, frame_type: int, payload: bytes):
        """One frame out, one frame back, under the connection lock.

        Any transport failure — broken pipe, EOF, truncated frame — marks
        the worker dead and raises :class:`WorkerCrashError`; calls queued
        behind the lock then fail fast on the dead flag.
        """
        async with handle.lock:
            if not handle.alive:
                raise WorkerCrashError(f"worker {handle.index} is dead")
            try:
                handle.writer.write(wire.encode_frame(frame_type, payload))
                await handle.writer.drain()
                frame = await wire.read_frame_async(handle.reader)
            except (WireProtocolError, ConnectionError, OSError) as exc:
                self._note_death(handle, exc)
                raise WorkerCrashError(
                    f"worker {handle.index} (pid {handle.pid}) died mid-call: {exc}"
                ) from exc
            if frame is None:
                self._note_death(handle, None)
                raise WorkerCrashError(
                    f"worker {handle.index} (pid {handle.pid}) closed its connection mid-call"
                )
            return frame

    async def _request(
        self,
        handle: _WorkerHandle,
        op: str,
        body: dict,
        arrays=(),
        frame: int = wire.FRAME_CALL,
    ):
        if frame == wire.FRAME_CALL:
            payload = wire.encode_payload({**body, "op": op}, arrays)
        else:  # dedicated frames (INVALIDATE) carry their body verbatim
            payload = wire.encode_payload(body, arrays)
        frame_type, response = await self._roundtrip(handle, frame, payload)
        if frame_type == wire.FRAME_ERROR:
            # A typed worker-side error: the worker is alive and the
            # connection stays usable — EngineOverloadError and friends
            # surface client-side as themselves.
            raise wire.decode_error(response)
        if frame_type != wire.FRAME_RESULT:
            exc = WireProtocolError(f"unexpected frame type {frame_type} answering {op!r}")
            self._note_death(handle, exc)
            raise WorkerCrashError(
                f"worker {handle.index} desynchronised the wire: {exc}"
            ) from exc
        return wire.decode_payload(response)

    def _call(self, index: int, op: str, body: dict, arrays=()):
        return self._shards[index].call(op, body, arrays)

    def _call_all(self, calls: list[tuple[int, str, dict, tuple]]) -> list:
        """Fan ``(worker, op, body, arrays)`` calls out concurrently."""
        return self._fan_out(
            partial(self._shards[index].submit, op, body, arrays)
            for index, op, body, arrays in calls
        )

    def _gather_owners(
        self, batches: list[tuple[int, list[Profile]]], trace
    ) -> list[tuple[np.ndarray, CallCacheStats]]:
        """One ``gather`` CALL per owner worker, all in flight at once.

        Each body carries its owner's profiles as one columnar batch
        (:func:`repro.cluster.wire.encode_profiles`).  With tracing enabled,
        batch encoding is the ``wire_serialize`` stage and the fan-out is
        ``wire_rtt`` (which *contains* the workers' own gather/featurize
        time) — one span each per gather, however many workers it touches;
        the active trace's id rides each CALL body.
        """
        tracer = get_tracer()
        with tracer.stage(STAGE_WIRE_SERIALIZE):
            calls = []
            for owner, group in batches:
                rows, visits = wire.encode_profiles(group)
                body = {"profiles": rows}
                if trace is not None:
                    body["trace"] = trace.trace_id
                calls.append((owner, "gather", body, (visits,)))
        with tracer.stage(STAGE_WIRE_RTT):
            replies = self._call_all(calls)
        return [
            _gather_reply(owner, len(group), reply, trace)
            for (owner, group), reply in zip(batches, replies)
        ]

    # ---------------------------------------------------------- observability
    def worker_obs_snapshots(self) -> tuple[dict, ...]:
        """Each worker's metrics-registry snapshot via the ``stats`` wire op.

        A dead or heartbeat-unhealthy worker contributes an empty snapshot
        instead of failing (or blocking) the report — the same degradation
        rule as :meth:`worker_cache_infos`.
        """
        snapshots = []
        for index in range(self.num_workers):
            if not self._healthy[index]:
                snapshots.append({"metrics": []})
                continue
            try:
                body, _ = self._call(index, "stats", {})
                snapshots.append(body.get("registry", {"metrics": []}))
            except (WorkerCrashError, ConfigurationError):
                snapshots.append({"metrics": []})
        return tuple(snapshots)

    def obs_snapshot(self) -> MetricsRegistry:
        """The cluster-truthful observability registry: gateway + workers.

        Merges the gateway-side registry (wire stages, score, the pool's own
        counters live there via :func:`repro.obs.get_registry`) with every
        worker's ``stats`` snapshot — counters and histograms sum, gauges
        take the incoming reading.
        """
        from repro.obs import get_registry

        merged = MetricsRegistry()
        merged.merge(get_registry().snapshot())
        for snapshot in self.worker_obs_snapshots():
            merged.merge(snapshot)
        return merged

    # ---------------------------------------------------------------- liveness
    def _mark_health(self, index: int, healthy: bool) -> None:
        self._healthy[index] = bool(healthy)
        self._observe("observe_heartbeat", index, bool(healthy))

    async def _ping_handle(self, handle: _WorkerHandle) -> bool:
        """One PING/PONG token echo over the worker's connection."""
        token = secrets.token_hex(8)
        payload = wire.encode_payload({"token": token})
        frame_type, response = await self._roundtrip(handle, wire.FRAME_PING, payload)
        if frame_type != wire.FRAME_PONG:
            raise WireProtocolError(f"expected PONG, got frame type {frame_type}")
        body, _ = wire.decode_payload(response)
        return isinstance(body, dict) and body.get("token") == token

    async def _heartbeat_loop(self, interval_s: float, timeout_s: float) -> None:
        """Periodic worker probing on the gateway loop.

        Design constraints, in order of importance:

        * A stalled probe is **never cancelled** — the wire is strict
          request/response, so abandoning a PING mid-connection would
          desynchronise every later call.  The probe keeps waiting in the
          background (holding that worker's connection lock); the worker is
          reported unhealthy each round until the PONG lands, then healthy
          again.  A genuinely dead worker fails the probe's read instead,
          which runs the normal ``_note_death`` path.
        * A connection busy serving a call is *proof of life work in
          progress*, not staleness — it is reported healthy without
          queueing a probe behind the in-flight call.
        * Probes on different workers are independent: one SIGSTOPped
          worker cannot delay another worker's probe or calls.
        """
        stalled: dict[int, asyncio.Task] = {}
        try:
            while not self._closed:
                for index in range(self.num_workers):
                    handle = self._handles[index]
                    pending = stalled.get(index)
                    if pending is not None:
                        if not pending.done():
                            self._mark_health(index, False)
                            continue
                        del stalled[index]
                        try:
                            ok = pending.result()
                        except Exception:
                            ok = False
                        self._mark_health(index, ok and handle.alive)
                        continue
                    if not handle.alive:
                        self._mark_health(index, False)
                        continue
                    if handle.lock.locked():
                        self._mark_health(index, True)  # busy serving a call
                        continue
                    probe = asyncio.ensure_future(self._ping_handle(handle))
                    done, _ = await asyncio.wait({probe}, timeout=timeout_s)
                    if probe in done:
                        try:
                            ok = probe.result()
                        except Exception:
                            ok = False
                        self._mark_health(index, ok)
                    else:
                        stalled[index] = probe
                        self._mark_health(index, False)
                await asyncio.sleep(interval_s)
        except asyncio.CancelledError:
            # Closing: abandoning the stalled probes is fine now — their
            # connections are about to be shut down anyway.
            for probe in stalled.values():
                probe.cancel()
            raise

    def worker_health(self) -> tuple[bool, ...]:
        """The heartbeat's per-worker verdicts (all True when disabled)."""
        return tuple(self._healthy)

    def ping(self, index: int) -> bool:
        """Heartbeat one worker; True on echo, raises on a dead worker."""
        return self._run(self._ping_handle(self._ensure_worker(index)), self.call_timeout)

    def worker_pids(self) -> tuple[int, ...]:
        """The OS pids of the current worker processes."""
        return tuple(handle.pid for handle in self._handles)

    def workers_alive(self) -> tuple[bool, ...]:
        """Gateway-side liveness flags (a death is noticed at the failing call)."""
        return tuple(handle.alive for handle in self._handles)

    # -------------------------------------------------------------- lifecycle
    async def _shutdown_handle(self, handle: _WorkerHandle) -> None:
        """Drain the in-flight call (the lock), then ask the worker to exit."""
        async with handle.lock:
            if not handle.alive:
                return
            handle.alive = False
            try:
                handle.writer.write(wire.encode_frame(wire.FRAME_SHUTDOWN))
                await handle.writer.drain()
                handle.writer.close()
            except Exception:
                pass  # already broken: the process join below still reaps it

    def _teardown_loop(self) -> None:
        server = getattr(self, "_server", None)
        if server is not None:
            try:
                self._run(self._close_server(server), timeout=10.0)
            except Exception:
                pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        if not self._thread.is_alive():
            self._loop.close()

    async def _close_server(self, server) -> None:
        server.close()
        await server.wait_closed()

    def close(self, timeout: float = 10.0) -> None:
        """Shut the pool down: drain, stop workers, reap processes (idempotent).

        Workers exit on the SHUTDOWN frame (or on EOF when their connection
        is already gone); processes that still linger are terminated, then
        killed — no orphans survive a close.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._heartbeat_future is not None:
            self._heartbeat_future.cancel()
        for handle in self._handles:
            try:
                self._run(self._shutdown_handle(handle), timeout)
            except Exception:
                pass
        for handle in self._handles:
            process = handle.process
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():
                process.kill()
                process.join(2.0)
        self._teardown_loop()
        self._tmpdir.cleanup()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(judge={type(self.judge).__name__}, workers={self.num_workers}, "
            f"alive={sum(self.workers_alive())}/{self.num_workers})"
        )
