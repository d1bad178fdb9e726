""":class:`WorkerPool` — the process-worker tier behind an asyncio gateway.

The third serving tier.  :class:`repro.api.ColocationEngine` is one process,
:class:`repro.cluster.ShardedEngine` is one process with shard threads — both
sit under the GIL, so featurization never runs truly in parallel.  The pool
spawns ``num_workers`` **worker processes** (:mod:`repro.cluster.worker`),
each rebuilt from the fitted judge via the save/load bundle and owning one
hash slice of the user population (the same :func:`repro.cluster.shard_index`
routing the thread tier uses, so a thread shard and a process worker agree on
ownership), and fronts them with an asyncio event loop that fans each batch's
feature gather out across worker sockets concurrently.

**One decision path, now four transports.**  The pool does not reimplement
judgement: it instantiates the same :class:`repro.api.JudgementCore` the
other tiers run, parameterized on a *wire* gather (profiles JSON out, raw
numpy feature rows back — deduplicated per owner before they touch a socket)
and the local judge's chunk-canonical scorer.  Featurization — the CPU-bound
cost — parallelises across processes; scoring, a small batched matmul, runs
in the gateway.  Because the worker's loaded pipeline restores bitwise-exact,
``WorkerPool.predict_proba`` matches the single engine bit-for-bit, and every
surface (``predict_proba`` / ``predict`` / ``probability_matrix`` / ``serve``
/ ``serve_batch`` / ``warm`` / ``features`` / ``cache_info`` / ``threshold``)
is the engine surface — ``resolve_engine`` passes a pool through and any
:mod:`repro.service` application, or a :class:`repro.cluster.MicroBatcher`,
can sit on top unchanged.  Cache invalidation is a first-class surface too:
:meth:`WorkerPool.invalidate` routes ``INVALIDATE`` frames to owner workers
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
import multiprocessing
import secrets
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.api.core import CallCacheStats, JudgementCore, NO_CACHE_TRAFFIC
from repro.api.engine import ColocationEngine, EngineCacheInfo
from repro.api.messages import JudgeRequest, JudgeResponse
from repro.cluster import wire
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.sharded import route_snapshot_rows, shard_arena_dir, shard_index
from repro.cluster.worker import save_judge_bundle, worker_main
from repro.core.protocols import (
    ProfileKey,
    key_revision,
    profile_key,
    superseded_keys,
)
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError, WireProtocolError, WorkerCrashError
from repro.obs import (
    STAGE_WIRE_RTT,
    STAGE_WIRE_SERIALIZE,
    MetricsRegistry,
    get_tracer,
)

#: How long a HELLO handshake may take once a connection is accepted.
_HELLO_TIMEOUT = 30.0


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


class WorkerPool:
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
        As on :class:`ColocationEngine`; both also forwarded to the workers
        so their direct wire surface decides identically.
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
    bundle_dir:
        Reuse an existing :func:`save_judge_bundle` directory instead of
        writing a fresh one (the pool then does not delete it on close).
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
        bundle_dir: str | None = None,
        arena_dir: str | None = None,
        heartbeat_interval_ms: float | None = None,
        heartbeat_timeout_ms: float | None = None,
    ):
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        if heartbeat_interval_ms is not None and heartbeat_interval_ms <= 0:
            raise ConfigurationError("heartbeat_interval_ms must be > 0")
        self.judge = judge
        self.num_workers = num_workers
        self.cache_size = cache_size
        self.batch_size = batch_size
        self.respawn = respawn
        self.arena_dir = arena_dir
        self.start_timeout = start_timeout
        self.call_timeout = call_timeout
        self.metrics = metrics if metrics is not None else ClusterMetrics(self)
        base, extra = divmod(cache_size, num_workers)
        self._worker_cache_sizes = [
            base + (1 if index < extra else 0) for index in range(num_workers)
        ]
        self._explicit_threshold = threshold
        #: Scorer + empty-shape + registry duties, never featurization: the
        #: local engine's cache is disabled because feature rows live in the
        #: workers.  Also validates ``threshold``/``batch_size``.
        self._local = ColocationEngine(
            judge, cache_size=0, threshold=threshold, batch_size=batch_size
        )
        #: The shared decision/serve logic — the same object every other
        #: transport runs, over this pool's wire gather and the local
        #: chunk-canonical scorer.
        self._core = JudgementCore(
            judge,
            gather=self._resolve_features,
            scorer=self._local._score_batched,
            explicit_threshold=threshold,
            fallback_judge=judge,
        )
        #: Rows to warm-start a respawned worker with, per worker index —
        #: refreshed by snapshot() and restore().
        self._retained: list[dict[ProfileKey, np.ndarray] | None] = [None] * num_workers
        self._respawn_locks = [threading.Lock() for _ in range(num_workers)]
        self._close_lock = threading.Lock()
        self._closed = False
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

        if bundle_dir is not None:
            self._tmpdir = None
            self._bundle_dir = str(bundle_dir)
        else:
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
            if self._tmpdir is not None:
                self._tmpdir.cleanup()
            raise

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
                    "threshold": self._explicit_threshold,
                    "batch_size": self.batch_size,
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
            self._handles[index] = replacement
            self._observe("observe_worker_respawn")
            # With an arena the respawned worker already mapped its slice —
            # its warm set came off disk, not the wire.  The retained-row
            # reship below is the no-arena fallback.
            retained = self._retained[index]
            if retained and self.arena_dir is None:
                try:
                    self._request_sync(
                        replacement,
                        "restore",
                        self._restore_body(retained),
                        (np.stack(list(retained.values())),),
                    )
                except Exception:
                    pass  # a cold respawned worker is still a working worker
            return replacement

    def _observe(self, hook: str, *args) -> None:
        """Metrics must never break serving (mirrors MicroBatcher._observe)."""
        try:
            getattr(self.metrics, hook)(*args)
        except Exception:
            pass

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

    def _request_sync(
        self,
        handle: _WorkerHandle,
        op: str,
        body: dict,
        arrays=(),
        frame: int = wire.FRAME_CALL,
    ):
        return asyncio.run_coroutine_threadsafe(
            self._request(handle, op, body, arrays, frame=frame), self._loop
        ).result(self.call_timeout)

    def _call(self, index: int, op: str, body: dict, arrays=()):
        return self._request_sync(self._ensure_worker(index), op, body, arrays)

    def _call_all(self, calls: list[tuple[int, str, dict, tuple]]) -> list:
        """Fan calls out concurrently; wait for *all* before raising the first
        failure, so no coroutine is abandoned mid-socket."""
        handles = [self._ensure_worker(index) for index, _, _, _ in calls]
        futures = [
            asyncio.run_coroutine_threadsafe(
                self._request(handle, op, body, arrays), self._loop
            )
            for handle, (_, op, body, arrays) in zip(handles, calls)
        ]
        results: list = []
        first_error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result(self.call_timeout))
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    # ----------------------------------------------------------- feature path
    def worker_of(self, profile: Profile) -> int:
        """The index of the worker owning this profile's user."""
        return shard_index(profile_key(profile), self.num_workers)

    def _resolve_features(self, profiles: list[Profile]) -> tuple[np.ndarray, CallCacheStats]:
        """Feature rows gathered from each profile's owner worker, in parallel.

        Profiles deduplicate per owner group *before* hitting the wire (the
        query side of a pair batch repeats heavily), so a profile's JSON
        crosses a socket once per call; rows expand back by key on return.
        Stats sum the workers' own per-call accounting; each worker's RESULT
        names the indices of the profiles it featurized (``missed``), mapped
        back here onto ``profiles``.

        With tracing enabled, body serialization is the ``wire_serialize``
        stage and the fan-out is ``wire_rtt`` (which *contains* the worker's
        own gather/featurize time); the active trace's id rides each CALL
        body, and the spans the workers recorded under it are merged back.
        """
        from repro.io.records_json import profile_to_dict

        if not profiles:
            return self._local.features([]), NO_CACHE_TRAFFIC
        tracer = get_tracer()
        trace = tracer.current_trace() if tracer.enabled else None
        groups: dict[int, list[int]] = {}
        for position, profile in enumerate(profiles):
            groups.setdefault(self.worker_of(profile), []).append(position)
        with tracer.stage(STAGE_WIRE_SERIALIZE):
            plans = []
            for owner, positions in groups.items():
                unique: dict[ProfileKey, int] = {}
                sent: list[int] = []  # position of each profile sent
                row_of: list[int] = []
                for position in positions:
                    key = profile_key(profiles[position])
                    if key not in unique:
                        unique[key] = len(sent)
                        sent.append(position)
                    row_of.append(unique[key])
                plans.append((owner, positions, row_of, sent))
            calls = []
            for owner, _, _, sent in plans:
                body = {"profiles": [profile_to_dict(profiles[i]) for i in sent]}
                if trace is not None:
                    body["trace"] = trace.trace_id
                calls.append((owner, "gather", body, ()))
        with tracer.stage(STAGE_WIRE_RTT):
            results = self._call_all(calls)
        rows: np.ndarray | None = None
        parts = []
        for (owner, positions, row_of, sent), (body, arrays) in zip(plans, results):
            if trace is not None:
                for span in body.get("spans", ()):
                    if isinstance(span, (list, tuple)) and len(span) == 2:
                        trace.add(str(span[0]), float(span[1]))
            worker_rows = arrays[0]
            if len(worker_rows) != len(sent):
                raise WireProtocolError(
                    f"worker {owner} returned {len(worker_rows)} rows for {len(sent)} profiles"
                )
            missed = tuple(int(i) for i in body["missed"])
            if any(not 0 <= i < len(sent) for i in missed):
                raise WireProtocolError(
                    f"worker {owner} reported a missed index outside its {len(sent)} profiles"
                )
            stats = CallCacheStats(
                hits=int(body["hits"]),
                misses=int(body["misses"]),
                featurized=int(body["featurized"]),
                invalidated=int(body.get("invalidated", 0)),
                missed=missed,
            )
            parts.append((stats, sent))
            if rows is None:
                rows = np.empty(
                    (len(profiles), worker_rows.shape[1]), dtype=worker_rows.dtype
                )
            rows[positions] = worker_rows[row_of]
        assert rows is not None
        return rows, CallCacheStats.merge(parts)

    def warm(self, profiles: list[Profile]) -> int:
        """Pre-featurize profiles into their owner workers; returns rows featurized."""
        if not profiles or not self._core.feature_space:
            return 0
        from repro.io.records_json import profile_to_dict

        groups: dict[int, list[Profile]] = {}
        for profile in profiles:
            groups.setdefault(self.worker_of(profile), []).append(profile)
        results = self._call_all(
            [
                (owner, "warm", {"profiles": [profile_to_dict(p) for p in group]}, ())
                for owner, group in groups.items()
            ]
        )
        return sum(int(body["featurized"]) for body, _ in results)

    def features(self, profiles: list[Profile]) -> np.ndarray:
        """Cached frozen feature rows for profiles (gathered across workers)."""
        if not self._core.feature_space:
            raise ConfigurationError(
                "the wrapped judge has no feature-level interface (FeatureSpaceJudge)"
            )
        if not profiles:
            return self._local.features([])
        rows, _ = self._resolve_features(profiles)
        return rows

    # ------------------------------------------------------------- cache admin
    def cache_info(self) -> EngineCacheInfo:
        """Pool-level cache statistics (all workers merged)."""
        return EngineCacheInfo.merge(self.worker_cache_infos())

    def worker_cache_infos(self) -> tuple[EngineCacheInfo, ...]:
        """Per-worker cache statistics, index-aligned with the workers.

        A dead (or closed-away) worker contributes an all-zero entry instead
        of failing the report: this is the surface ``ClusterMetrics`` reads,
        and the moment after an incident is exactly when the operator needs
        the snapshot to still render.  A worker the heartbeat currently marks
        unhealthy gets the same treatment *without* a wire call — a stalled
        worker would block the report indefinitely, and reporting must never
        hang on the incident it is reporting.
        """
        zero = EngineCacheInfo(
            hits=0, misses=0, evictions=0, size=0, maxsize=0, featurized=0
        )
        infos = []
        for index in range(self.num_workers):
            if not self._healthy[index]:
                infos.append(zero)
                continue
            try:
                body, _ = self._call(index, "cache_info", {})
                infos.append(EngineCacheInfo(**body))
            except (WorkerCrashError, ConfigurationError):
                infos.append(zero)
        return tuple(infos)

    #: :class:`ClusterMetrics` discovers per-shard breakdowns through this
    #: name; a worker is the process-tier shard.
    shard_cache_infos = worker_cache_infos

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

    def snapshot(self) -> tuple[dict[ProfileKey, np.ndarray], ...]:
        """Per-worker cache exports (also retained for respawn warm-starts)."""
        results = self._call_all(
            [(index, "snapshot", {}, ()) for index in range(self.num_workers)]
        )
        exports = []
        for index, (body, arrays) in enumerate(results):
            keys = [
                (int(k[0]), float(k[1]), str(k[2]), int(k[3]), int(k[4]))
                for k in body["keys"]
            ]
            rows = arrays[0] if arrays else np.zeros((0, 0))
            export = {key: np.array(row, copy=True) for key, row in zip(keys, rows)}
            self._retained[index] = export
            exports.append(dict(export))
        return tuple(exports)

    @staticmethod
    def _restore_body(rows: dict[ProfileKey, np.ndarray]) -> dict:
        return {"keys": [[k[0], k[1], k[2], k[3], key_revision(k)] for k in rows]}

    def restore(self, snapshot: tuple[dict[ProfileKey, np.ndarray], ...]) -> int:
        """Repopulate worker caches from a snapshot; returns rows kept.

        Rows re-route by stable hash (any source shard/worker count restores
        into this pool) and are retained per worker for respawn warm-starts.
        """
        routed = route_snapshot_rows(snapshot, self.num_workers)
        calls = []
        for index, rows in enumerate(routed):
            self._retained[index] = {
                key: np.array(row, copy=True) for key, row in rows.items()
            }
            arrays = (np.stack(list(rows.values())),) if rows else ()
            calls.append((index, "restore", self._restore_body(rows), arrays))
        results = self._call_all(calls)
        return sum(int(body["imported"]) for body, _ in results)

    def _invalidate_worker(self, index: int, body: dict) -> int:
        """One INVALIDATE frame to one worker; rows dropped there.

        A dead worker answers 0 rather than failing the sweep: its retained
        warm-start rows were already purged gateway-side, which is the part
        that matters — a respawn cannot resurrect the stale rows.
        """
        try:
            handle = self._ensure_worker(index)
            response, _ = self._request_sync(
                handle, "invalidate", body, (), frame=wire.FRAME_INVALIDATE
            )
        except WorkerCrashError:
            return 0
        return int(response.get("invalidated", 0))

    def invalidate(self, uids: Iterable[int]) -> int:
        """Drop every cached feature row of the given users, pool-wide.

        Purges the gateway's retained snapshot rows for **all** workers first
        (so a later respawn warm-start cannot restore them), then sends the
        owner worker of each uid an ``INVALIDATE`` frame.  Returns rows
        dropped inside live workers.
        """
        uid_set = {int(uid) for uid in uids}
        if not uid_set or self._closed:
            return 0
        for retained in self._retained:
            if retained:
                for key in [k for k in retained if k[0] in uid_set]:
                    del retained[key]
        groups: dict[int, list[int]] = {}
        for uid in sorted(uid_set):
            groups.setdefault(shard_index(uid, self.num_workers), []).append(uid)
        dropped = sum(
            self._invalidate_worker(owner, {"uids": group})
            for owner, group in sorted(groups.items())
        )
        if dropped:
            self._observe("observe_invalidation", dropped)
        return dropped

    def invalidate_stale(self) -> int:
        """Sweep superseded-revision rows from every worker (and retained rows)."""
        if self._closed:
            return 0
        for retained in self._retained:
            if retained:
                for key in superseded_keys(retained):
                    retained.pop(key, None)
        dropped = sum(
            self._invalidate_worker(index, {"stale": True})
            for index in range(self.num_workers)
        )
        if dropped:
            self._observe("observe_invalidation", dropped)
        return dropped

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
        handle = self._ensure_worker(index)
        return asyncio.run_coroutine_threadsafe(
            self._ping_handle(handle), self._loop
        ).result(self.call_timeout)

    def worker_pids(self) -> tuple[int, ...]:
        """The OS pids of the current worker processes."""
        return tuple(handle.pid for handle in self._handles)

    def workers_alive(self) -> tuple[bool, ...]:
        """Gateway-side liveness flags (a death is noticed at the failing call)."""
        return tuple(handle.alive for handle in self._handles)

    # -------------------------------------------------------------- judgement
    @property
    def threshold(self) -> float:
        """The decision threshold applied by :meth:`predict` and :meth:`serve`."""
        return self._core.threshold

    @property
    def registry(self):
        """The POI registry behind the judge (engine-surface pass-through)."""
        return self._local.registry

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability per pair; bit-for-bit the single engine's.

        Both sides gather in one wire fan-out (each owner worker featurizes
        its misses as one batch, in true process parallelism); scoring reuses
        the engine's exact chunking, so results never depend on routing.
        """
        return self._core.predict_proba(pairs)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions per pair (judge's rule, like the engine)."""
        return self._core.predict(pairs)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """The ``N x N`` pairwise matrix, each profile featurized on its owner."""
        return self._core.probability_matrix(profiles)

    def serve(self, request: JudgeRequest) -> JudgeResponse:
        """Answer one typed judgement request (cache traffic summed over workers)."""
        return self._core.serve(request)

    def serve_batch(self, requests: Iterable[JudgeRequest]) -> list[JudgeResponse]:
        """Answer typed requests together, scoring them as one coalesced batch."""
        return self._core.serve_batch(requests)

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
        heartbeat = getattr(self, "_heartbeat_future", None)
        if heartbeat is not None:
            try:
                heartbeat.cancel()
            except Exception:
                pass
        for handle in getattr(self, "_handles", []):
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown_handle(handle), self._loop
                ).result(timeout)
            except Exception:
                pass
        for handle in getattr(self, "_handles", []):
            process = handle.process
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(2.0)
            if process.is_alive():
                process.kill()
                process.join(2.0)
        self._teardown_loop()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(judge={type(self.judge).__name__}, workers={self.num_workers}, "
            f"alive={sum(self.workers_alive())}/{self.num_workers})"
        )
