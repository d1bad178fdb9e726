"""The shard worker: one :class:`repro.api.ColocationEngine` in its own process.

Threads in :class:`repro.cluster.ShardedEngine` amortise call overhead but
share one GIL — featurization never runs truly in parallel.  A worker is the
process-tier shard: spawned via :func:`multiprocessing`'s ``spawn`` start
method, it rebuilds the fitted judge from a **bundle directory** written by
the gateway through the existing save/load path (:func:`repro.io.save_pipeline`
for pipelines; a documented pickle fallback for judges outside that format —
bootstrap only, never on the serving path), wraps it in a fresh
:class:`ColocationEngine` (its slice of the cluster's cache budget), connects
back to the gateway, and serves :mod:`repro.cluster.wire` frames in a loop.

A worker answers the operations the gateway's wire shard sends and nothing
else: ``gather`` (the hot path: feature rows as raw numpy payloads plus the
call's own cache traffic, including the indices of the profiles it
featurized, and the worker's cumulative cache counters), ``cache_info``,
``stats`` (its metrics registry), and ``snapshot`` / ``restore`` so a
respawned worker warm-starts from its predecessor's cache export; a
gateway-side warm is a ``gather`` whose rows it drops.  A ``gather``
validates its whole columnar batch first, looks every profile up by a key
built from its scalar row
(:func:`repro.cluster.wire.decode_keyed_profiles`), and builds
``Visit``/``Profile`` objects only for the store's misses, which it then
featurizes — store hits never decode their visits.  Decisions never happen
here: the gateway scores and decides through the shared
:class:`repro.api.JudgementCore`.  A
dedicated ``INVALIDATE`` frame drops cached rows by uid (or sweeps superseded
revisions) without going through the CALL path, so the gateway can propagate
profile mutations to every worker.

Lifecycle: the worker exits cleanly on a ``SHUTDOWN`` frame, on EOF (the
gateway closed or died — no orphan processes), and on ``SIGTERM``.  An
exception inside an operation becomes a typed error frame
(:func:`repro.cluster.wire.encode_error`) and the loop keeps serving; only a
broken connection ends it.

``repro-hisrect worker`` runs the same loop standalone (``--listen``) over a
pipeline directory, for deployments where workers are not child processes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import pickle  # repro: allow(wire-safety) — judge bundle files only, never on the wire
import signal
import socket
import sys

import numpy as np

from repro.cluster import wire
from repro.errors import ConfigurationError, WireProtocolError

#: Bundle manifest file name.
_MANIFEST = "bundle.json"


# -------------------------------------------------------------- judge bundles


def save_judge_bundle(judge, directory: str | pathlib.Path) -> pathlib.Path:
    """Write a fitted judge to ``directory`` for worker processes to load.

    Fitted :class:`repro.colocation.CoLocationPipeline` objects go through
    the canonical :func:`repro.io.save_pipeline` format (bitwise-exact
    restore, so worker feature rows match the parent's).  Anything else —
    registry-built judges outside the pipeline format, duck-typed test
    judges — falls back to a pickle file: acceptable at bootstrap (the
    gateway wrote it, the worker it spawned reads it), never on the wire.
    """
    from repro.colocation.pipeline import CoLocationPipeline

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if isinstance(judge, CoLocationPipeline):
        from repro.io.pipeline import save_pipeline

        save_pipeline(judge, directory / "pipeline")
        manifest = {"kind": "pipeline"}
    else:
        with open(directory / "judge.pkl", "wb") as handle:
            pickle.dump(judge, handle)  # repro: allow(wire-safety) — bundle bootstrap
        manifest = {"kind": "pickle"}
    (directory / _MANIFEST).write_text(json.dumps(manifest))
    return directory


def load_judge_bundle(directory: str | pathlib.Path):
    """Rebuild the judge a :func:`save_judge_bundle` directory describes."""
    directory = pathlib.Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise ConfigurationError(f"{directory} does not contain a worker bundle manifest")
    manifest = json.loads(manifest_path.read_text())
    kind = manifest.get("kind")
    if kind == "pipeline":
        from repro.io.pipeline import load_pipeline

        return load_pipeline(directory / "pipeline")
    if kind == "pickle":
        with open(directory / "judge.pkl", "rb") as handle:
            return pickle.load(handle)  # repro: allow(wire-safety) — bundle bootstrap
    raise ConfigurationError(f"unknown worker bundle kind {kind!r}")


# ----------------------------------------------------------- frame dispatching


def _keyed_profiles(body: dict, arrays: list[np.ndarray]):
    """The validated keys and miss builder of a ``gather`` CALL's batch."""
    return wire.decode_keyed_profiles(body.get("profiles"), arrays)


def handle_call(engine, payload: bytes) -> bytes:
    """Decode one CALL payload, run it on the engine, encode the RESULT payload.

    Raising is fine — the caller turns any exception into an error frame.
    """
    body, arrays = wire.decode_payload(payload)
    if not isinstance(body, dict):
        raise WireProtocolError(f"malformed call body: {body!r}")
    op = body.get("op")
    if op == "gather":
        from repro.obs import STAGE_GATHER, get_tracer

        tracer = get_tracer()
        reply = {}
        if tracer.enabled:
            # Adopt the gateway's trace id (when one rode the CALL body) so
            # this worker's spans merge into the caller's trace; the stage
            # histogram lands in this process's registry either way, which
            # the "stats" op exports back to the gateway.
            trace = tracer.start_trace(trace_id=body.get("trace"))
            with tracer.activate(trace), tracer.stage(STAGE_GATHER):
                rows, stats = engine.resolve_keyed(*_keyed_profiles(body, arrays))
            if body.get("trace"):
                reply["trace"] = trace.trace_id
                reply["spans"] = trace.stage_list()
        else:
            rows, stats = engine.resolve_keyed(*_keyed_profiles(body, arrays))
        return wire.encode_payload(
            {
                **reply,
                "hits": stats.hits,
                "misses": stats.misses,
                "featurized": stats.featurized,
                "invalidated": stats.invalidated,
                "missed": list(stats.missed),
                # This worker's cumulative counters, so the gateway can carry
                # them over a respawn without a cache_info call of its own.
                "cache": vars(engine.cache_info()),
            },
            [rows],
        )
    if op == "cache_info":
        return wire.encode_payload(dataclasses.asdict(engine.cache_info()))
    if op == "stats":
        # The STATS op: this process's metrics-registry snapshot, for the
        # gateway to merge into a cluster-truthful view (obs_snapshot()).
        from repro.obs import get_registry

        return wire.encode_payload({"registry": get_registry().snapshot()})
    if op == "snapshot":
        export = engine.store.export()
        rows = [np.stack(list(export.values()))] if export else []
        return wire.encode_payload({"keys": wire.encode_keys(export)}, rows)
    if op == "restore":
        keys = wire.decode_keys(body.get("keys", []))
        rows = arrays[0] if arrays else np.zeros((0, 0))
        if len(keys) != len(rows):
            raise WireProtocolError(
                f"restore carries {len(keys)} keys but {len(rows)} rows"
            )
        imported = engine.store.import_rows(dict(zip(keys, rows)))
        return wire.encode_payload({"imported": imported})
    raise ConfigurationError(f"unknown worker operation {op!r}")


def handle_invalidate(engine, payload: bytes) -> bytes:
    """Decode one INVALIDATE payload, drop the rows, encode the RESULT payload.

    The body is ``{"uids": [...]}`` for targeted invalidation or
    ``{"stale": true}`` for a superseded-revision sweep.
    """
    body, _ = wire.decode_payload(payload)
    if not isinstance(body, dict):
        raise WireProtocolError(f"malformed invalidate body: {body!r}")
    if body.get("stale"):
        dropped = engine.invalidate_stale()
    else:
        dropped = engine.invalidate([int(uid) for uid in body.get("uids", [])])
    return wire.encode_payload({"invalidated": int(dropped)})


def serve_connection(sock, engine) -> None:
    """Serve wire frames on a connected socket until SHUTDOWN or EOF.

    Operation errors become typed error frames and the loop continues; only
    a broken connection (or a shutdown) ends it.
    """
    while True:
        frame = wire.recv_frame(sock)
        if frame is None:
            return  # clean EOF: the peer is gone
        frame_type, payload = frame
        if frame_type == wire.FRAME_SHUTDOWN:
            return
        if frame_type == wire.FRAME_PING:
            wire.send_frame(sock, wire.FRAME_PONG, payload)
            continue
        if frame_type == wire.FRAME_INVALIDATE:
            try:
                result = handle_invalidate(engine, payload)
            except Exception as exc:
                wire.send_frame(sock, wire.FRAME_ERROR, wire.encode_error(exc))
                continue
            wire.send_frame(sock, wire.FRAME_RESULT, result)
            continue
        if frame_type != wire.FRAME_CALL:
            wire.send_frame(
                sock,
                wire.FRAME_ERROR,
                wire.encode_error(
                    WireProtocolError(f"unexpected frame type {frame_type} (expected CALL)")
                ),
            )
            continue
        try:
            result = handle_call(engine, payload)
        except Exception as exc:
            wire.send_frame(sock, wire.FRAME_ERROR, wire.encode_error(exc))
            continue
        wire.send_frame(sock, wire.FRAME_RESULT, result)


def _build_engine(judge, *, cache_size: int, arena_dir: str | None = None):
    from repro.api.engine import ColocationEngine

    return ColocationEngine(judge, cache_size=cache_size, arena_dir=arena_dir)


def _install_sigterm_exit() -> None:
    """Make SIGTERM unwind the serve loop instead of hard-killing the process."""
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    except ValueError:  # not the main thread (in-process tests): skip
        pass


def run_worker_client(
    judge,
    host: str,
    port: int,
    token: str,
    worker_id: int,
    *,
    cache_size: int = 4096,
    arena_dir: str | None = None,
) -> None:
    """Connect to a gateway, identify with a HELLO frame, serve until shutdown.

    The HELLO carries ``worker_id`` + the spawn ``token``, so a stray
    connection cannot impersonate a worker.  The CLI's ``worker --connect``
    runs this over a loaded pipeline; spawned workers come in through
    :func:`worker_main`.  With ``arena_dir`` the engine tiers onto a memmap
    arena slice — a respawned worker pointed at the same slice maps its
    predecessor's warm set off disk instead of receiving it over the wire.
    """
    _install_sigterm_exit()
    engine = _build_engine(judge, cache_size=cache_size, arena_dir=arena_dir)
    sock = socket.create_connection((host, port), timeout=60.0)
    try:
        sock.settimeout(None)
        # Request/response round trips dominate the wire: never Nagle them.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        wire.send_frame(
            sock,
            wire.FRAME_HELLO,
            wire.encode_payload(
                {"worker_id": worker_id, "token": token, "pid": os.getpid()}
            ),
        )
        serve_connection(sock, engine)
    finally:
        sock.close()
        engine.close()  # flush + compact the arena slice on clean exit


def worker_main(
    bundle_dir: str,
    host: str,
    port: int,
    token: str,
    worker_id: int,
    cache_size: int = 4096,
    arena_dir: str | None = None,
) -> None:
    """Entry point of a spawned worker process: load the bundle, then serve.

    Tracing is enabled process-wide here: a worker process exists only to
    serve, so its registry accumulates stage/store-event histograms from
    boot and the gateway's ``stats`` op always has something to merge.  The
    per-call trace-id spans still only ride replies when the gateway asks
    (a ``trace`` key on the CALL body).
    """
    from repro.obs import configure

    configure(enabled=True)
    run_worker_client(
        load_judge_bundle(bundle_dir),
        host,
        port,
        token,
        worker_id,
        cache_size=cache_size,
        arena_dir=arena_dir,
    )


def run_worker_listener(
    judge,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache_size: int = 4096,
    arena_dir: str | None = None,
    once: bool = False,
    ready=None,
) -> None:
    """Standalone mode: listen and serve clients one connection at a time.

    The CLI's ``repro-hisrect worker --listen`` runs this over a loaded
    pipeline; ``ready`` (if given) is called with the bound ``(host, port)``
    once the socket listens — the hook tests and process managers use to
    learn an ephemeral port.  ``once`` exits after the first connection.
    """
    _install_sigterm_exit()
    engine = _build_engine(judge, cache_size=cache_size, arena_dir=arena_dir)
    listener = socket.create_server((host, port))
    try:
        if ready is not None:
            ready(listener.getsockname()[:2])
        while True:
            client, _ = listener.accept()
            try:
                client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                serve_connection(client, engine)
            finally:
                client.close()
            if once:
                return
    finally:
        listener.close()
        engine.close()
