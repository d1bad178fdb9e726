""":class:`MicroBatcher` — coalesce concurrent serving requests into batches.

Every service today calls the engine synchronously with caller-sized batches:
a notification window scores 4 pairs, then another scores 6, and each call
pays the fixed featurize/score invocation overhead that the PR 2–3 batch
kernels amortise only across *one* call.  The micro-batcher turns concurrency
into batch size: requests enqueue, a flusher drains the queue every
``max_delay_ms`` (or as soon as ``max_batch`` work items accumulate) and
issues **one** featurize+score call for everything in the flush — so a
skewed user mix is deduplicated across requests by the engine's
within-call dedup, and every profile featurizes in a large batch.

Two flusher threads keep at most two flushes in flight (a fixed depth, not
an option): while flush *k* waits on the engine — a worker process
featurizing, say — flush *k+1* collects, routes and serializes its requests
and queues its wire call behind *k*'s, and flush *k*'s scoring and
completions then overlap *k+1*'s featurization.  Idle flushers wait on
their own condition and a submit notifies one of them, so an idle batcher
wakes exactly one thread per submit.

Backpressure is explicit: the queue is bounded at ``max_queue`` requests and
an overflowing submit either raises :class:`repro.errors.EngineOverloadError`
(``overflow="reject"``, the default — shed load at the edge) or blocks until
the flusher catches up (``overflow="block"`` — smooth producers that can
wait).

Typed :class:`repro.api.JudgeRequest` serving goes through the batcher too:
``submit_serve`` requests — including per-request thresholds — coalesce into
the same flushes and resolve through the engine's ``serve_batch`` (one
feature gather and one scorer call for the whole flush, decisions and cache
accounting still per request), so the serving tier's front door goes
*through* the batcher instead of around it.  The batcher itself speaks the
engine surface (``predict_proba`` / ``probability_matrix`` / ``warm`` /
``serve`` plus the ``registry`` / ``judge`` / ``threshold`` / ``cache_info``
pass-throughs), so every :mod:`repro.service` application can be fronted by
one.  Cache
invalidations (``submit_invalidate`` / ``invalidate_stale``) queue like any
other request but are processed *first* in their flush, so a profile
mutation always lands before the requests flushed alongside it gather rows.
A flush holding an invalidation is a **barrier**: it starts only when no
flush is in flight, and no flush starts until it finishes, so an
invalidation wins over every request queued with or after it even with two
flushes in flight.

Per-request cache attribution stays per flush (a row the flush's gather
featurized is a miss for its first request and a hit for later ones).  Two
in-flight flushes can share a profile: thread shards and worker shards run
their gathers one at a time per owner, so the second flush finds the row
the first one featurized and reports a hit.  Over a bare
:class:`repro.api.ColocationEngine` both gathers may miss and featurize it,
and both count it — the engine's documented rule for concurrent callers.

Results come back as :class:`concurrent.futures.Future`; the ``score`` /
``probability_matrix`` / ``warm`` / ``serve`` convenience wrappers submit
and wait.

The flusher threads are deliberately hard to kill: metrics hooks are
guarded (a user-supplied ``metrics`` object raising in ``observe_flush`` /
``observe_latency`` cannot take one down), an exception escaping a flush
fails that flush's futures and keeps the loop alive, and if a thread dies
anyway (a ``BaseException``), every queued future fails with
:class:`EngineOverloadError` and subsequent submits raise instead of
waiting forever on a flush that will never come; the other flusher
finishes the flush it holds and exits.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.api.messages import JudgeRequest, JudgeResponse
from repro.cluster.metrics import ClusterMetrics
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError, EngineOverloadError
from repro.obs import STAGE_QUEUE_WAIT, get_tracer

#: Flushes in flight at once.  Two is double buffering: one flush waits on
#: the engine while the other collects, routes and scores.  Fixed — deeper
#: pipelines only queue more calls behind the same engine.
_FLUSH_DEPTH = 2


@dataclass
class _Pending:
    """One enqueued request awaiting the next flush."""

    kind: str  # "score" | "matrix" | "warm" | "serve" | "invalidate"
    payload: object  # pairs/profiles list, the JudgeRequest (serve), or
    # ("uids", [uid, ...]) / ("stale", None) for invalidations
    weight: int  # pairs (score/serve) or profiles (matrix/warm) — the batch budget
    enqueued: float  # batcher clock reading at submission
    future: Future = field(default_factory=Future)


class MicroBatcher:
    """Async request coalescer over a (sharded or single) engine.

    Parameters
    ----------
    engine:
        A :class:`repro.api.ColocationEngine`,
        :class:`repro.cluster.ShardedEngine` or
        :class:`repro.cluster.WorkerPool` — anything exposing
        ``predict_proba`` / ``probability_matrix`` / ``warm``.
    max_batch:
        Flush as soon as this many work items (pairs + profiles) are queued.
    max_delay_ms:
        Flush no later than this after the oldest queued request arrived.
        ``0`` flushes as fast as the flusher can loop — requests still
        coalesce while a previous flush is in flight.
    max_queue:
        Bound on queued *requests*; submits beyond it trigger ``overflow``.
    overflow:
        ``"reject"`` raises :class:`EngineOverloadError` immediately;
        ``"block"`` waits for queue space.
    metrics:
        Optional externally owned :class:`ClusterMetrics`; by default the
        batcher creates one (exposed as :attr:`metrics`).
    time_fn:
        The monotonic clock used for queue deadlines and latency accounting
        (``time.perf_counter`` by default).  Injectable so timing tests
        assert exact values against a fake clock instead of sleeping.
    """

    def __init__(
        self,
        engine,
        *,
        max_batch: int = 256,
        max_delay_ms: float = 2.0,
        max_queue: int = 1024,
        overflow: str = "reject",
        metrics: ClusterMetrics | None = None,
        time_fn: Callable[[], float] | None = None,
    ):
        if not hasattr(engine, "predict_proba"):
            raise ConfigurationError("engine must expose predict_proba(pairs)")
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ConfigurationError("max_delay_ms must be >= 0")
        if max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        if overflow not in ("reject", "block"):
            raise ConfigurationError('overflow must be "reject" or "block"')
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay = max_delay_ms / 1e3
        self.max_queue = max_queue
        self.overflow = overflow
        self._time = time_fn if time_fn is not None else time.perf_counter
        self.metrics = metrics if metrics is not None else ClusterMetrics(engine)
        # One lock, two wait queues: blocked submitters wait on _cond, idle
        # flushers on _wake — so a submit wakes one flusher, not everyone.
        lock = threading.RLock()
        self._cond = threading.Condition(lock)
        self._wake = threading.Condition(lock)
        self._queue: deque[_Pending] = deque()  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond
        #: The BaseException that killed a flusher, if any.  Once set,
        #: every queued future has been failed and every subsequent submit
        #: raises instead of waiting on a dead thread.
        self._death: BaseException | None = None  # guarded-by: _cond
        self._metrics_errors = 0  # guarded-by: _cond
        #: Flushes picked up and not yet finished (at most _FLUSH_DEPTH).
        self._in_flight = 0  # guarded-by: _cond
        #: A flush holding an invalidation is in flight: nothing else starts.
        self._barrier = False  # guarded-by: _cond
        self._flushers = [
            threading.Thread(target=self._run, name=f"repro-microbatcher-{index}", daemon=True)
            for index in range(_FLUSH_DEPTH)
        ]
        for flusher in self._flushers:
            flusher.start()

    # ------------------------------------------------------------- submission
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush."""
        with self._cond:
            return len(self._queue)

    @property
    def metrics_errors(self) -> int:
        """Exceptions swallowed from the metrics hooks (a broken user-supplied
        ``metrics`` object degrades telemetry, never the serving path)."""
        with self._cond:
            return self._metrics_errors

    def _observe(self, hook: str, *args, **kwargs) -> None:
        """Call a metrics hook without letting it break serving.

        The metrics object may be user-supplied; an exception escaping a
        hook inside the flusher used to kill the ``repro-microbatcher``
        thread silently, hanging every queued and future submission.
        """
        try:
            getattr(self.metrics, hook)(*args, **kwargs)
        except Exception:
            with self._cond:  # reentrant: safe from the reject path too
                self._metrics_errors += 1

    def _raise_if_unavailable(self) -> None:  # holds: _cond
        """Caller must hold ``_cond``."""
        if self._death is not None:
            raise EngineOverloadError(
                "the MicroBatcher flusher died; no further flushes will run"
            ) from self._death
        if self._closed:
            raise ConfigurationError("the MicroBatcher is closed")

    def _submit(self, kind: str, payload, weight: int) -> Future:
        pending = _Pending(kind=kind, payload=payload, weight=weight, enqueued=self._time())
        if weight == 0:
            # Nothing to flush: resolve immediately, even mid-close — an
            # empty answer needs no flusher.
            pending.future.set_result(_EMPTY_RESULTS[kind]())
            return pending.future
        with self._cond:
            self._raise_if_unavailable()
            while len(self._queue) >= self.max_queue:
                if self.overflow == "reject":
                    self._observe("observe_rejection")
                    raise EngineOverloadError(
                        f"micro-batch queue is full ({self.max_queue} requests)"
                    )
                self._cond.wait()
                self._raise_if_unavailable()
            self._queue.append(pending)
            self._wake.notify()  # one idle flusher, if any
        return pending.future

    def submit_score(self, pairs: list[Pair]) -> Future:
        """Queue pairs for scoring; resolves to the probability array."""
        pairs = list(pairs)
        return self._submit("score", pairs, len(pairs))

    def submit_probability_matrix(self, profiles: list[Profile]) -> Future:
        """Queue a pairwise-matrix request; resolves to the ``N x N`` matrix."""
        profiles = list(profiles)
        return self._submit("matrix", profiles, len(profiles))

    def submit_warm(self, profiles: list[Profile]) -> Future:
        """Queue a cache pre-warm; resolves to rows this request featurized
        (overlap already warmed earlier in the flush counts toward the
        earlier request, mirroring ``ColocationEngine.warm``'s per-call
        accounting)."""
        profiles = list(profiles)
        return self._submit("warm", profiles, len(profiles))

    def submit_serve(self, request: JudgeRequest) -> Future:
        """Queue one typed :class:`JudgeRequest`; resolves to its
        :class:`JudgeResponse`.

        Serve requests coalesce into flushes like every other kind — all the
        flush's pairs gather and score in one ``serve_batch`` call on the
        engine — while thresholds, decisions and cache accounting stay per
        request (a row featurized for the flush is a miss for the first
        request containing it, a hit for later ones).
        """
        if not hasattr(self.engine, "serve_batch"):
            raise ConfigurationError(
                "the engine does not expose serve_batch(requests); "
                "wrap the judge in a ColocationEngine or ShardedEngine"
            )
        if request.threshold is not None and not 0.0 <= request.threshold <= 1.0:
            raise ConfigurationError("request threshold must lie in [0, 1]")
        if not request.pairs:
            # Nothing to flush; answer synchronously (the engine resolves the
            # effective threshold for the empty response).
            future: Future = Future()
            future.set_result(self.engine.serve(request))
            return future
        return self._submit("serve", request, len(request.pairs))

    def submit_invalidate(self, uids: list[int]) -> Future:
        """Queue a cache invalidation for the given users; resolves to rows
        dropped.

        Invalidations are processed **first** in their flush, before any
        score/serve gather in the same batch touches the cache — a mutation
        observed before a flush cannot lose the race against requests queued
        alongside it, and a request whose profile revision was superseded
        re-gathers fresh rows instead of reading dropped ones.
        """
        if not hasattr(self.engine, "invalidate"):
            raise ConfigurationError(
                "the engine does not expose invalidate(uids); "
                "wrap the judge in a ColocationEngine, ShardedEngine or WorkerPool"
            )
        uids = [int(uid) for uid in uids]
        return self._submit("invalidate", ("uids", uids), len(uids))

    def submit_invalidate_stale(self) -> Future:
        """Queue a superseded-revision sweep; resolves to rows dropped."""
        if not hasattr(self.engine, "invalidate_stale"):
            raise ConfigurationError(
                "the engine does not expose invalidate_stale(); "
                "wrap the judge in a ColocationEngine, ShardedEngine or WorkerPool"
            )
        return self._submit("invalidate", ("stale", None), 1)

    def score(self, pairs: list[Pair]) -> np.ndarray:
        """Submit and wait: co-location probability per pair."""
        return self.submit_score(pairs).result()

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Engine-surface alias of :meth:`score`, so services can be fronted
        by a batcher wherever they take an engine."""
        return self.score(pairs)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """Submit and wait: the pairwise probability matrix."""
        return self.submit_probability_matrix(profiles).result()

    def warm(self, profiles: list[Profile]) -> int:
        """Submit and wait: pre-featurize profiles into the engine cache."""
        return self.submit_warm(profiles).result()

    def serve(self, request: JudgeRequest) -> JudgeResponse:
        """Submit and wait: answer one typed judgement request."""
        return self.submit_serve(request).result()

    def invalidate(self, uids: list[int]) -> int:
        """Submit and wait: drop cached rows of the given users."""
        return self.submit_invalidate(uids).result()

    def invalidate_stale(self) -> int:
        """Submit and wait: sweep superseded-revision rows from the cache."""
        return self.submit_invalidate_stale().result()

    # ----------------------------------------------------- engine pass-throughs
    @property
    def judge(self):
        """The raw judge behind the engine (engine-surface pass-through)."""
        return getattr(self.engine, "judge", self.engine)

    @property
    def registry(self):
        """The POI registry behind the engine (engine-surface pass-through)."""
        return self.engine.registry

    @property
    def threshold(self) -> float:
        """The engine's decision threshold (engine-surface pass-through)."""
        return self.engine.threshold

    def cache_info(self):
        """The engine's feature-cache statistics (engine-surface pass-through)."""
        return self.engine.cache_info()

    # -------------------------------------------------------------- lifecycle
    def close(self, drain: bool = True) -> None:
        """Stop the flushers.  ``drain=True`` serves queued requests first;
        ``drain=False`` fails them with :class:`EngineOverloadError`.  Either
        way the flushes already in flight finish and answer their callers
        before this returns."""
        with self._cond:
            if not self._closed:
                self._closed = True
                if not drain:
                    while self._queue:
                        pending = self._queue.popleft()
                        pending.future.set_exception(
                            EngineOverloadError("the MicroBatcher was closed")
                        )
                self._notify_everyone()
        current = threading.current_thread()
        for flusher in self._flushers:
            if flusher is not current:  # a future's callback may close from a flush
                flusher.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ---------------------------------------------------------------- flusher
    def _notify_everyone(self) -> None:  # holds: _cond
        """Wake submitters and both flushers (close and death)."""
        self._cond.notify_all()
        self._wake.notify_all()

    def _run(self) -> None:
        try:
            while True:
                taken = self._next_batch()
                if taken is None:
                    return
                batch, barrier = taken
                try:
                    self._flush(batch)
                except Exception as exc:
                    # _flush forwards engine errors to its futures itself;
                    # anything still escaping fails this batch loudly and
                    # keeps the flusher alive for the next one.
                    for pending in batch:
                        if not pending.future.done():
                            pending.future.set_exception(exc)
                finally:
                    with self._cond:
                        self._in_flight -= 1
                        if barrier:
                            self._barrier = False
                        if self._queue:
                            # A flush held back by this one may start.  An
                            # empty queue has no such flush; a wake-up now
                            # would only cost the callers this flush answered.
                            self._wake.notify()
        except BaseException as exc:
            # The flusher is dying (KeyboardInterrupt, MemoryError, ...):
            # leaving the queue silently unserved would hang every waiter.
            self._die(exc)
            raise

    def _die(self, cause: BaseException) -> None:
        """Fail every queued future and refuse new submissions."""
        with self._cond:
            self._death = cause
            self._closed = True
            while self._queue:
                pending = self._queue.popleft()
                error = EngineOverloadError(
                    f"the MicroBatcher flusher died: {cause!r}"
                )
                error.__cause__ = cause
                pending.future.set_exception(error)
            self._notify_everyone()  # blocked submitters raise, the other flusher exits

    def _next_batch(self) -> tuple[list[_Pending], bool] | None:
        """Block until a flush is due and allowed; take up to ``max_batch``
        work items.

        Returns the batch and whether it is a barrier (it holds an
        invalidation), or ``None`` once the batcher is closed and drained.
        """
        with self._cond:
            while True:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if not self._queue:
                    return None  # closed and drained
                deadline = self._queue[0].enqueued + self.max_delay
                while (
                    self._queue
                    and not self._closed
                    and sum(p.weight for p in self._queue) < self.max_batch
                ):
                    remaining = deadline - self._time()
                    if remaining <= 0:
                        break
                    self._wake.wait(remaining)
                if not self._queue:
                    continue  # the other flusher took it, or a close/death drained it
                size = weight = 0
                barrier = False
                for pending in self._queue:
                    if size and weight >= self.max_batch:
                        break
                    size += 1
                    weight += pending.weight
                    barrier = barrier or pending.kind == "invalidate"
                if self._barrier or (barrier and self._in_flight):
                    # A barrier waits for every flush in flight, and nothing
                    # starts while one runs: invalidations win over later
                    # requests.  The finishing flush notifies.
                    self._wake.wait()
                    continue
                batch = [self._queue.popleft() for _ in range(size)]
                self._in_flight += 1
                self._barrier = barrier
                if self._queue:
                    self._wake.notify()  # the rest is the other flusher's
                self._cond.notify_all()  # wake blocked submitters: the queue has room
                return batch, barrier

    def _flush(self, batch: list[_Pending]) -> None:
        if not batch:
            return
        depth = self.queue_depth
        started = self._time()
        tracer = get_tracer()
        if tracer.enabled:
            # The time between submission and this flush picking the request
            # up is the queue_wait stage — already over by the time any trace
            # exists, so it is recorded from the pending's enqueue stamp.
            for pending in batch:
                tracer.record_stage(
                    STAGE_QUEUE_WAIT, (started - pending.enqueued) * 1e3
                )
        try:
            # Invalidations first: a flush is the batcher's unit of ordering,
            # and a mutation queued before (or alongside) a request must win —
            # the request's gather then repopulates fresh rows instead of the
            # flush re-reading rows the caller already declared dead.
            for pending in batch:
                if pending.kind != "invalidate":
                    continue
                mode, target = pending.payload
                if mode == "stale":
                    dropped = self.engine.invalidate_stale()
                else:
                    dropped = self.engine.invalidate(target)
                pending.future.set_result(int(dropped))

            score_requests = [p for p in batch if p.kind == "score"]
            if score_requests:
                all_pairs: list[Pair] = []
                for pending in score_requests:
                    all_pairs.extend(pending.payload)
                probabilities = self.engine.predict_proba(all_pairs)
                offset = 0
                for pending in score_requests:
                    stop = offset + pending.weight
                    pending.future.set_result(probabilities[offset:stop])
                    offset = stop

            serve_requests = [p for p in batch if p.kind == "serve"]
            if serve_requests:
                # One serve_batch call for the whole flush: every request's
                # pairs gather and score together (the engine's
                # JudgementCore keeps thresholds, decisions and cache stats
                # per request).
                responses = list(
                    self.engine.serve_batch([p.payload for p in serve_requests])
                )
                if len(responses) != len(serve_requests):
                    # Fail loudly into the except below — a silent zip
                    # truncation would leave the surplus futures hanging.
                    raise RuntimeError(
                        f"serve_batch returned {len(responses)} responses "
                        f"for {len(serve_requests)} requests"
                    )
                for pending, response in zip(serve_requests, responses):
                    if tracer.enabled and response.trace is not None:
                        # Prepend this request's queue_wait to the trace the
                        # core built (the registry already has it, above).
                        # Every transport builds a fresh report per response,
                        # so the stage list is this request's own to extend.
                        wait_ms = (started - pending.enqueued) * 1e3
                        response.trace.setdefault("stages", []).insert(
                            0, [STAGE_QUEUE_WAIT, wait_ms]
                        )
                    pending.future.set_result(response)

            # Warm/matrix requests run per request, in flush order: each call
            # is still one batched featurize, the engine's cache deduplicates
            # overlap between them, and every warm future reports the rows
            # *its own* call featurized — not the whole flush's total.
            for pending in batch:
                if pending.kind == "matrix":
                    pending.future.set_result(self.engine.probability_matrix(pending.payload))
                elif pending.kind == "warm":
                    featurized = (
                        self.engine.warm(pending.payload)
                        if hasattr(self.engine, "warm")
                        else 0
                    )
                    pending.future.set_result(featurized)
        except BaseException as exc:  # noqa: BLE001 - forwarded to every caller
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise  # fatal (KeyboardInterrupt, ...): let _run declare death
        finally:
            finished = self._time()
            self._observe(
                "observe_flush",
                num_requests=len(batch),
                num_pairs=sum(p.weight for p in batch if p.kind in ("score", "serve")),
                queue_depth=depth,
                elapsed_ms=(finished - started) * 1e3,
                num_serves=sum(1 for p in batch if p.kind == "serve"),
            )
            for pending in batch:
                self._observe("observe_latency", (finished - pending.enqueued) * 1e3)


#: Immediate results for zero-weight submissions, per request kind ("serve"
#: is absent: an empty JudgeRequest resolves synchronously in submit_serve,
#: where the engine supplies the effective threshold).
_EMPTY_RESULTS = {
    "score": lambda: np.zeros(0),
    "matrix": lambda: np.zeros((0, 0)),
    "warm": lambda: 0,
    "invalidate": lambda: 0,
}
