"""Request-scoped tracing: spans, traces, and the :class:`Tracer`.

One :class:`Trace` is created per :class:`repro.api.JudgeRequest` inside the
shared decision path (:meth:`repro.api.JudgementCore.serve_batch`), so every
transport — engine, sharded, batcher, worker pool — reports the **same stage
taxonomy** without transport-specific instrumentation:

============== ==============================================================
stage          measured where
============== ==============================================================
queue_wait     :class:`repro.cluster.MicroBatcher` — enqueue → flush pickup
gather         ``JudgementCore`` — feature resolution for one request
featurize      inside gather — the cache-miss featurization batch
score          ``JudgementCore`` — the single batched scorer call and the
               decisions cut from its scores
wire_serialize :class:`repro.cluster.WorkerPool` — building CALL frame bodies
wire_rtt       ``WorkerPool`` — gather fan-out round-trip (includes the
               worker-side gather/featurize it encloses)
============== ==============================================================

``featurize`` nests inside ``gather`` and the ``wire_*`` stages nest inside
the pool's ``gather``, so a request's *wall* time decomposes into the
non-overlapping stages ``queue_wait + gather + score`` (the property
``benchmarks/bench_observability.py`` guards).  Store-tier events
(``hot_hit`` / ``cold_hit`` / ``promote`` / ``demote``) are registry-only
histograms — per-lookup timings, too fine-grained to ride individual traces.

Activation uses a :class:`contextvars.ContextVar`, which does **not** cross
thread boundaries: the sharded engine re-activates the caller's trace inside
its shard threads (see ``repro.cluster.sharded._EngineShard._gather``), and
the process pool sends the trace id across the wire and merges the worker's
spans back.

Everything is gated on :attr:`Tracer.enabled`: disabled, ``stage()`` returns
a shared no-op context manager and costs one attribute read — the ≤5%
overhead guarantee the benchmarks enforce.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterable, NamedTuple

from repro.obs.registry import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry

# --------------------------------------------------------------------- stages
STAGE_QUEUE_WAIT = "queue_wait"
STAGE_GATHER = "gather"
STAGE_FEATURIZE = "featurize"
STAGE_SCORE = "score"
STAGE_WIRE_SERIALIZE = "wire_serialize"
STAGE_WIRE_RTT = "wire_rtt"

#: The canonical stage taxonomy every transport draws from.
STAGES = frozenset(
    {
        STAGE_QUEUE_WAIT,
        STAGE_GATHER,
        STAGE_FEATURIZE,
        STAGE_SCORE,
        STAGE_WIRE_SERIALIZE,
        STAGE_WIRE_RTT,
    }
)

EVENT_HOT_HIT = "hot_hit"
EVENT_COLD_HIT = "cold_hit"
EVENT_PROMOTE = "promote"
EVENT_DEMOTE = "demote"

#: Store-tier event taxonomy (registry-only histograms).
STORE_EVENTS = frozenset({EVENT_HOT_HIT, EVENT_COLD_HIT, EVENT_PROMOTE, EVENT_DEMOTE})

STAGE_METRIC = "repro_stage_latency_ms"
STORE_EVENT_METRIC = "repro_store_event_ms"

#: Source of fresh trace ids: a private generator (seeded from the OS at
#: import, untouched by ``random.seed``) draws a 64-bit id without the
#: syscall and object construction ``uuid.uuid4`` costs on every request.
_TRACE_IDS = random.Random()


class Span(NamedTuple):
    """One timed stage inside a trace (immutable; a tuple, so cheap to make).

    ``start_ms`` is relative to the trace's creation (monotonic clock), so
    spans from different processes can sit in one trace without sharing an
    epoch; worker-merged spans carry ``start_ms=None``.
    """

    name: str
    duration_ms: float
    span_id: int
    parent_id: int | None = None
    start_ms: float | None = None


class Trace:
    """A per-request collection of spans, thread-safe to record into."""

    __slots__ = ("trace_id", "_clock", "_t0", "_lock", "_ids", "spans")

    def __init__(self, trace_id: str, clock: Callable[[], float]):
        self.trace_id = trace_id
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []

    def next_id(self) -> int:
        return next(self._ids)

    def record(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start: float,
        duration_ms: float,
    ) -> None:
        span = Span(name, duration_ms, span_id, parent_id, (start - self._t0) * 1e3)
        with self._lock:
            self.spans.append(span)

    def add(self, name: str, duration_ms: float, parent_id: int | None = None) -> None:
        """Append an externally timed span (e.g. merged from a worker)."""
        with self._lock:
            self.spans.append(Span(name, float(duration_ms), next(self._ids), parent_id))

    def duration_of(self, name: str) -> float:
        """Total milliseconds recorded under one stage name."""
        with self._lock:
            return sum(span.duration_ms for span in self.spans if span.name == name)

    def stage_list(self) -> list[list]:
        """``[[name, duration_ms], ...]`` in record order (JSON/wire-friendly)."""
        with self._lock:
            return [[span.name, span.duration_ms] for span in self.spans]

    def report(self) -> dict:
        """The JSON-friendly form attached to ``JudgeResponse.trace``."""
        return {"trace_id": self.trace_id, "stages": self.stage_list()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.trace_id}, spans={len(self.spans)})"


#: The active (trace, enclosing span id) for the current execution context.
_ACTIVE: ContextVar[tuple[Trace, int | None] | None] = ContextVar(
    "repro_obs_active_trace", default=None
)


class _NoopStage:
    """Shared do-nothing context manager — the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopStage":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_STAGE = _NoopStage()


class _StageTimer:
    """Times one stage: registry histogram always, active trace when present."""

    __slots__ = ("_tracer", "_name", "_start", "_trace", "_span_id", "_parent_id", "_token")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_StageTimer":
        active = _ACTIVE.get()
        if active is None:
            self._trace = None
            self._span_id = None
            self._parent_id = None
            self._token = None
        else:
            trace, parent_id = active
            self._trace = trace
            self._span_id = trace.next_id()
            self._token = _ACTIVE.set((trace, self._span_id))
            self._parent_id = parent_id
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration_ms = (self._tracer.clock() - self._start) * 1e3
        self._tracer._observe_stage(self._name, duration_ms)
        if self._trace is not None:
            _ACTIVE.reset(self._token)
            self._trace.record(
                self._name, self._span_id, self._parent_id, self._start, duration_ms
            )
        return False


def _child(family, children: dict, value: str):
    """The child of one-label ``family`` for ``value``, memoised in ``children``."""
    child = children.get(value)
    if child is None:
        child = children[value] = family.labels(**{family.label_names[0]: value})
    return child


class _Activation:
    """Context manager behind :meth:`Tracer.activate` (a class, not a
    generator: it runs on every traced request)."""

    __slots__ = ("_trace", "_token")

    def __init__(self, trace: Trace | None):
        self._trace = trace
        self._token = None

    def __enter__(self) -> Trace | None:
        if self._trace is not None:
            self._token = _ACTIVE.set((self._trace, None))
        return self._trace

    def __exit__(self, *exc_info) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
        return False


class Tracer:
    """The tracing front end: stage timers, trace lifecycle, slow hooks.

    Parameters
    ----------
    enabled:
        Master switch.  Disabled, :meth:`stage` returns a shared no-op and
        :meth:`start_trace` is never reached by the serving hot path.
    registry:
        Where stage histograms accumulate (a fresh one by default).
    time_fn:
        Injectable monotonic clock — tests pass a fake and assert exact
        durations instead of sleeping.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        registry: MetricsRegistry | None = None,
        time_fn: Callable[[], float] = time.perf_counter,
    ):
        self.enabled = bool(enabled)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.clock = time_fn
        self._slow_hooks: list[tuple[float, Callable]] = []
        self._stage_family = self.registry.histogram(
            STAGE_METRIC,
            "Per-stage serving latency (milliseconds)",
            labels=("stage",),
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
        )
        #: label value -> histogram child, so an observation skips the label
        #: validation and family lock of ``labels()``.
        self._stage_children: dict[str, object] = {}
        self._event_children: dict[str, object] = {}
        self._event_family = self.registry.histogram(
            STORE_EVENT_METRIC,
            "Feature-store tier event latency (milliseconds)",
            labels=("event",),
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
        )

    # ------------------------------------------------------------------ stages
    def stage(self, name: str):
        """Context manager timing one stage (shared no-op when disabled)."""
        if not self.enabled:
            return _NOOP_STAGE
        return _StageTimer(self, name)

    def _observe_stage(self, name: str, duration_ms: float) -> None:
        _child(self._stage_family, self._stage_children, name).observe(duration_ms)

    def record_stage(
        self,
        name: str,
        duration_ms: float,
        traces: Iterable[Trace | None] = (),
    ) -> None:
        """Record an externally timed stage: registry once, each trace too.

        Used where one measurement covers several requests (the batched
        ``score`` call) or where the timed region ended before the trace was
        reachable (the batcher's ``queue_wait``).
        """
        if not self.enabled:
            return
        self._observe_stage(name, duration_ms)
        for trace in traces:
            if trace is not None:
                trace.add(name, duration_ms)

    def record_event(self, event: str, duration_ms: float) -> None:
        """Record a store-tier event latency (registry-only)."""
        _child(self._event_family, self._event_children, event).observe(duration_ms)

    # ------------------------------------------------------------------ traces
    def start_trace(self, trace_id: str | None = None) -> Trace:
        """A fresh trace (not yet active); pass ``trace_id`` to adopt one."""
        return Trace(trace_id or _TRACE_IDS.getrandbits(64).to_bytes(8, "big").hex(), self.clock)

    def activate(self, trace: Trace | None) -> "_Activation":
        """Make ``trace`` current for the enclosed block (``None`` = no-op).

        Activation rides a ``ContextVar`` and therefore does *not* cross
        thread boundaries — re-activate explicitly inside worker threads.
        """
        return _Activation(trace)

    def current_trace(self) -> Trace | None:
        active = _ACTIVE.get()
        return active[0] if active is not None else None

    # -------------------------------------------------------------- slow hooks
    def on_slow(self, threshold_ms: float, callback: Callable) -> None:
        """Call ``callback(trace, total_ms)`` when a request exceeds the bar."""
        self._slow_hooks.append((float(threshold_ms), callback))

    def finish(self, trace: Trace, total_ms: float) -> None:
        """Complete a trace, firing slow hooks (hook exceptions swallowed)."""
        for threshold_ms, callback in self._slow_hooks:
            if total_ms >= threshold_ms:
                try:
                    callback(trace, total_ms)
                except Exception:  # noqa: BLE001 - observability never breaks serving
                    pass


# ------------------------------------------------------------- module default
_DEFAULT_TRACER = Tracer(enabled=False)
_TRACER = _DEFAULT_TRACER
_TRACER_LOCK = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer the instrumented layers consult."""
    return _TRACER


def get_registry() -> MetricsRegistry:
    """The current tracer's registry (what the ``stats`` wire op exports)."""
    return _TRACER.registry


def configure(
    *,
    enabled: bool | None = None,
    registry: MetricsRegistry | None = None,
    time_fn: Callable[[], float] | None = None,
) -> Tracer:
    """Replace the process-wide tracer (worker processes call this at boot)."""
    global _TRACER
    with _TRACER_LOCK:
        current = _TRACER
        _TRACER = Tracer(
            enabled=current.enabled if enabled is None else enabled,
            registry=registry if registry is not None else current.registry,
            time_fn=time_fn if time_fn is not None else current.clock,
        )
        _TRACER._slow_hooks = list(current._slow_hooks)
        return _TRACER


@contextmanager
def tracing(
    enabled: bool = True,
    *,
    registry: MetricsRegistry | None = None,
    time_fn: Callable[[], float] | None = None,
):
    """Scoped tracer swap: enable tracing for a block, restore on exit.

    The loadgen paths and tests use this to give each run its own registry
    so breakdown tables are per-run, not process-cumulative.
    """
    global _TRACER
    with _TRACER_LOCK:
        previous = _TRACER
        _TRACER = Tracer(
            enabled=enabled,
            registry=registry if registry is not None else MetricsRegistry(),
            time_fn=time_fn if time_fn is not None else previous.clock,
        )
        current = _TRACER
    try:
        yield current
    finally:
        with _TRACER_LOCK:
            _TRACER = previous
