"""The metrics registry: counters, gauges, fixed-bucket histograms.

One process-local, thread-safe registry of named metrics, with optional
label dimensions (families).  Three metric kinds:

* :class:`Counter` — monotonically increasing total (``inc``);
* :class:`Gauge` — a settable level (``set`` / ``inc`` / ``dec``);
* :class:`Histogram` — **fixed-bucket** distribution.  Observations land in
  pre-declared buckets, so memory is O(buckets) regardless of how many
  observations arrive — the bound the old sort-the-window percentile code
  lacked.  Quantiles are exact *within bucket resolution*: the reported
  value is the upper bound of the bucket containing the requested rank,
  clamped to the observed min/max (so a histogram whose observations all
  fall inside one bucket still reports their true extreme rather than the
  bucket edge).

Registries snapshot to a JSON-able dict (:meth:`MetricsRegistry.snapshot`)
that crosses the cluster wire protocol (the ``stats`` worker op), merge
worker snapshots back into a cluster-truthful whole
(:meth:`MetricsRegistry.merge`), and render a Prometheus-style text
exposition (:meth:`MetricsRegistry.to_text`).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Sequence

from repro.errors import ConfigurationError

#: Default bucket upper bounds for latency histograms, in milliseconds.
#: Geometric 1-2.5-5 spacing from 50 µs to 10 s; everything above lands in
#: the implicit +Inf bucket (and quantiles clamp to the observed max).
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A thread-safe, monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a Gauge for levels")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _merge(self, data: Mapping) -> None:
        with self._lock:
            self._value += float(data.get("value", 0.0))

    def _sample(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A thread-safe instantaneous level."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _merge(self, data: Mapping) -> None:
        # Gauges are levels, not totals: a merged snapshot adopts the
        # incoming reading (last writer wins, the usual scrape semantics).
        self.set(float(data.get("value", 0.0)))

    def _sample(self) -> dict:
        return {"value": self.value}


class Histogram:
    """A fixed-bucket distribution with rank-exact quantiles per bucket.

    ``buckets`` are strictly increasing upper bounds; an implicit ``+Inf``
    bucket catches everything above the last bound.  Memory is O(buckets)
    forever.  :meth:`quantile` walks the cumulative counts to the bucket
    holding the requested rank and returns that bucket's upper bound clamped
    into ``[observed min, observed max]`` — exact whenever observations sit
    on bucket bounds, and never off by more than one bucket width otherwise.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count", "_min", "_max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError("histogram bucket bounds must strictly increase")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the implicit +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        # The first bucket whose bound is >= value; NaN lands in +Inf.
        index = bisect_left(self.bounds, value) if value == value else len(self.bounds)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """The value at rank ``ceil(q * count)``, exact to bucket resolution."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile q must lie in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            counts = list(self._counts)
            total, low, high = self._count, self._min, self._max
        rank = max(1, math.ceil(q * total))
        cumulative = 0
        for index, count in enumerate(counts):
            cumulative += count
            if cumulative >= rank:
                upper = self.bounds[index] if index < len(self.bounds) else high
                return float(min(max(upper, low), high))
        return float(high)  # pragma: no cover - rank <= total always hits

    def percentiles(self) -> tuple[float, float, float]:
        """(p50, p90, p99)."""
        return self.quantile(0.50), self.quantile(0.90), self.quantile(0.99)

    def _merge(self, data: Mapping) -> None:
        bounds = tuple(float(b) for b in data.get("bounds", ()))
        if bounds != self.bounds:
            raise ConfigurationError(
                "cannot merge histograms with different bucket bounds"
            )
        counts = [int(c) for c in data.get("counts", ())]
        if len(counts) != len(self._counts):
            raise ConfigurationError("histogram snapshot has a malformed count table")
        with self._lock:
            for index, count in enumerate(counts):
                self._counts[index] += count
            self._sum += float(data.get("sum", 0.0))
            self._count += int(data.get("count", 0))
            if data.get("count", 0):
                self._min = min(self._min, float(data.get("min", math.inf)))
                self._max = max(self._max, float(data.get("max", -math.inf)))

    def _sample(self) -> dict:
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "sum": self._sum,
                "count": self._count,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
            }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labeled children.

    An unlabeled metric is a family with a single anonymous child; labeled
    families create children on first use (``family.labels(stage="gather")``).
    """

    def __init__(self, name: str, kind: str, help: str, label_names: tuple[str, ...], **options):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._options = options
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _make(self):
        if self.kind == "histogram":
            return Histogram(self._options.get("buckets", DEFAULT_LATENCY_BUCKETS_MS))
        return _KINDS[self.kind]()

    def labels(self, **labels: str):
        """The child metric for one label-value combination (created lazily)."""
        if set(labels) != set(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.label_names}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make()
            return child

    def samples(self) -> list[tuple[dict[str, str], object]]:
        """Every live child with its label values (sorted, for stable output)."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.label_names, key)), child) for key, child in items
        ]


class MetricsRegistry:
    """A named collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are idempotent declare-or-get
    calls: the same name returns the same metric (a kind mismatch raises).
    Unlabeled declarations return the metric itself; labeled ones return the
    :class:`MetricFamily`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}  # guarded-by: _lock

    def _declare(self, name: str, kind: str, help: str, labels: Sequence[str], **options):
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = MetricFamily(name, kind, help, labels, **options)
            elif family.kind != kind or family.label_names != labels:
                raise ConfigurationError(
                    f"metric {name!r} already registered as {family.kind} with "
                    f"labels {family.label_names}"
                )
        return family if labels else family.labels()

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return self._declare(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return self._declare(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ):
        return self._declare(name, "histogram", help, labels, buckets=tuple(buckets))

    def get(self, name: str) -> MetricFamily | None:
        """The family registered under ``name`` (``None`` if absent)."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ----------------------------------------------------------------- export
    def collect(self) -> list[dict]:
        """Every metric's current state as plain dicts, sorted by name."""
        collected = []
        for family in self.families():
            collected.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "label_names": list(family.label_names),
                    "samples": [
                        {"labels": labels, **metric._sample()}
                        for labels, metric in family.samples()
                    ],
                }
            )
        return collected

    def snapshot(self) -> dict:
        """A JSON-able snapshot (what the ``stats`` wire op returns)."""
        return {"metrics": self.collect()}

    def merge(self, snapshot: Mapping) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters and histograms accumulate; gauges adopt the incoming value.
        Unknown metrics are created with the snapshot's declared shape.
        """
        for metric in snapshot.get("metrics", ()):
            name = str(metric["name"])
            kind = str(metric["kind"])
            if kind not in _KINDS:
                raise ConfigurationError(f"unknown metric kind {kind!r} in snapshot")
            label_names = tuple(str(n) for n in metric.get("label_names", ()))
            options = {}
            if kind == "histogram":
                samples = metric.get("samples", ())
                if samples:
                    options["buckets"] = tuple(samples[0].get("bounds", DEFAULT_LATENCY_BUCKETS_MS))
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = self._families[name] = MetricFamily(
                        name, kind, str(metric.get("help", "")), label_names, **options
                    )
                elif family.kind != kind or family.label_names != label_names:
                    raise ConfigurationError(
                        f"snapshot metric {name!r} conflicts with the registered "
                        f"{family.kind} {family.label_names}"
                    )
            for sample in metric.get("samples", ()):
                child = family.labels(**sample.get("labels", {}))
                child._merge(sample)

    @classmethod
    def merged(cls, snapshots: Iterable[Mapping]) -> "MetricsRegistry":
        """A fresh registry holding the merge of several snapshots."""
        registry = cls()
        for snapshot in snapshots:
            registry.merge(snapshot)
        return registry

    # ------------------------------------------------------------- exposition
    def to_text(self) -> str:
        """Prometheus-style text exposition of every metric."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, metric in family.samples():
                if family.kind == "histogram":
                    data = metric._sample()
                    cumulative = 0
                    for bound, count in zip(
                        list(data["bounds"]) + ["+Inf"], data["counts"]
                    ):
                        cumulative += count
                        le = bound if isinstance(bound, str) else _format_value(bound)
                        lines.append(
                            f"{family.name}_bucket"
                            f"{_format_labels({**labels, 'le': le})} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(labels)} "
                        f"{_format_value(data['sum'])}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(labels)} {data['count']}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_format_labels(labels)} "
                        f"{_format_value(metric.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in labels.items())
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def format_stage_table(registry: MetricsRegistry, metric: str = "repro_stage_latency_ms") -> str:
    """A per-stage latency breakdown table from a registry's stage histogram.

    Empty string when the registry holds no stage observations (tracing was
    off, or nothing was served).
    """
    family = registry.get(metric)
    if family is None:
        return ""
    rows = []
    for labels, histogram in family.samples():
        if histogram.count == 0:
            continue
        p50, p90, p99 = histogram.percentiles()
        rows.append(
            (
                labels.get("stage", "?"),
                histogram.count,
                histogram.sum,
                histogram.mean,
                p50,
                p99,
            )
        )
    if not rows:
        return ""
    rows.sort(key=lambda row: -row[2])  # heaviest stage first
    lines = [
        f"{'stage':<16} {'count':>8} {'total ms':>12} {'mean ms':>10} {'p50 ms':>10} {'p99 ms':>10}"
    ]
    for stage, count, total, mean, p50, p99 in rows:
        lines.append(
            f"{stage:<16} {count:>8} {total:>12.2f} {mean:>10.3f} {p50:>10.3f} {p99:>10.3f}"
        )
    return "\n".join(lines)
