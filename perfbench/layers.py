"""Per-layer timing for the traced run.

The traced run wraps the public functions of each layer (``SPANS``) at class
level, from the benchmark's own files; ``src/`` carries no benchmark code.
Each wrapped call records into the *current* :mod:`repro.obs` registry:

* ``perfbench_layer_ms{layer}`` -- wall time of the call (exact sum + count);
* ``perfbench_layer_self_ms{layer}`` -- wall time minus the wrapped calls it
  made on the same thread (time spent in another thread or process, such as
  a worker behind the wire, stays in the caller's self time);
* ``perfbench_layer_rows{layer}`` -- profiles or pairs handed to the call;
* ``perfbench_top_ms`` / ``perfbench_top_self_ms{layer}`` -- the same, only for
  calls with no wrapped caller on their thread.

Because the records go through the obs registry, a worker process that
installs the same wrappers (see :func:`install_in_worker`) exports its layer
times through the ``stats`` wire op, and ``WorkerPool.worker_obs_snapshots``
brings them back.  Wrapping at class level also reaches objects copied
before the wrappers went in (a deep-copied judge replica); the harness still
installs the wrappers only after the transport is built and warmed, and
removes them before closing it.
"""

from __future__ import annotations

import importlib
import os
import threading
import time

from repro.obs import STAGE_METRIC, get_registry

LAYER_MS = "perfbench_layer_ms"
LAYER_SELF_MS = "perfbench_layer_self_ms"
LAYER_ROWS = "perfbench_layer_rows"
TOP_MS = "perfbench_top_ms"
TOP_SELF_MS = "perfbench_top_self_ms"
#: Set in the environment of worker processes spawned for a traced run.
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE"

#: ``(layer, module, class, method, count rows of the first argument, parent)``.
#: A span with a ``parent`` is recorded only when called directly under that
#: span: ``MLP.forward`` is the HisRect combiner only inside ``featurize``.
SPANS = (
    ("service.process", "repro.service.stream", "StreamScorer", "process", False, None),
    ("service.consume", "repro.service.stream", "OnlineProfileBuilder", "consume", False, None),
    ("service.window", "repro.service.pairing", "SlidingPairWindow", "add", False, None),
    ("service.delta", "repro.features.history", "HistoricalVisitFeaturizer", "visit_rows", True, None),
    ("service.delta", "repro.features.history", "HistoricalVisitFeaturizer", "update_delta", False, None),
    ("service.delta", "repro.features.history", "HistoricalVisitFeaturizer", "delta_row", False, None),
    ("api.call", "repro.api.engine", "ColocationEngine", "predict_proba", True, None),
    ("api.call", "repro.api.engine", "ColocationEngine", "serve_batch", False, None),
    ("cluster.transport", "repro.cluster.gateway", "WorkerPool", "predict_proba", True, None),
    ("cluster.transport", "repro.cluster.gateway", "WorkerPool", "serve_batch", False, None),
    ("api.gather", "repro.api.core", "JudgementCore", "resolve_pair_features", True, None),
    ("api.score", "repro.colocation.judge", "HisRectCoLocationJudge", "score_feature_pairs", True, None),
    ("store.get", "repro.store.tiered", "TieredStore", "get", False, None),
    ("store.put", "repro.store.tiered", "TieredStore", "put", False, None),
    ("features.featurize", "repro.features.hisrect", "HisRectFeaturizer", "featurize_profiles", True, None),
    ("features.history", "repro.features.history", "HistoricalVisitFeaturizer", "featurize_batch", True, None),
    ("features.content", "repro.features.content", "ContentEncoder", "encode_batch", True, None),
    ("features.combiner", "repro.nn.layers", "MLP", "forward", False, "features.featurize"),
    ("features.seed", "repro.features.hisrect", "HisRectFeaturizer", "warm_history_row", False, None),
)
#: Layers whose top-level calls are a workload's entry into the serving stack.
ENTRY_LAYERS = ("service.process", "api.call", "cluster.transport")

_local = threading.local()
_sinks: dict[str, tuple] = {}


def _sink(layer: str):
    """The registry children for one layer, re-resolved when the registry changes."""
    registry = get_registry()
    sink = _sinks.get(layer)
    if sink is None or sink[0] is not registry:
        sink = _sinks[layer] = (
            registry,
            registry.histogram(LAYER_MS, "Layer call wall time (ms)", labels=("layer",)).labels(layer=layer),
            registry.histogram(LAYER_SELF_MS, "Layer call self time (ms)", labels=("layer",)).labels(layer=layer),
            registry.counter(LAYER_ROWS, "Rows handed to a layer", labels=("layer",)).labels(layer=layer),
            registry.histogram(TOP_MS, "Top-level call wall time (ms)", labels=("layer",)).labels(layer=layer),
            registry.histogram(TOP_SELF_MS, "Top-level call self time (ms)", labels=("layer",)).labels(layer=layer),
        )
    return sink


def _timed(layer: str, fn, count_rows: bool, parent: str | None):
    def timed(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        caller = stack[-1][0] if stack else None
        if caller == layer or (parent is not None and caller != parent):
            return fn(*args, **kwargs)
        frame = [layer, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            stack.pop()
            if stack:
                stack[-1][1] += elapsed_ms
            _, wall, own, rows, top, top_own = _sink(layer)
            wall.observe(elapsed_ms)
            own.observe(elapsed_ms - frame[1])
            if count_rows and len(args) > 1:
                rows.inc(len(args[1]))
            if not stack:
                top.observe(elapsed_ms)
                top_own.observe(elapsed_ms - frame[1])

    timed.__wrapped__ = fn
    timed.__name__ = getattr(fn, "__name__", "timed")
    timed.perfbench_layer = layer
    return timed


class LayerWrappers:
    """Installs the ``SPANS`` wrappers and puts every original back."""

    def __init__(self):
        self._patched: list[tuple[type, str, object]] = []

    def install(self) -> "LayerWrappers":
        if self._patched:
            raise RuntimeError("layer wrappers are already installed")
        for layer, module, cls, attr, count_rows, parent in SPANS:
            klass = getattr(importlib.import_module(module), cls)
            own = klass.__dict__.get(attr)
            setattr(klass, attr, _timed(layer, getattr(klass, attr), count_rows, parent))
            self._patched.append((klass, attr, own))
        return self

    def uninstall(self) -> None:
        for klass, attr, own in reversed(self._patched):
            if own is None:
                delattr(klass, attr)
            else:
                setattr(klass, attr, own)
        self._patched.clear()

    def __enter__(self) -> "LayerWrappers":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False


def wrapped_targets() -> list[str]:
    """``SPANS`` targets that currently carry a wrapper (empty once removed)."""
    found = []
    for _, module, cls, attr, _, _ in SPANS:
        if hasattr(getattr(getattr(importlib.import_module(module), cls), attr), "perfbench_layer"):
            found.append(f"{cls}.{attr}")
    return found


def install_in_worker() -> None:
    """Wrap the layers of a spawned worker process when its parent asked for it."""
    if os.environ.get(WORKER_TRACE_ENV) == "1":
        LayerWrappers().install()


# --------------------------------------------------------------- read-out


def totals(snapshot: dict) -> dict[tuple[str, str], tuple[float, float]]:
    """``{(metric, label value): (count, sum)}`` of a registry snapshot.

    Histograms give their exact count and sum (never bucket-edge quantiles);
    counters give ``(value, value)``.  Only single-label families are read.
    """
    out: dict[tuple[str, str], tuple[float, float]] = {}
    for metric in snapshot.get("metrics", ()):
        for sample in metric.get("samples", ()):
            labels = sample.get("labels", {})
            label = next(iter(labels.values())) if labels else ""
            if "count" in sample:
                value = (float(sample["count"]), float(sample["sum"]))
            else:
                value = (float(sample.get("value", 0.0)),) * 2
            out[(metric["name"], label)] = value
    return out


def subtract(after: dict, before: dict) -> dict:
    return {
        key: (value[0] - before.get(key, (0.0, 0.0))[0], value[1] - before.get(key, (0.0, 0.0))[1])
        for key, value in after.items()
    }


def add(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for key, (count, total) in part.items():
            have = out.get(key, (0.0, 0.0))
            out[key] = (have[0] + count, have[1] + total)
    return out


class Readout:
    """Convenience accessors over :func:`totals` output."""

    def __init__(self, values: dict):
        self.values = values

    def _get(self, metric: str, label: str) -> tuple[float, float]:
        return self.values.get((metric, label), (0.0, 0.0))

    def ms(self, layer: str) -> float:
        return self._get(LAYER_MS, layer)[1]

    def calls(self, layer: str) -> float:
        return self._get(LAYER_MS, layer)[0]

    def self_ms(self, layer: str) -> float:
        return self._get(LAYER_SELF_MS, layer)[1]

    def rows(self, layer: str) -> float:
        return self._get(LAYER_ROWS, layer)[1]

    def stage_ms(self, stage: str) -> float:
        return self._get(STAGE_METRIC, stage)[1]

    def stage_calls(self, stage: str) -> float:
        return self._get(STAGE_METRIC, stage)[0]

    def layer_group_self_ms(self, group: str) -> float:
        """Summed self time of every layer named ``group.*``."""
        return sum(
            total
            for (metric, label), (_, total) in self.values.items()
            if metric == LAYER_SELF_MS and label.split(".")[0] == group
        )

    def entry(self) -> tuple[float, float]:
        """``(wall, self)`` ms of top-level calls into the workload's entry layers."""
        wall = sum(self._get(TOP_MS, layer)[1] for layer in ENTRY_LAYERS)
        own = sum(self._get(TOP_SELF_MS, layer)[1] for layer in ENTRY_LAYERS)
        return wall, own
