"""Pieces every workload shares: accounting, timing, memory, GC and the result check."""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Largest |probability difference| a micro-batched result may show against
#: the cache-free reference: coalescing scores many requests as one BLAS call
#: of another shape, which may flip the last mantissa bit (~1e-16).
DRIFT_BOUND = 1e-12
#: Upper bound on every single wait: a future, a window slot, the drain.
WAIT_TIMEOUT_S = 30.0
#: Upper bound on a worker process reaching HELLO (the pool's own default is 120 s).
START_TIMEOUT_S = 30.0
FIT_TIMEOUT_S = 150.0


@dataclass
class Phase:
    """Requests sent, succeeded and failed in one phase of a run."""

    name: str
    sent: int = 0
    succeeded: int = 0
    failed: int = 0

    def line(self) -> str:
        return f"{self.name}: sent={self.sent} succeeded={self.succeeded} failed={self.failed}"


@dataclass
class PhaseResult:
    """Raw measurements of one timed phase."""

    phase: Phase
    #: Per-request latency of succeeded requests, seconds.
    latencies: np.ndarray
    #: Phase start to last completion, seconds.
    wall_s: float
    #: Generator CPU time spent during the phase, seconds.
    gen_s: float
    #: Seeded sample of (input, result) pairs kept for the check.
    samples: list
    #: Per request, how long the caller was ready to send while the
    #: generator was still building the request, seconds.
    lag: np.ndarray
    #: Candidate pairs scored (``stream_ingest`` only).
    pairs: int = 0


class Completions:
    """Thread-safe sink for request completions recorded from done-callbacks.

    Futures are dropped as soon as their callback has run, so a long phase
    holds one float per request instead of a growing list of futures.
    """

    def __init__(self, phase: Phase, max_samples: int):
        self.phase = phase
        self.max_samples = max_samples
        self.latencies: list[float] = []
        self.samples: list = []
        self.last_end = 0.0
        self.outstanding = 0
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)

    def sent(self) -> None:
        with self._lock:
            self.phase.sent += 1
            self.outstanding += 1

    def rejected(self) -> None:
        with self._lock:
            self.phase.sent += 1
            self.phase.failed += 1

    def done(self, future, started: float, sample) -> None:
        end = time.perf_counter()
        failed = future.exception() is not None
        with self._lock:
            self.outstanding -= 1
            self.last_end = max(self.last_end, end)
            if failed:
                self.phase.failed += 1
            else:
                self.phase.succeeded += 1
                self.latencies.append(end - started)
                if sample is not None and len(self.samples) < self.max_samples:
                    self.samples.append((sample, future.result()))
            self._idle.notify_all()

    def wait_below(self, limit: int, timeout: float) -> bool:
        """Block until fewer than ``limit`` requests are outstanding."""
        with self._idle:
            return self._idle.wait_for(lambda: self.outstanding < limit, timeout)

    def abandon(self) -> int:
        """Count requests still outstanding after the drain timed out as failed."""
        with self._lock:
            stuck, self.outstanding = self.outstanding, 0
            self.phase.failed += stuck
            return stuck


class GcMonitor:
    """Counts gen-2 collections and sums every collection's pause."""

    def __init__(self):
        self.gen2 = 0
        self.pause_s = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> bool:
        gc.callbacks.remove(self._callback)
        return False


def timed_setups(build, repeats: int) -> tuple[list[float], object]:
    """Build the serving stack ``repeats`` times; return the times and the last stack.

    Each earlier stack is closed before the next build starts, so the builds
    do not share caches or compete for the cores.
    """
    times = []
    stack = None
    for index in range(repeats):
        gc.collect()
        started = time.perf_counter()
        stack = build()
        times.append(time.perf_counter() - started)
        if index < repeats - 1:
            stack.close()
    return times, stack


def peak_rss_mb(worker_pids=()) -> float:
    """Peak RSS of this process plus the peak RSS of each live worker process."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            pass
    return kib / 1024.0


def fit_bundle(root, bundle_dir) -> None:
    """Fit the judge in a child process (``perfbench/fit.py``) and save it."""
    subprocess.run(
        [sys.executable, str(root / "perfbench" / "fit.py"), str(bundle_dir)],
        check=True,
        timeout=FIT_TIMEOUT_S,
        cwd=str(root),
    )


def quantile_ms(latencies_s, q: float) -> float:
    if not len(latencies_s):
        return math.nan
    return float(np.quantile(np.asarray(latencies_s, dtype=float), q)) * 1e3


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            name: os.environ.get(name, "")
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# ------------------------------------------------------------------ checks


def check_scores(samples, reference) -> int:
    """Stream results must equal a cache-free engine's bit for bit; returns mismatches."""
    mismatches = 0
    for pairs, probabilities in samples:
        expected = reference.predict_proba(pairs)
        if not np.array_equal(np.asarray(probabilities), expected):
            mismatches += 1
    return mismatches


def check_serves(samples, reference) -> int:
    """Batched serves must match a cache-free engine within ``DRIFT_BOUND``.

    Thresholds must be equal and decisions identical, except where the
    reference probability sits within the drift bound of the threshold.
    Returns the number of mismatching responses.
    """
    mismatches = 0
    for request, response in samples:
        expected = reference.serve(request)
        same = (
            response.threshold == expected.threshold
            and len(response.probabilities) == len(expected.probabilities)
            and all(
                abs(got - want) <= DRIFT_BOUND
                for got, want in zip(response.probabilities, expected.probabilities)
            )
            and all(
                got == want or abs(p - expected.threshold) <= DRIFT_BOUND
                for got, want, p in zip(
                    response.decisions, expected.decisions, expected.probabilities
                )
            )
        )
        mismatches += not same
    return mismatches
