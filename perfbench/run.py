"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream_ingest --seed 1 --seconds 10 --trace 0

Workloads: ``stream_ingest``, ``fresh_batch``, ``open_serve`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs the workload untraced and then traced, each
for half of ``--seconds``, and reports the per-layer split.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report (host facts, requests per phase, sample counts and
diagnostic quantiles).  Everything the run writes stays under
``.perfbench_run/`` in the checkout and is removed on exit.
"""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# One BLAS thread per process, set before NumPy loads: the matrices here are
# tiny, and threaded BLAS on a two-core host only adds scheduler noise.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

if __name__ == "__mp_main__":
    # This file is re-imported under this name in each worker process that
    # WorkerPool spawns; a traced run asks those workers to wrap their layers.
    from perfbench.layers import install_in_worker

    install_in_worker()

#: A run that has not finished by then dumps its threads' stacks, stops its
#: child processes and exits; if the interpreter is too stuck to do that,
#: ``faulthandler`` exits a few seconds later.
WATCHDOG_S = 165.0
RUN_DIR = ".perfbench_run"


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: pathlib.Path):
    """Fit, set up, measure and check one workload.

    Returns ``(metrics, phases, report lines, correct)``.
    """
    from repro.io import load_pipeline
    from repro.obs import tracing

    from perfbench.harness import (
        GcMonitor,
        Phase,
        fit_bundle,
        peak_rss_mb,
        quantile_ms,
        timed_setups,
    )
    from perfbench.inputs import World
    from perfbench.layers import WORKER_TRACE_ENV, LayerWrappers, Readout, add, subtract, totals
    from perfbench.metrics import end_to_end, per_layer
    from perfbench.workloads import WORKLOADS

    bundle = scratch / "bundle"
    fit_bundle(ROOT, bundle)
    world = World.from_pipeline(load_pipeline(bundle))
    workload = WORKLOADS[name](bundle, world, seed, scratch)
    report: list[str] = []
    phases: list[Phase] = []
    if not trace:
        workload.prepare()
        setups, stack = timed_setups(workload.build, workload.setup_repeats)
        phases.append(stack.warmup)
        try:
            result = workload.run(stack, workload.inputs, seconds)
            rss = peak_rss_mb(workload.worker_pids(stack))
        finally:
            stack.close()
        metrics = end_to_end(result, setups, rss)
        report.append("setup_s per build: " + " ".join(f"{t:.4f}" for t in setups))
    else:
        half = seconds / 2
        workload.prepare()
        stack = workload.build()
        phases.append(stack.warmup)
        try:
            untraced = workload.run(stack, workload.inputs, half)
        finally:
            stack.close()
        untraced.phase.name = "untraced"
        phases.append(untraced.phase)
        workload.prepare()
        os.environ[WORKER_TRACE_ENV] = "1"
        try:
            stack = workload.build()
        finally:
            del os.environ[WORKER_TRACE_ENV]
        phases.append(stack.warmup)
        try:
            cache_before = stack.transport.cache_info()
            batcher_before = stack.batcher.metrics.snapshot() if stack.batcher else None
            workers_before = add(*map(totals, workload.worker_snapshots(stack)))
            with tracing() as tracer, LayerWrappers(), GcMonitor() as gc_monitor:
                result = workload.run(stack, workload.inputs, half)
                if stack.batcher is not None:
                    # The flusher records a flush's metrics after resolving
                    # its futures; closing it first makes the count complete.
                    stack.batcher.close()
                serving = totals(tracer.registry.snapshot())
            batcher_after = stack.batcher.metrics.snapshot() if stack.batcher else None
            cache_after = stack.transport.cache_info()
            workers = subtract(add(*map(totals, workload.worker_snapshots(stack))), workers_before)
        finally:
            stack.close()
        metrics = per_layer(
            layers=Readout(add(serving, workers)),
            serving=Readout(serving),
            workers=Readout(workers),
            cache_before=cache_before,
            cache_after=cache_after,
            batcher_before=batcher_before,
            batcher_after=batcher_after,
            gc_monitor=gc_monitor,
            traced=result,
            untraced=untraced,
            load_times=workload.load_times,
        )
    phases.append(result.phase)
    checked = len(result.samples)
    mismatches = workload.check(result.samples, workload.reference())
    phases.append(Phase("check", sent=checked, succeeded=checked - mismatches, failed=mismatches))
    lat, lag = result.latencies, result.lag
    report.append(
        f"latency ({len(lat)} samples): p50={quantile_ms(lat, 0.5):.3f} ms "
        f"p95={quantile_ms(lat, 0.95):.3f} ms p99={quantile_ms(lat, 0.99):.3f} ms "
        "(p99 is diagnostic only)"
    )
    report.append(
        f"generator: lateness p50={quantile_ms(lag, 0.5):.3f} ms p95={quantile_ms(lag, 0.95):.3f} ms, "
        f"CPU {result.gen_s * 1e3:.1f} ms"
    )
    return metrics, phases, report, checked > 0 and mismatches == 0


def stop_children() -> None:
    """Stop and reap every process this run started.

    ``WorkerPool.close`` reaps its workers, but spawning them also started
    multiprocessing's resource tracker, which would otherwise outlive this
    process until it noticed the closed pipe.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join(2.0)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def remove_scratch(scratch: pathlib.Path) -> None:
    import shutil

    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.parent.rmdir()
    except OSError:
        pass


def _watchdog(scratch: pathlib.Path) -> None:
    import faulthandler

    print(f"perfbench: no result after {WATCHDOG_S:g} s", file=sys.stderr)
    faulthandler.dump_traceback(all_threads=True)
    stop_children()
    remove_scratch(scratch)
    os._exit(3)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    import faulthandler
    import json
    import math
    import shutil
    import tempfile
    import threading

    from perfbench.harness import host_facts
    from perfbench.metrics import END_TO_END, PER_LAYER

    scratch = ROOT / RUN_DIR / str(os.getpid())
    watchdog = threading.Timer(WATCHDOG_S, _watchdog, args=(scratch,))
    watchdog.daemon = True
    watchdog.start()
    faulthandler.dump_traceback_later(WATCHDOG_S + 5, exit=True)
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    # Anything a library writes to a temporary file stays in the checkout.
    tempfile.tempdir = str(scratch)
    try:
        metrics, phases, report, correct = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        stop_children()
        remove_scratch(scratch)
    watchdog.cancel()
    faulthandler.cancel_dump_traceback_later()

    names = PER_LAYER if args.trace else END_TO_END
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(host_facts(), sort_keys=True))
    for phase in phases:
        print("phase " + phase.line())
    for line in report:
        print(line)
    for name, unit in names:
        print(f"  {name:<34} {metrics[name]:>14.6f} {unit}")
    missing = [name for name, _ in names if not math.isfinite(metrics[name])]
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": sum(phase.sent for phase in phases),
                "failed": sum(phase.failed for phase in phases),
                "metrics": {
                    name: {"value": float(metrics[name]), "unit": unit} for name, unit in names
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
