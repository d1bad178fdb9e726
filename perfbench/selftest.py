"""Self-test of the benchmark itself.

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks, in order:

1. ``BENCHMARK.json`` declares exactly the workloads, metric names and units
   the code reports.
2. The result check catches a perturbed result (a probability off by more
   than the drift bound, a flipped decision) and passes the unperturbed one.
3. A traced run removes every layer wrapper it installed.
4. Every workload, run briefly with ``--trace 0`` and ``--trace 1``, prints a
   final JSON line with every metric name and unit, a passing check and no
   failed operation, and leaves no process of its session running.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

BRIEF_SECONDS = "2"


def check_declaration() -> list[str]:
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        problems.append(f"workloads: declared {declared}, implemented {list(WORKLOADS)}")
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(names):
            problems.append(f"{key}: declared {declared} != reported {list(names)}")
    return problems


def check_perturbation(scratch: pathlib.Path) -> list[str]:
    from repro.api import ColocationEngine
    from repro.io import load_pipeline

    from perfbench.harness import check_scores, check_serves, fit_bundle
    from perfbench.inputs import World
    from perfbench.workloads import FreshBatch

    bundle = scratch / "bundle"
    fit_bundle(ROOT, bundle)
    world = World.from_pipeline(load_pipeline(bundle))
    workload = FreshBatch(bundle, world, 7, scratch)
    inputs = workload.make_inputs()
    requests = [inputs.next()[0] for _ in range(4)]
    engine = ColocationEngine(load_pipeline(bundle))
    reference = workload.reference()
    problems = []

    scores = [(list(r.pairs), engine.predict_proba(list(r.pairs))) for r in requests]
    if check_scores(scores, reference) != 0:
        problems.append("check_scores rejected unperturbed results")
    pairs, probabilities = scores[0]
    bumped = probabilities.copy()
    bumped[0] += 1e-9
    if check_scores([(pairs, bumped)], reference) != 1:
        problems.append("check_scores missed a probability off by 1e-9")

    serves = [(r, engine.serve(r)) for r in requests]
    if check_serves(serves, reference) != 0:
        problems.append("check_serves rejected unperturbed responses")
    request, response = serves[0]
    drifted = dataclasses.replace(
        response, probabilities=(response.probabilities[0] + 1e-9,) + response.probabilities[1:]
    )
    if check_serves([(request, drifted)], reference) != 1:
        problems.append("check_serves missed a probability off by 1e-9")
    flipped = dataclasses.replace(
        response, decisions=(1 - response.decisions[0],) + response.decisions[1:]
    )
    if abs(response.probabilities[0] - response.threshold) > 1e-12 and check_serves(
        [(request, flipped)], reference
    ) != 1:
        problems.append("check_serves missed a flipped decision")
    return problems


def check_unwrap(scratch: pathlib.Path) -> list[str]:
    from perfbench.layers import wrapped_targets
    from perfbench.run import run_workload

    _, _, _, correct = run_workload("stream_ingest", 3, 1.0, True, scratch)
    problems = [] if correct else ["traced stream_ingest run failed its check"]
    left = wrapped_targets()
    if left:
        problems.append(f"layer wrappers left installed after a traced run: {left}")
    return problems


def session_processes(sid: int) -> list[int]:
    """Pids of the processes, zombies included, in session ``sid``."""
    pids = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            pids.append(int(entry.name))
    return pids


def check_runs() -> list[str]:
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    problems = []
    for name in WORKLOADS:
        for trace, expected in (("0", END_TO_END), ("1", PER_LAYER)):
            label = f"{name} --trace {trace}"
            # A session of its own, so every process the run starts can be found.
            run = subprocess.Popen(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "11",
                 "--seconds", BRIEF_SECONDS, "--trace", trace],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                start_new_session=True,
            )
            try:
                stdout, stderr = run.communicate(timeout=180)
            except subprocess.TimeoutExpired:
                os.killpg(run.pid, signal.SIGKILL)
                run.communicate()
                problems.append(f"{label}: no exit within 180 s")
                continue
            survivors = session_processes(run.pid)
            if survivors:
                problems.append(f"{label}: processes left running: {survivors}")
            if run.returncode != 0:
                problems.append(f"{label}: exit {run.returncode}: {stderr[-500:]}")
                continue
            before = len(problems)
            result = json.loads(stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if got != list(expected):
                problems.append(f"{label}: metrics {got} != {list(expected)}")
            print(f"  {label}: {'ok' if len(problems) == before else 'FAILED'}")
    return problems


def main() -> int:
    problems: list[str] = []
    problems += check_declaration()
    run_dir = ROOT / ".perfbench_run"
    run_dir.mkdir(exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="selftest-", dir=run_dir))
    tempfile.tempdir = str(scratch)
    try:
        for check, sub in ((check_perturbation, "perturb"), (check_unwrap, "unwrap")):
            (scratch / sub).mkdir()
            problems += check(scratch / sub)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            run_dir.rmdir()
        except OSError:
            pass
    problems += check_runs()
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
