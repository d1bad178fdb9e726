"""Fit the benchmark's judge from a fixed seed and save it as a bundle.

Usage::

    python3 perfbench/fit.py <bundle_dir>

The benchmark runs this in a child process, before any clock starts, so the
serving process loads a bundle the way a restarted service would and never
holds the training data on its heap.  The seed is fixed: every run and every
commit serves a judge fitted by its own code from the same inputs.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

FIT_SEED = 5


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: fit.py <bundle_dir>", file=sys.stderr)
        return 2
    from repro.cluster.loadgen import fit_serving_pipeline
    from repro.io import save_pipeline

    pipeline, _ = fit_serving_pipeline(seed=FIT_SEED)
    save_pipeline(pipeline, argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
