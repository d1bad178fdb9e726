"""The repository benchmark: seeded serving workloads with end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; ``perfbench/README.md``
records why each workload exists and which metric each layer should move.
"""
