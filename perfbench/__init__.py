"""Benchmark of tidegraph: three workloads, output checks and per-layer traces.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see README.md.
"""
