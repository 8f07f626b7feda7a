"""The repository's benchmark: end-to-end and per-layer performance metrics.

Run ``python3 perfbench/run.py --help`` from the repository root.  The
benchmark's contract (workloads, metrics, bounds) is ``BENCHMARK.json``;
which per-layer metric should move which end-to-end metric on which
workload is recorded in ``perfbench/interaction.json``.
"""
