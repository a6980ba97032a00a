"""The repository benchmark: three workloads on two clocks, per layer.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
see ``perfbench/README.md`` for the workloads, the metrics and how to
compare two commits.
"""
