"""Benchmark of the fairalloc allocators: solve time, fairness and memory on
seeded WAN and cluster workloads, with an optional traced layer split.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
