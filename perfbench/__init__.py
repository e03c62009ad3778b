"""Benchmark of ofs: workloads, correctness checks and a traced run per layer.

See ``perfbench/README.md``; the entry point is ``perfbench/run.py``.
"""
