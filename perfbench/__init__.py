"""Benchmark of the rholog interpreter; run it with ``python3 perfbench/run.py``."""
