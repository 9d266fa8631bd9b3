"""Benchmark of the trisym command line; run ``python3 perfbench/run.py --help``."""
