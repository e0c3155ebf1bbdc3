"""Benchmark of the linalm solvers; see ``bench.py`` and ``run.py``."""
