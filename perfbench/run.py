"""Command-line entry of the linalm benchmark.

    python3 perfbench/run.py --workload qcqp-p1000 --seed 0 --seconds 30 --trace 0

``--workload all`` runs qcqp-p1000, qcqp-p200-dense and bpdn-batch in turn.
``--trace 1`` gives the per-layer figures instead of the end-to-end ones.
The process pins OpenBLAS to one thread before numpy is imported and imports
linalm from the ``src`` directory next to ``perfbench``; without it, it
exits nonzero before printing a result.

Self-test at the smallest sizes: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import bench
    sys.exit(bench.main())
