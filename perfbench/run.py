#!/usr/bin/env python3
"""Benchmark of the bisep command line, run from the root of a checkout.

    python3 perfbench/run.py --workload superop_pos --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Workloads: superop_pos, superop_neg, file_io (see workloads.py), or
``all``, which runs each in its own process.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; see bench.py.
"""

import os
import sys

# Pin BLAS/OpenMP threads before numpy loads.  One thread keeps the closed
# loop steady on a small shared machine; the sizes here gain little from more.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from bench import main  # noqa: E402  (numpy must load after the pinning above)

if __name__ == "__main__":
    sys.exit(main())
