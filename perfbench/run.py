"""Benchmark entry point for the QCore reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload edge-dsa --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all                  # every workload, with a summary
    python3 perfbench/run.py --regenerate-pins      # re-pin the float64 verification

The BLAS thread count is pinned before numpy loads; see README.md for the
workloads and metrics.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: At or below the core count, and the same on every host.
BLAS_THREADS = "1"


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS
    for variable in ("REPRO_COMPUTE_DTYPE", "REPRO_CONV_KERNEL"):
        os.environ.pop(variable, None)
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # numpy loads here, after the pin

    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
