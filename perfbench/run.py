"""freescale benchmark entry point.

    python3 perfbench/run.py --workload cascade-x4 --seed 1 --seconds 40 --trace 0

Runs one workload (or ``all``, each in its own fresh process) as a closed
loop with one client, checks every output, and prints every metric by name
and unit; the last line of standard output is one JSON object. With
``--trace 1`` it reports per-layer metrics from a traced run instead. See
``bench.py`` for the metrics and ``workloads.py`` for the workloads.
"""

import os
import sys
from pathlib import Path

# Both thread counts are pinned (each <= nproc) before numpy loads: the
# default patch-attention pool opens a thread pool on every call that
# competes with BLAS threads, which made whole-image wall time swing by
# about a third between runs.
THREADS = {"FREESCALE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def main() -> int:
    os.environ.update(THREADS)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
