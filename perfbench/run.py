"""mcert benchmark entry point.

    python3 perfbench/run.py --workload hm-sweep --seed 1 --seconds 20 --trace 0

Pins the BLAS thread count before numpy loads, then hands over to
``harness.main``. The last line of standard output is the JSON result.
"""

import os
import sys

BLAS_THREADS = 1  # at most nproc; one thread is also the fastest here for small SVDs


def main() -> int:
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    import harness

    return harness.main(sys.argv[1:], int(threads))


if __name__ == "__main__":
    sys.exit(main())
