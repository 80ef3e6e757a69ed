"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 perfbench/run.py --workload chirp_deep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, and the run fails with exit code 2 when that is missing.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced and
traced jobs in pairs and reports the per-layer metrics, writing the spans to
``perfbench/out/``. The line before the result holds the machine facts. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-CPU machine two threads were slower and noisier.
BLAS_THREADS = "1"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    src = ROOT / "src"
    if not (src / "sswim" / "__init__.py").is_file():
        print(f"error: no sswim sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # set before numpy loads BLAS
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import harness

    return harness.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
