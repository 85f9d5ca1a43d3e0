"""Entry point of the laqcc benchmark.

    python3 perfbench/run.py --workload prep_ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  It pins BLAS to one thread, imports
laqcc from the checkout's ``src`` and exits with code 2, printing no
result, when that source is missing.  See ``perfbench/README.md``.
"""
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    if not (SRC / "laqcc" / "__init__.py").is_file():
        print(f"error: no laqcc source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import laqcc

    if Path(laqcc.__file__).resolve().parent != SRC / "laqcc":
        print(f"error: laqcc imported from {laqcc.__file__}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
