"""Benchmark entry point: runs one zerosep workload for one seed.

    python3 zsbench/run.py --workload toy-separate --seed 1 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
The exit code is non-zero when an op fails its check, and when the
repository's ``src/zerosep`` sources are missing.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

RUN_PY = os.path.abspath(__file__)
ROOT = os.path.dirname(os.path.dirname(RUN_PY))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("toy-separate", "hurwitz-steer", "hurwitz-approx-locate")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="summed op time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", dest="setup_only",
                    help="only import, build, sieve and warm up, then exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS and OpenMP pools are pinned before numpy is first imported, and
    # the process (with its set-up children) to one CPU, so the reference
    # kernel that scales the timings runs where the ops run.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "zerosep", "__init__.py")):
        print(f"error: no zerosep sources under {SRC}", file=sys.stderr)
        return 2
    script_dir = os.path.dirname(RUN_PY)
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path
                                 if os.path.abspath(p or ".") != script_dir]
    import zerosep
    if os.path.dirname(os.path.abspath(zerosep.__file__)) != os.path.join(SRC, "zerosep"):
        print(f"error: zerosep imported from {zerosep.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from zsbench import runner
    return runner.main(args, ROOT, RUN_PY, THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
