"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1, from the root of a checkout.

Builds the reference artifacts on the first run of a source tree (see
build.py; not timed), then runs the workload (see workload.py) in a fresh
process with BLAS pinned to one thread.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
when --trace 0 and the per-layer metrics when --trace 1.
"""

import argparse
import os
import subprocess
import sys

from workload import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_TIMEOUT = 170   # seconds; a run must end within 180


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "nkscreen", "cli.py")):
        print(f"no nkscreen sources under {ROOT}/src; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, HERE)
    from build import SRC, ensure_artifacts
    ensure_artifacts()

    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=WORKLOAD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} exceeded {WORKLOAD_TIMEOUT}s",
              file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print(f"workload {args.workload} exited {proc.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
