"""Tier-1 under each OpenBLAS kernel: which tests depend on the kernel.

    python3 scripts/kernel_sweep.py --scratch /tmp/sweep

numpy's OpenBLAS picks a kernel for the CPU at load time, and the kernel
fixes the summation order of every product and solve, so artifact bytes
and the tests that pin them may hold for one kernel only.
``OPENBLAS_CORETYPE`` overrides the pick for the process it is set in.

The script runs the tier-1 command once with the kernel the CPU picks and
once under each of SkylakeX, Haswell and Sandybridge, one after the
other.  Each run is a child process in its own copy of this checkout
under SCRATCH (its working tree, without ``.git`` and caches), so each
starts from a cold ``.cache/`` and retrains the acceptance artifacts,
with one BLAS thread.  Only the child's environment
is set.  It prints each run's counts and the tests whose outcome differs
from the run with the CPU's own kernel, and writes them to
SCRATCH/kernel_sweep.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORES = ("SkylakeX", "Haswell", "Sandybridge")
COPY_SKIP = shutil.ignore_patterns(".git", ".cache", "__pycache__",
                                   ".pytest_cache", ".hypothesis",
                                   ".benchmarks", "runs")


def outcomes(junit_path):
    """Each test's outcome in a pytest JUnit XML file, by node id."""
    out = {}
    for case in ET.parse(junit_path).iter("testcase"):
        name = f"{case.get('classname')}::{case.get('name')}"
        tags = {child.tag for child in case}
        out[name] = next((t for t in ("error", "failure", "skipped")
                          if t in tags), "passed")
    return out


def run_tier1(scratch, core):
    """Tier-1 in a fresh copy of the checkout, under ``core`` (None: the
    CPU's own pick); the outcome of each test and the kernel it ran on."""
    label = core or "default"
    copy = os.path.join(scratch, label)
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=COPY_SKIP)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="src")
    if core:
        env["OPENBLAS_CORETYPE"] = core
    junit = os.path.join(scratch, f"{label}.xml")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                    "no:cacheprovider", "--continue-on-collection-errors",
                    f"--junitxml={junit}"], cwd=copy, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    kernel = subprocess.run(
        [sys.executable, "-c", "from nkscreen.artifacts import blas_kernel; "
         "print(blas_kernel()['core'])"], cwd=copy, env=env,
        stdout=subprocess.PIPE, text=True).stdout.strip()
    return kernel, outcomes(junit)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scratch", required=True,
                    help="directory for the checkout copies and reports")
    args = ap.parse_args(argv)
    if os.path.abspath(args.scratch).startswith(ROOT + os.sep):
        ap.error("--scratch must lie outside the checkout it copies")
    os.makedirs(args.scratch, exist_ok=True)
    runs = {}
    for core in (None, *CORES):
        kernel, tests = run_tier1(args.scratch, core)
        runs[core or "default"] = {"kernel": kernel, "tests": tests}
        print(f"{core or 'default'} ({kernel}): "
              + ", ".join(f"{sum(v == o for v in tests.values())} {o}"
                          for o in ("passed", "failure", "error", "skipped")),
              flush=True)
    base = runs["default"]["tests"]
    report = {}
    for label, run in runs.items():
        tests = run["tests"]
        differ = {t: [base.get(t, "absent"), tests.get(t, "absent")]
                  for t in sorted(set(base) | set(tests))
                  if base.get(t) != tests.get(t)}
        report[label] = {"kernel": run["kernel"], "differ": differ}
        if label != "default":
            print(f"\n{label}: {len(differ)} test(s) differ from the default")
            for t, (was, now) in differ.items():
                print(f"  {t}: {was} -> {now}")
    with open(os.path.join(args.scratch, "kernel_sweep.json"), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
