"""Reference artifacts for the benchmark, built once per source tree.

The artifacts are the ones the acceptance suite builds through the CLI:
the case39 k=2 support region (2,386 rows, plus region_full with 52,606
rows), the exact region (88 rows), the 3000/1000/2000 dataset and the
depth-1, width-50 checkpoint trained with 500 warm and 1,000 scaling
epochs.  They go into perfbench/.cache/<hash>/, where <hash> is the
content hash of src/nkscreen/, so every commit is measured on artifacts its
own code produced.  The tests' .cache/ is never read or written.

A build writes into a temporary directory and renames it into place when
every step succeeded, so a half-finished build is never taken for a cache
hit.  Building takes about 11 minutes on a 2-core machine, almost all of it
the reference training run.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "nkscreen")
CACHE = os.path.join(ROOT, "perfbench", ".cache")

CASE = "case39"
PREP = ["prepare-region", "--case", CASE, "--k", "2",
        "--counts", "10000,2000,2000", "--seed", "0"]
GEN = ["gen-data", "--case", CASE, "--counts", "3000,1000,2000", "--seed", "0"]
TRAIN = ["train", "--depth", "1", "--width", "50", "--warm-epochs", "500",
         "--scaling-epochs", "1000", "--batch-size", "128",
         "--pos-weight", "1.0", "--lr", "0.01",
         "--decay-epochs", "225,1275", "--seed", "0"]


def src_hash():
    """sha256 over the relative paths and bytes of every file in the package."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(PKG):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, PKG).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _cli(argv, out_dir, log):
    """Start one CLI step in its own process, single-threaded BLAS."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    cmd = [sys.executable, "-m", "nkscreen.cli", "--threads", "1"] + argv + [
        "--out", out_dir]
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                            stderr=subprocess.STDOUT, text=True)


def _wait(proc, log_path):
    code = proc.wait()
    if code != 0:
        with open(log_path) as fh:
            tail = fh.read()[-4000:]
        raise RuntimeError(f"artifact build step {proc.args[4]} exited "
                           f"{code}:\n{tail}")


def _run_dir(log_path, subcommand):
    """The last run directory the log names for one subcommand."""
    found = None
    with open(log_path) as fh:
        for line in fh:
            if line.startswith("run directory: ") and (
                    os.sep + subcommand + "-") in line:
                found = line.split(": ", 1)[1].strip()
    if found is None:
        raise RuntimeError(f"{subcommand} printed no run directory")
    return found


def _build(tmp):
    """Run the CLI pipeline into tmp; returns artifact paths relative to it."""
    runs = os.path.join(tmp, "runs")
    os.makedirs(runs)
    logs = {name: os.path.join(tmp, f"build_{name}.log")
            for name in ("support", "exact", "train")}
    handles = {name: open(path, "w") for name, path in logs.items()}
    procs = []
    try:
        # the exact elimination (about a minute) overlaps the support
        # region and the dataset; training needs both
        exact = _cli(PREP + ["--elimination", "exact"], runs, handles["exact"])
        procs.append(exact)
        support = _cli(PREP + ["--elimination", "support"], runs,
                       handles["support"])
        procs.append(support)
        _wait(support, logs["support"])
        support_dir = _run_dir(logs["support"], "prepare-region")
        gen = _cli(GEN + ["--region-dir", support_dir], runs,
                   handles["support"])
        procs.append(gen)
        _wait(gen, logs["support"])
        _wait(exact, logs["exact"])
        exact_dir = _run_dir(logs["exact"], "prepare-region")
        dataset = os.path.join(_run_dir(logs["support"], "gen-data"),
                               "dataset.npz")
        train = _cli(TRAIN + ["--dataset", dataset, "--region",
                              os.path.join(exact_dir, "region.npz")],
                     runs, handles["train"])
        procs.append(train)
        _wait(train, logs["train"])
        train_dir = _run_dir(logs["train"], "train")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        for fh in handles.values():
            fh.close()
    paths = {
        "region_full": os.path.join(support_dir, "region_full.npz"),
        "region_support": os.path.join(support_dir, "region.npz"),
        "region_exact": os.path.join(exact_dir, "region.npz"),
        "dataset": dataset,
        "checkpoint": os.path.join(train_dir, "checkpoint.npz"),
    }
    return {name: os.path.relpath(path, tmp) for name, path in paths.items()}


def ensure_artifacts():
    """Absolute artifact paths and sha256s, building them on a cache miss."""
    key = src_hash()[:16]
    final = os.path.join(CACHE, key)
    index = os.path.join(final, "artifacts.json")
    if not os.path.isfile(index):
        os.makedirs(CACHE, exist_ok=True)
        tmp = os.path.join(CACHE, f"{key}.tmp-{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        t0 = time.perf_counter()
        print(f"building reference artifacts into {final}", file=sys.stderr)
        try:
            rel = _build(tmp)
            record = {
                "src_hash": key,
                "build_seconds": round(time.perf_counter() - t0, 1),
                "paths": rel,
                "sha256": {name: file_sha256(os.path.join(tmp, path))
                           for name, path in rel.items()},
            }
            with open(os.path.join(tmp, "artifacts.json"), "w") as fh:
                json.dump(record, fh, indent=2, sort_keys=True)
            os.rename(tmp, final)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        print(f"built in {record['build_seconds']}s", file=sys.stderr)
    with open(index) as fh:
        record = json.load(fh)
    record["paths"] = {name: os.path.join(final, path)
                       for name, path in record["paths"].items()}
    return record


if __name__ == "__main__":
    print(json.dumps(ensure_artifacts(), indent=2))
