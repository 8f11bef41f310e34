"""Benchmark trajectory: run perfbench N times per workload on each
checkout and write BENCH_<tag>.json for the last one.

    python3 scripts/bench_trajectory.py pr31=. --runs 10 --seed 9000
    python3 scripts/bench_trajectory.py pr30=../parent pr31=. --runs 10 --seed 9000

The second command writes BENCH_pr31.json alone, with pr30's runs inside.

Each TAG=DIR names a checkout.  Its ``perfbench/run.py`` runs from that
checkout's root, on every workload of its ``BENCHMARK.json`` and for that
file's ``run_seconds``, with ``--trace 0``.  Round i runs every workload
once on every checkout, all with seed SEED + i, so that the runs of one
round form a pair (or a tuple) on equal inputs.  The checkout that goes
first rotates from round to round, and so does the workload.

BENCH_<tag>.json of the last checkout goes to the root of this
repository, and no other file: an earlier tag's file, written when that
checkout was the last one measured, is never rewritten.  For each
checkout it holds, per workload and metric, the median, the quartiles, the
IQR and N of the result line's metrics (the last line ``run.py`` prints)
and of the numbers in the detail line's report (the line before it), over
the runs that report ``"correct": true``, and every run's seed, verdict,
artifact sha256s, source hash and RefClock factors: the last checkout's at
the top level, every other checkout's under ``others``, by tag.  A machine
line goes with them, naming the OpenBLAS core.

With two checkouts the script also prints, for each workload and
end-to-end metric, both medians, the first checkout's IQR and the number
of pairs the second wins, over the pairs whose two runs are correct, and a
verdict on the second checkout (``verdict``): "worse than bound" when its
median is worse than the first's by more than the metric's ``bound`` in
BENCHMARK.json, "gain holds" when it wins at least 9 of 10 pairs and its
median is better by more than the first checkout's IQR.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from nkscreen.artifacts import blas_kernel  # noqa: E402
RUN_TIMEOUT = 900   # seconds; the first run of a source tree builds its artifacts


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="TAG=DIR",
                    help="a tag for BENCH_<tag>.json and the checkout to run")
    ap.add_argument("--runs", type=int, default=10,
                    help="runs per workload and checkout")
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first round; round i uses seed + i")
    args = ap.parse_args(argv)
    sides = []
    for item in args.checkouts:
        tag, sep, path = item.partition("=")
        if not sep or not tag or not os.path.isfile(
                os.path.join(path, "perfbench", "run.py")):
            ap.error(f"{item!r} is not TAG=DIR with DIR a checkout")
        sides.append((tag, os.path.abspath(path)))
    if len({tag for tag, _ in sides}) != len(sides):
        ap.error("tags must differ")
    if args.runs < 1 or args.seed < 0:
        ap.error("--runs must be >= 1 and --seed >= 0")
    return args, sides


def machine():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # the kernel OpenBLAS picks for this CPU, which the workload
        # process, on the same CPU and environment, picks as well
        "blas_core": blas_kernel()["core"],
        # perfbench/run.py pins OMP, OPENBLAS and MKL_NUM_THREADS to 1 for
        # the workload process
        "blas_threads": 1,
        "platform": platform.platform(),
    }


def run_once(path, workload, seed, seconds):
    """One perfbench run; its result and detail lines, or the failure."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=path, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {RUN_TIMEOUT}s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "returncode": proc.returncode,
                "error": proc.stderr.strip()[-2000:]}
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "units": {k: v["unit"] for k, v in result["metrics"].items()},
        "report": {f"{phase}.{k}": v
                   for phase, values in detail["report"].items()
                   for k, v in values.items()
                   if isinstance(v, (int, float)) and not isinstance(v, bool)},
        "src_hash": detail["src_hash"],
        "artifact_sha256": detail["artifact_sha256"],
        "clock": detail["clock"],
    }


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "n": len(values)}


def counted(rec):
    """A run that finished with a correct result: only such runs enter the
    medians and the pair wins, as a failed or wrong run's numbers measure
    other work."""
    return rec.get("correct") is True


def aggregate(runs):
    """Per metric (and report number) of one workload's counted runs, the
    median, quartiles, IQR and N; ``runs`` and ``runs_correct`` count every
    run."""
    good = [r for r in runs if counted(r)]
    out = {}
    for section in ("metrics", "report"):
        names = sorted({k for r in good for k in r[section]})
        out[section] = {name: summary([r[section][name] for r in good
                                       if name in r[section]])
                        for name in names}
        if section == "metrics":
            for name in names:
                out[section][name]["unit"] = next(
                    r["units"][name] for r in good if name in r["units"])
    out["runs_correct"] = sum(map(counted, runs))
    out["runs"] = len(runs)
    return out


def verdict(metric, a, b):
    """The second checkout's pair wins over paired values a (first
    checkout) and b of one metric, and its verdict: "worse than bound",
    "gain holds" or ""."""
    sign = 1 if metric["better"] == "higher" else -1
    wins = int(np.sum(sign * (b - a) > 0))
    sa, sb = summary(a), summary(b)
    worse = sign * (sa["median"] - sb["median"])
    if sa["median"] and worse > metric["bound"] * abs(sa["median"]):
        return wins, "worse than bound"
    if 10 * wins >= 9 * len(a) and -worse > sa["iqr"]:
        return wins, "gain holds"
    return wins, ""


def compare(bench, runs, sides):
    """Both medians, the first checkout's IQR, the second's pair wins and
    its ``verdict``, per workload and end-to-end metric, over the pairs
    whose two runs are both counted."""
    (tag_a, _), (tag_b, _) = sides[:2]
    for workload in runs[tag_a]:
        print(f"\n{workload}: {tag_b} against {tag_a}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            pairs = [(a["metrics"][name], b["metrics"][name])
                     for a, b in zip(runs[tag_a][workload],
                                     runs[tag_b][workload])
                     if counted(a) and counted(b)]
            if not pairs:
                continue
            a, b = np.array(pairs).T
            wins, said = verdict(metric, a, b)
            sa, sb = summary(a), summary(b)
            change = (sb["median"] / sa["median"] - 1 if sa["median"]
                      else float("nan"))
            print(f"  {name:26s} {sa['median']:.6g} (IQR {sa['iqr']:.3g}) -> "
                  f"{sb['median']:.6g} ({change:+.1%}), "
                  f"wins {wins}/{len(pairs)}" + (f", {said}" if said else ""))


def main(argv=None):
    args, sides = parse_args(argv)
    benches = {}
    for tag, path in sides:
        with open(os.path.join(path, "BENCHMARK.json")) as fh:
            benches[tag] = json.load(fh)
    workloads = [w["name"] for w in benches[sides[0][0]]["workloads"]]
    runs = {tag: {w: [] for w in workloads} for tag, _ in sides}
    for i in range(args.runs):
        seed = args.seed + i
        for j in range(len(workloads)):
            workload = workloads[(i + j) % len(workloads)]
            for k in range(len(sides)):
                tag, path = sides[(i + k) % len(sides)]
                rec = run_once(path, workload, seed,
                               benches[tag]["run_seconds"])
                rec["position"] = k
                runs[tag][workload].append(rec)
                verdict = rec.get("error") or (
                    "correct" if rec["correct"] else "INCORRECT")
                print(f"round {i} {workload} seed {seed} {tag}: {verdict}",
                      file=sys.stderr, flush=True)

    def measured(tag):
        good = [r for rs in runs[tag].values() for r in rs if "error" not in r]
        return {
            "tag": tag,
            "command": "perfbench/run.py --workload W --seed S --seconds "
                       f"{benches[tag]['run_seconds']} --trace 0",
            "seeds": [args.seed, args.seed + args.runs - 1],
            "src_hash": sorted({r["src_hash"] for r in good}),
            "artifact_sha256": (good[0]["artifact_sha256"] if good else None),
            "artifact_sha256_stable": all(
                r["artifact_sha256"] == good[0]["artifact_sha256"]
                for r in good),
            "clock_factor_median": [r["clock"]["factor_median"]
                                    for r in good],
            "workloads": {w: {**aggregate(rs), "per_run": rs}
                          for w, rs in runs[tag].items()},
        }

    last = sides[-1][0]
    out = {**measured(last), "machine": machine(),
           "others": {tag: measured(tag) for tag, _ in sides[:-1]}}
    with open(os.path.join(ROOT, f"BENCH_{last}.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if len(sides) >= 2:
        compare(benches[sides[0][0]], runs, sides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
