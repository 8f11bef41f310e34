"""Full 39-bus N-2 study: region, data, the 3 x 3 training grid, benchmarks.

Drives the command-line pipeline end to end and aggregates the results into
one JSON summary.  The default settings reproduce the reference protocol
(10,000 training samples, 9,500 scaling epochs, depth x positive-class-weight
grid, several seeds); expect hours on a laptop for the full grid.  Use the
flags to scale the study down, e.g. a quick pass:

    python3 scripts/run_39bus.py --out runs/smoke --scaling-epochs 1000 \
        --data-counts 3000,1000,2000 --depths 1 --pos-weights 1.0 --seeds 0

Completed steps are reused on rerun (content-hashed run directories), so an
interrupted study continues where it stopped.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from nkscreen.cli import main as cli


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--case", default="case39")
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--out", default="runs/case39")
    ap.add_argument("--region-counts", default="10000,2000,2000",
                    help="sampling counts behind the region protocol")
    ap.add_argument("--data-counts", default="10000,2000,2000",
                    help="train,val,test counts of the labeled dataset")
    ap.add_argument("--width", type=int, default=50)
    ap.add_argument("--warm-epochs", type=int, default=500)
    ap.add_argument("--scaling-epochs", type=int, default=9500)
    ap.add_argument("--decay-epochs", default="")
    ap.add_argument("--depths", default="1,2,3")
    ap.add_argument("--pos-weights", default="0.5,1.0,1.5")
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--scopf-limit", type=int, default=200,
                    help="dispatch instances in the benchmark (0 = all)")
    ap.add_argument("--region-seed", type=int, default=0)
    return ap.parse_args()


def step(argv, out):
    """Run one subcommand, reusing cached results; returns its run directory."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli(argv + ["--out", out, "--reuse"])
    text = buf.getvalue()
    sys.stdout.write(text)
    if code != 0:
        raise SystemExit(f"step {' '.join(argv[:2])} exited {code}")
    for line in text.splitlines():
        if line.startswith("run directory: "):
            return line.split(": ", 1)[1].replace(" (reused)", "").strip()
    raise SystemExit("no run directory printed")


def run():
    args = parse_args()
    os.makedirs(args.out, exist_ok=True)
    depths = [int(d) for d in args.depths.split(",")]
    weights = [float(w) for w in args.pos_weights.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.decay_epochs:
        decay = args.decay_epochs
    else:
        total = args.warm_epochs + args.scaling_epochs
        decay = f"{int(0.15 * total)},{int(0.85 * total)}"

    t_start = time.time()
    print("== region preparation ==")
    prep = ["prepare-region", "--case", args.case, "--k", str(args.k),
            "--counts", args.region_counts, "--seed", str(args.region_seed)]
    support_dir = step(prep + ["--elimination", "support"], args.out)
    exact_dir = step(prep + ["--elimination", "exact"], args.out)

    print("\n== data generation ==")
    gen_dir = step(["gen-data", "--case", args.case,
                    "--region-dir", support_dir,
                    "--counts", args.data_counts,
                    "--seed", str(args.region_seed)], args.out)
    dataset = os.path.join(gen_dir, "dataset.npz")
    region = os.path.join(exact_dir, "region.npz")
    region_full = os.path.join(support_dir, "region_full.npz")

    grid = {}
    for depth in depths:
        for w in weights:
            for seed in seeds:
                name = f"depth{depth}_w{w}_seed{seed}"
                print(f"\n== train {name} ==")
                t0 = time.time()
                train_dir = step(
                    ["train", "--dataset", dataset, "--region", region,
                     "--depth", str(depth), "--width", str(args.width),
                     "--warm-epochs", str(args.warm_epochs),
                     "--scaling-epochs", str(args.scaling_epochs),
                     "--pos-weight", str(w), "--decay-epochs", decay,
                     "--seed", str(seed)], args.out)
                ckpt = os.path.join(train_dir, "checkpoint.npz")
                from nkscreen.icnn import load_checkpoint
                meta = load_checkpoint(ckpt).meta

                screen_dir = step(["screen", "--checkpoint", ckpt,
                                   "--dataset", dataset,
                                   "--region-full", region_full], args.out)
                screen = json.load(open(os.path.join(screen_dir,
                                                     "screen_report.json")))
                entry = {
                    "checkpoint": ckpt,
                    "train_seconds": round(time.time() - t0, 1),
                    "test_fpr": meta.get("test_fpr", screen["fpr"]),
                    "test_fnr": screen["fnr"],
                    "speedup_vs_full_sweep": screen["speedup_vs_full_sweep"],
                    "icnn_single_us_p50": screen["icnn_single_us_p50"],
                }
                if depth == 1:
                    bench_dir = step(
                        ["scopf-bench", "--case", args.case,
                         "--checkpoint", ckpt, "--dataset", dataset,
                         "--region-full", region_full,
                         "--region", region,
                         "--limit", str(args.scopf_limit)], args.out)
                    entry["scopf"] = json.load(open(os.path.join(
                        bench_dir, "scopf_summary.json")))
                grid[name] = entry

    # aggregate over seeds per configuration
    import numpy as np
    summary = {"configs": {}}
    for depth in depths:
        for w in weights:
            rows = [grid[f"depth{depth}_w{w}_seed{s}"] for s in seeds]
            fprs = np.array([r["test_fpr"] for r in rows])
            fnrs = np.array([r["test_fnr"] for r in rows])
            summary["configs"][f"depth{depth}_w{w}"] = {
                "fpr_mean": float(fprs.mean()),
                "fpr_std": float(fprs.std()),
                "fnr_max": float(fnrs.max()),
                "speedup_vs_full_sweep": float(np.mean(
                    [r["speedup_vs_full_sweep"] for r in rows])),
                "icnn_single_us_p50": float(np.mean(
                    [r["icnn_single_us_p50"] for r in rows])),
            }
    summary["runs"] = grid
    summary["wall_seconds"] = round(time.time() - t_start, 1)
    out_path = os.path.join(args.out, "study_summary.json")
    with open(out_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"\n== study summary ({out_path}) ==")
    for name, cfg in sorted(summary["configs"].items()):
        print(f"{name}: fpr {cfg['fpr_mean']:.4f} +- {cfg['fpr_std']:.4f}, "
              f"fnr max {cfg['fnr_max']:.4f}, "
              f"screen speedup {cfg['speedup_vs_full_sweep']:.0f}x, "
              f"one injection {cfg['icnn_single_us_p50']:.1f}us")
    best = min(summary["configs"].values(), key=lambda c: c["fpr_mean"])
    print(f"best mean fpr: {best['fpr_mean']:.4f}")


if __name__ == "__main__":
    run()
