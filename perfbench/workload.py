"""One workload in a fresh process; started by run.py.

Every workload runs the whole user pipeline on the reference artifacts, in
this order: a short training and a certification (train_phase); DC-OPF
sampling, region construction and SC-OPF (dispatch_phase); screening of
the sampled injections (screen_phase); and last, in traced runs only, the
monolithic SC-OPF cross-check (dispatch_phase.cross_check).  The workloads
differ in the demand regime the injections are drawn from (WORKLOADS), so
every run reports every metric.

Order: pin BLAS threads, load numpy and scipy, time the nkscreen imports,
pin the process to one CPU, start the reference-speed clock, set up five
times (the median counts), then run the phases once.  Prints a report line
with every number the run produced, then the result line (the last line of
standard output).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"    # before numpy loads its BLAS

import argparse
import json
import sys
import time

# demand scale over the case's nominal demand, per workload
WORKLOADS = {
    # the demand model the reference artifacts were sampled from: 1.5-2.5%
    # of the injections are insecure
    "nominal": 1.0,
    # 4% above nominal: 6-9% insecure, a few DC-OPF redraws, more
    # constraint-generation rows, and the classifier's conservative side
    "peak": 1.04,
}
SETUP_REPEATS = 5
# shares of --seconds for the phases whose work is sized by time; the
# certification and the dispatch phase do fixed work
TRAIN_SHARE = 0.3
SCREEN_SHARE = 0.3


def parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def setup(paths):
    """Loads in cmd_screen order (checkpoint, dataset, region_full), then
    the rest, then the solvers the phases reuse."""
    import numpy as np

    from common import load_case
    from nkscreen.datagen import load_dataset
    from nkscreen.grid import DcopfSolver
    from nkscreen.icnn import load_checkpoint
    from nkscreen.oracle import SublevelSolver
    from nkscreen.region import load_region

    t0 = time.perf_counter()
    clf = load_checkpoint(paths["checkpoint"])
    ds = load_dataset(paths["dataset"])
    region_full = load_region(paths["region_full"])
    exact = load_region(paths["region_exact"])
    support = load_region(paths["region_support"])
    net = load_case()
    load_s = time.perf_counter() - t0
    same = [(ds, clf), (ds, exact), (clf, support)]
    if not all(np.allclose(a.mu, b.mu) and np.allclose(a.sigma, b.sigma)
               and np.array_equal(a.dim_map, b.dim_map) for a, b in same):
        raise ValueError("dataset, regions and checkpoint disagree on "
                         "their standardization")
    return {"clf": clf, "ds": ds, "region_full": region_full,
            "exact": exact, "support": support, "net": net,
            "Z": ds.standardized(), "sublevel": SublevelSolver(clf.params),
            "dcopf": DcopfSolver(net), "load_s": load_s}


def main(argv=None):
    args = parse(argv)
    # The third-party libraries nkscreen imports are loaded first and not
    # timed: their load time varied by up to 1.8x between runs, scaling by
    # the reference clock did not remove that, and no change to this
    # repository moves it.  setup_s counts nkscreen's own imports.
    import numpy as np
    import scipy.special  # noqa: F401
    t0 = time.perf_counter()
    import dispatch_phase
    import screen_phase
    import train_phase
    import_s = time.perf_counter() - t0

    from build import ensure_artifacts
    from common import RefClock, median_setup, peak_rss_mb, process_totals
    from spans import Tracer, span_cost

    # one CPU for the workload and the clock's probe thread, so the probe
    # measures the core the work runs on and never competes with it from
    # a sibling core
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    clock = RefClock()
    clock_start = time.perf_counter()
    artifacts = ensure_artifacts()
    paths = artifacts["paths"]
    state, setup_med = median_setup(clock, lambda: setup(paths),
                                    SETUP_REPEATS)
    # the clock starts after the imports, so they are scaled by the probes
    # taken during the set-ups that follow them
    import_ref_s = import_s * clock.factor(clock_start, time.perf_counter())

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else None
    scale = WORKLOADS[args.workload]
    attempted = failed = 0
    e2e = {"setup_s": (import_ref_s + setup_med, "s")}
    layers, report, phase_s = {}, {}, {}

    def phase(name, work):
        nonlocal attempted, failed
        t0 = time.perf_counter()
        out = work()
        phase_s[name] = time.perf_counter() - t0
        attempted += out["attempted"]
        failed += out["failed"]
        e2e.update(out["e2e"])
        layers.update(out["layers"])
        report[name] = out["report"]
        return out

    try:
        phase("train", lambda: train_phase.run(
            state, args.seconds * TRAIN_SHARE, tracer, clock))
        dispatch = phase("dispatch", lambda: dispatch_phase.run(
            state, scale, args.seed, tracer, clock))
        phase("screen", lambda: screen_phase.run(
            state, dispatch["X"], args.seconds * SCREEN_SHARE, tracer,
            clock))
        # read before the cross-check: the monolithic LP is a baseline and
        # the largest allocation of a run
        e2e["peak_rss_mb"] = (peak_rss_mb(), "MB")
        if tracer is not None:
            # 2-3 s for one instance, so only traced runs, which report
            # its time as lp.highs_full_scopf_s, make the cross-check
            phase("cross_check", lambda: dispatch_phase.cross_check(
                state, *dispatch["cross_check"], tracer))
    finally:
        clock.close()

    totals = process_totals()
    if tracer is not None:
        covered = sum(tracer.duration(i) for i, s in enumerate(tracer.spans)
                      if s[3] < 0)
        layers["artifacts.load_ms"] = (state["load_s"] * 1e3, "ms")
        layers["trace.overhead_frac"] = (
            len(tracer.spans) * span_cost() / covered, "fraction")
        layers["proc.minor_faults"] = (totals["minor_faults"], "count")
        layers["proc.sys_s"] = (totals["sys_s"], "s")
        layers["proc.speed_factor"] = (float(np.median(clock.factors)),
                                       "ratio")
        trace_dir = os.path.join(os.path.dirname(__file__), ".cache",
                                 "traces")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.write(os.path.join(trace_dir, run_id + ".jsonl"))

    def as_json(metrics):
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    print(json.dumps({
        "workload": args.workload,
        "demand_scale": scale,
        "seed": args.seed,
        "src_hash": artifacts["src_hash"],
        "artifact_sha256": artifacts["sha256"],
        "import_raw_s": import_s,
        "artifacts_load_raw_s": state["load_s"],
        "phase_raw_s": phase_s,
        "clock": clock.report(),
        "process": totals,
        "report": report,
        "end_to_end": as_json(e2e),
        "per_layer": as_json(layers),
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": as_json(layers if args.trace else e2e),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
