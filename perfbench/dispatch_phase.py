"""Dispatch phase: DC-OPF sampling, region construction and SC-OPF.

Here the lp layer works through right-hand-side re-solves (DC-OPF draws),
cold simplex solves (one per classifier SC-OPF) and HiGHS (the monolithic
cross-check), never through objective re-solves; grid, datagen, scopf and
the region construction do their work here and nowhere else, and oracle
and training are bypassed.  All work is fixed by the seed, so every count repeats.  The
monolithic HiGHS cross-check (cross_check) runs last in a traced run,
after the peak RSS is read, because it is a baseline and the largest
allocation.
"""

import time
from dataclasses import replace

import numpy as np

import nkscreen.region as region_mod
from nkscreen.datagen import sample_demands
from nkscreen.lp import TOL_FEAS, LpStatus, NumericalFailure
from nkscreen.region import (build_region, drop_constant_dims,
                             filter_contingencies, prune_by_box_support,
                             with_box)
from nkscreen.scopf import solve_scopf_full, solve_scopf_icnn

from common import demand_model, stream_for
from spans import maybe_span, wrap_simplex

N_DRAWS = 2000        # DC-OPF-feasible demand draws per run
DRAW_CHUNK = 50       # draws per clock chunk, about 50 ms
REGION_BUILDS = 2     # region constructions per run; the median is reported
N_SCOPF = 150         # SC-OPF instances, the first feasible draws
SCOPF_CHUNK = 5       # classifier SC-OPF solves per clock chunk
N_REPEAT = 10         # instances solved twice to check the answer repeats
N_MONOLITHIC = 1      # instances also solved as one HiGHS LP
REGION_TOL = 1e-6     # MW of row violation tolerated in a classifier dispatch


def draw_dispatches(net, solver, scale, seed, count, clock):
    """count DC-OPF-feasible draws, skipping infeasible ones as datagen does.

    Demands come from sample_demands in datagen's stream pattern.  Solves
    are timed in clock chunks of DRAW_CHUNK draws.  Returns (X, D, draws,
    draws per reference second), with draws the number of demands
    dispatched.
    """
    model = demand_model(net, scale)
    stream = stream_for(seed)
    X = np.empty((count, net.n))
    D = np.empty((count, net.n))
    got = draws = 0
    ref_s = 0.0

    def dispatch(block):
        return [solver.solve(d) for d in block]

    while got < count:
        demands = sample_demands(model, count - got + 64, stream=stream)
        stream += 1
        for lo in range(0, len(demands), DRAW_CHUNK):
            block = demands[lo:lo + min(DRAW_CHUNK, count - got)]
            results, block_s, _ = clock.time(dispatch, block)
            ref_s += block_s
            draws += len(block)
            for d, res in zip(block, results):
                if res.status is LpStatus.OPTIMAL:
                    X[got] = res.p - d
                    D[got] = d
                    got += 1
            if got == count:
                break
    return X, D, draws, draws / ref_s


def build_pipeline(net, X, tracer, clock):
    """prepare-region's stages on these injections; each is one clock call.

    Returns the region and each stage's reference seconds.
    """
    stages = {}
    with maybe_span(tracer, "region.build"):
        region, stages["build"], _ = clock.time(build_region, net, 2)
    with maybe_span(tracer, "region.filter"):
        region, stages["filter"], _ = clock.time(filter_contingencies,
                                                 region, X, 0.9)
    with maybe_span(tracer, "region.reduce"):
        region, stages["reduce"], _ = clock.time(
            lambda r: with_box(drop_constant_dims(r, X), X, inflate=1.2),
            region)
    with maybe_span(tracer, "region.prune"):
        region, stages["prune"], _ = clock.time(prune_by_box_support, region)
    return region, stages


def violated_rows(region, x):
    """Rows of a full-coordinate region that injection x breaks."""
    return np.nonzero(region.project(x)[0] @ region.A.T - region.b
                      > TOL_FEAS)[0]


def scopf_by_constraint_generation(net, demand, region_full):
    """Exact SC-OPF: DC-OPF, then add the violated region rows and repeat.

    Returns (result, rows added).  Each round is a cold solve of the
    DC-OPF with the rows found so far.
    """
    rows = np.zeros(0, dtype=np.intp)
    while True:
        sub = None if not len(rows) else replace(
            region_full, A=region_full.A[rows], b=region_full.b[rows],
            row_meta=region_full.row_meta[rows])
        res = solve_scopf_full(net, demand, sub)
        if not res or region_full.membership(res.p - demand)[0]:
            return res, len(rows)
        new = np.setdiff1d(violated_rows(region_full, res.p - demand), rows)
        if not len(new):
            return res, len(rows)
        rows = np.union1d(rows, new)


def run(state, scale, seed, tracer, clock):
    net, clf, region_full = state["net"], state["clf"], state["region_full"]
    attempted = failed = 0
    if tracer is not None:
        wrap_simplex(tracer)
        tracer.wrap(region_mod, "ptdf", "grid.ptdf")

    with maybe_span(tracer, "dispatch.draws"):
        X, D, draws, draw_rate = draw_dispatches(
            net, state["dcopf"], scale, seed, N_DRAWS, clock)
    attempted += draws

    builds = []
    for _ in range(REGION_BUILDS):
        with maybe_span(tracer, "dispatch.region"):
            region, stages = build_pipeline(net, X, tracer, clock)
        builds.append(sum(stages.values()))
        attempted += 1
    rows_kept = region.n_rows

    def cg(d):
        try:
            return scopf_by_constraint_generation(net, d, region_full)
        except NumericalFailure:
            return None, 0

    def icnn_solve(d):
        try:
            return solve_scopf_icnn(net, d, clf)
        except NumericalFailure:
            return None

    def icnn_block(block):
        out = []
        for d in block:
            with maybe_span(tracer, "scopf.solve_scopf_icnn"):
                t0 = time.perf_counter()
                res = icnn_solve(d)
                out.append((res, time.perf_counter() - t0))
        return out

    demands = D[:N_SCOPF]
    icnn, icnn_ms = [], []
    for lo in range(0, len(demands), SCOPF_CHUNK):
        solved, _, factor = clock.time(icnn_block,
                                       demands[lo:lo + SCOPF_CHUNK])
        icnn += [res for res, _ in solved]
        icnn_ms += [t * factor * 1e3 for _, t in solved]
    attempted += len(icnn)
    failed += sum(res is None for res in icnn)
    for d, first in zip(demands[:N_REPEAT], icnn):
        res = icnn_solve(d)
        attempted += 1
        # a repeated solve must give the same answer
        failed += res is None or (first is not None and (
            (res.status, res.cost) != (first.status, first.cost)))

    # baselines are timed by their spans in a traced run only
    exact, rows_added = [], []
    for d in demands:
        with maybe_span(tracer, "baselines.scopf_cg"):
            res, added = cg(d)
        exact.append(res)
        rows_added.append(added)
        attempted += 1
        failed += res is None

    both, n_full, extra, region_bad = [], 0, 0, 0
    worst_violation = -np.inf
    for d, ri, rf in zip(demands, icnn, exact):
        if ri:
            margin = float(region_full.margins(
                region_full.project(ri.p - d))[0])
            worst_violation = max(worst_violation, margin)
            region_bad += margin > REGION_TOL
            region_bad += not rf     # secure dispatch where none exists
        if rf:
            n_full += 1
            if ri:
                both.append(ri.cost / rf.cost)
            else:
                extra += 1
    failed += region_bad

    icnn_p50 = float(np.median(icnn_ms))
    e2e = {
        "dcopf_draws_per_s": (draw_rate, "1/s"),
        "region_build_s": (float(np.median(builds)), "s"),
        "scopf_icnn_ms_p50": (icnn_p50, "ms"),
        "scopf_icnn_feasible_frac": (len(both) / n_full, "fraction"),
        "scopf_cost_ratio": (float(np.mean(both)), "ratio"),
    }
    excess = np.asarray(both) - 1.0
    report = {
        # printed, not gated: on a shared 2-core machine the tail moved by
        # up to 22% between runs of the same code
        "scopf_icnn_ms_p90": float(np.percentile(icnn_ms, 90)),
        "draws": draws,
        "redraws": draws - N_DRAWS,
        "region_rows": int(rows_kept),
        "region_build_seconds": builds,
        "scopf_instances": len(demands),
        "feasible_full": n_full,
        "feasible_icnn": sum(1 for r in icnn if r),
        "scopf_extra_infeasible_frac": extra / n_full,
        "scopf_excess_cost_mean": float(excess.mean()),
        "scopf_excess_cost_max": float(excess.max()),
        "max_region_violation": worst_violation,
        "region_violations": region_bad,
        "cg_rows_added": int(sum(rows_added)),
    }
    layers = {}
    if tracer is not None:
        tracer.unwrap_all()
        layers = _layers(tracer, draws, rows_added)
    return {"attempted": attempted, "failed": failed, "e2e": e2e,
            "layers": layers, "report": report, "X": X,
            "cross_check": (demands, exact)}


def cross_check(state, demands, exact, tracer):
    """The monolithic HiGHS SC-OPF on N_MONOLITHIC instances: its cost must
    equal the constraint-generation optimum."""
    net, region_full = state["net"], state["region_full"]

    def monolithic(d):
        try:
            return solve_scopf_full(net, d, region_full)
        except NumericalFailure:
            return None

    mismatches = 0
    checked = [i for i, rf in enumerate(exact) if rf][:N_MONOLITHIC]
    for i in checked:
        with maybe_span(tracer, "baselines.scopf_monolithic"):
            mono = monolithic(demands[i])
        ref = exact[i].cost
        if not mono or abs(mono.cost - ref) > 1e-6 * max(1.0, abs(ref)):
            mismatches += 1
    report = {"monolithic_checked": len(checked),
              "monolithic_mismatches": mismatches}
    layers = {}
    if tracer is not None:
        mono_s = float(np.median([tracer.duration(i) for i in
                                  tracer.named("baselines.scopf_monolithic")]))
        icnn_s = float(np.median([tracer.duration(i) for i in
                                  tracer.named("scopf.solve_scopf_icnn")]))
        layers = {
            "lp.highs_full_scopf_s": (mono_s, "s"),
            "baselines.scopf_speedup_vs_full": (mono_s / icnn_s, "x"),
        }
        report["speedup_bases"] = (
            "scopf_speedup_vs_cg = CG p50 ms / classifier p50 ms; "
            "scopf_speedup_vs_full = monolithic HiGHS median / classifier "
            "p50; raw span times of the same instances")
    return {"attempted": len(checked), "failed": mismatches, "e2e": {},
            "layers": layers, "report": report}


def _layers(tracer, draws, rows_added):
    """Per-layer numbers, all in raw span seconds."""
    draw_root = tracer.named("dispatch.draws")[0]
    dcopf = tracer.outermost(tracer.within("lp.resolve_rhs", draw_root), "lp.")
    scopf = tracer.named("scopf.solve_scopf_icnn")
    scopf_lp = tracer.outermost(
        [i for root in scopf for i in tracer.within("lp.solve", root)], "lp.")
    ptdf = [i for root in tracer.named("region.build")
            for i in tracer.within("grid.ptdf", root)]

    def median_ms(name):
        return float(np.median([tracer.duration(i)
                                for i in tracer.named(name)])) * 1e3

    icnn_p50 = median_ms("scopf.solve_scopf_icnn")
    cg_p50 = median_ms("baselines.scopf_cg")
    return {
        "lp.dcopf_resolve_ms": (tracer.mean_duration(dcopf) * 1e3, "ms"),
        "lp.dcopf_resolve_pivots":
            (float(np.mean(tracer.attr_values(dcopf, "pivots"))), "pivots"),
        "lp.scopf_icnn_solve_ms": (tracer.mean_duration(scopf_lp) * 1e3, "ms"),
        "lp.scopf_icnn_pivots":
            (float(np.mean(tracer.attr_values(scopf_lp, "pivots"))),
             "pivots"),
        "grid.ptdf_ms": (tracer.mean_duration(ptdf) * 1e3, "ms"),
        "region.build_s": (median_ms("region.build") / 1e3, "s"),
        "region.filter_s": (median_ms("region.filter") / 1e3, "s"),
        "region.prune_s": (median_ms("region.prune") / 1e3, "s"),
        "datagen.redraws": (int(draws - N_DRAWS), "count"),
        "scopf.icnn_assembly_ms":
            (float(np.mean([tracer.self_time(i) for i in scopf])) * 1e3, "ms"),
        "baselines.scopf_cg_ms_p50": (cg_p50, "ms"),
        "baselines.scopf_cg_rows_added": (int(sum(rows_added)), "count"),
        "baselines.scopf_speedup_vs_cg": (cg_p50 / icnn_p50, "x"),
    }
