"""Security-constrained DC-OPF, in two formulations.

The full formulation dispatches against the base-case network limits plus
every post-contingency flow row of a reference region.  The classifier
formulation replaces those rows with the certified convex classifier's
predicted-feasible set, embedded exactly as ReLU-epigraph rows, so the whole
problem stays one LP.  Because certification makes the predicted set an
inner approximation of the region, every classifier dispatch is secure; the
price is occasional extra infeasibility and a small cost premium, which the
benchmark runner quantifies.

Both formulations are ``grid.DispatchLp``, the DC-OPF's LP, with their
security rows as its extra rows.  Each two-sided limit, a line's flow or a
box coordinate of the classifier input, is one ranged row
(``LpProblem.ranges``), not an upper and a lower row: on ``case39`` the
classifier LP has 122 rows instead of 192, with the same optimum and the
same pivots.  Only the right-hand side of the classifier LP depends on the
demand.  Its matrix is built once per (network, classifier) pair, cached
under a digest of their content, and solved once at the nominal demand.
Every demand is then a right-hand-side re-solve that starts from that fixed
nominal basis, never from the previous demand's basis, so the answer for a
demand is the same whatever was solved before it.
"""

from __future__ import annotations

import copy
import csv
import json
import time

from dataclasses import dataclass

import numpy as np

from .datagen import label_injections
from .grid import DcopfSolver, DispatchLp, Network
from .icnn import ScaledClassifier
from .lp import LpProblem, LpStatus, NumericalFailure, SimplexEngine, solve
from .oracle import epigraph_constraints
from .region import ContingencyRegion, standardize_points


@dataclass
class ScopfResult:
    """One dispatch outcome: status, solution, and solve wall-clock."""

    status: LpStatus
    formulation: str
    p: np.ndarray | None = None
    cost: float | None = None
    runtime: float = 0.0
    # an infeasible classifier dispatch: the constraint the dual simplex
    # could not repair ("line i", "epigraph j", "box k", "balance", "bound
    # p_j" or "bound z_j"), empty when the verdict came from the primal
    # phases
    blocking: str = ""

    def __bool__(self):
        return self.status is LpStatus.OPTIMAL


def region_inequalities(region: ContingencyRegion):
    """Region rows rewritten over full original injection coordinates.

    A region stored in reduced or standardized coordinates constrains
    u = (x[dim_map] - mu) / sigma; undoing that affine map gives rows
    G x <= h on the original injection x.
    """
    G = np.zeros((len(region.b), region.n_full))
    G[:, region.dim_map] = region.A / region.sigma
    h = region.b + region.A @ (region.mu / region.sigma)
    return G, h


def _result(sol, formulation, net, runtime, blocking=""):
    if sol.status is not LpStatus.OPTIMAL:
        return ScopfResult(sol.status, formulation, runtime=runtime,
                           blocking=blocking)
    p = sol.x[:net.n].copy()
    return ScopfResult(LpStatus.OPTIMAL, formulation, p=p,
                       cost=float(net.cost @ p), runtime=runtime)


def solve_scopf_full(net: Network, demand,
                     region: ContingencyRegion | None) -> ScopfResult:
    """Dispatch against base-case limits plus every region row.

    The ``DispatchLp`` with the region rows (one-sided) as its extra rows.
    With region None the security rows are dropped and this reduces to plain
    DC-OPF.  The LP is solved once by ``lp.solve``, on HiGHS above 600 rows.
    Reported runtime covers the LP solve only, so both formulations are
    timed on the same footing.

    A region that folds injection dimensions (``dim != n_full``) raises
    ValueError: the fold holds only for points at the folded values, and
    dispatch can move those coordinates, so it could admit dispatches the
    full region forbids.  Dispatch against the full-dimension region
    (``region_full.npz``) or a subset of its rows.
    """
    if region is not None and region.dim != region.n_full:
        folded = np.setdiff1d(np.arange(region.n_full), region.dim_map)
        raise ValueError(
            f"region folds injection dimension(s) {folded.tolist()}, which "
            "dispatch can move; dispatch against the full-dimension region "
            "(region_full.npz) instead")
    rows = () if region is None else region_inequalities(region)
    problem = DispatchLp(net, *rows).problem(np.asarray(demand, dtype=float))
    formulation = "dcopf" if region is None else "full"
    t0 = time.perf_counter()
    sol = solve(problem)
    return _result(sol, formulation, net, time.perf_counter() - t0)


class _IcnnDispatchLp(DispatchLp):
    """The classifier SC-OPF of one (network, classifier) pair.

    The ``DispatchLp`` whose extra rows are the epigraph rows over the
    auxiliary unit columns z, then one row per bounded box coordinate
    (ranged, width hi - lo, when both bounds are finite).  Only the right-hand
    side depends on the demand, and a ranged row's width does not, so the
    constraint matrix (with the network's PTDF) is built once.  The simplex
    engine is built on first use and solved once at the network's nominal
    demand; its optimal basis, with its refactorization, is kept as
    ``_start`` and is the start of every later solve: ``restore`` puts
    basis and inverse into the engine, and the ``resolve_rhs`` after it
    runs the dual simplex from that basis, which stays dual feasible for
    every demand (c and A do not change).  On ``case39`` that is about 11
    pivots, and a refactorization inverts the block of the basis's
    structural columns, 4-22 wide, not all 122 rows.  An infeasible verdict
    of the dual simplex names the constraint it could not repair
    (``ScopfResult.blocking``).  Every solve starts from this one basis, so
    the answer for a demand does not depend on which demands came before.
    Demands are not first tested against the nominal basis, as DC-OPF
    draws are against their table of bases: with the benchmark's
    checkpoint that basis stays optimal for none of 300 sampled demands, so
    the test would only add a product per solve.  If the nominal solve is
    not optimal, solves start from the slack basis.
    """

    def __init__(self, net: Network, clf: ScaledClassifier):
        params = clf.params
        n_in = params.n_inputs
        dim_map, mu, sigma = clf.transform()
        shift = np.zeros(n_in) if clf.v is None else clf.v
        if len(dim_map) != n_in:
            raise ValueError("classifier transform does not match its input width")

        A_e, b_e, _, _ = epigraph_constraints(params)
        nz = A_e.shape[1] - n_in
        A_u, A_z = A_e[:, :n_in], A_e[:, n_in:]

        # network input u = r * ((p - d)[dim_map] - mu) / sigma + shift
        # = S (p - d) + s0
        S = np.zeros((n_in, net.n))
        S[np.arange(n_in), dim_map] = clf.r / sigma
        s0 = shift - clf.r * mu / sigma

        # the certified set is the sublevel set intersected with the box,
        # which bounds both u and the standardized p - d (``input_box``);
        # a coordinate bounded on both sides is one ranged row, and an
        # empty box keeps its two one-sided rows
        lo, hi = clf.input_box()
        hi_ok = np.isfinite(hi)
        both = hi_ok & np.isfinite(lo) & (lo <= hi)
        lo_only = np.isfinite(lo) & ~both
        box = np.vstack([S[hi_ok], -S[lo_only]])
        rows = np.vstack([np.hstack([A_u @ S, A_z]),
                          np.hstack([box, np.zeros((len(box), nz))])])
        rhs0 = np.concatenate([b_e - A_u @ s0, hi[hi_ok] - s0[hi_ok],
                               s0[lo_only] - lo[lo_only]])
        ranges = np.concatenate([np.full(len(b_e), np.inf),
                                 np.where(both, hi - lo, np.inf)[hi_ok],
                                 np.full(np.count_nonzero(lo_only), np.inf)])
        # a private copy: the cached content describes the network at build time
        super().__init__(copy.deepcopy(net), rows, rhs0, ranges, n_aux=nz)
        self._engine = self._start = None
        self._n_epi = len(b_e)
        self._box_coords = np.concatenate([np.flatnonzero(hi_ok),
                                           np.flatnonzero(lo_only)])

    def _blocking(self, j):
        """Name of the engine's variable j: a column's bound or a row."""
        if j is None:
            return ""
        n, n_cols = self.net.n, self.A.shape[1]
        if j < n_cols:
            return f"bound p_{j}" if j < n else f"bound z_{j - n}"
        i = j - n_cols
        epi = i - self.net.m
        if epi < 0:
            return f"line {i}"
        if epi < self._n_epi:
            return f"epigraph {epi}"
        if i < len(self.A) - 1:
            return f"box {self._box_coords[epi - self._n_epi]}"
        return "balance"

    def engine(self):
        """The simplex engine, built and solved at the nominal demand on
        first use; ``_start`` is then the ``restore`` arguments of every
        solve: the nominal optimal basis and its refactorization, or the
        slack basis alone when that solve is not optimal."""
        if self._engine is None:
            engine = SimplexEngine(self.problem(self.net.demand))
            start = (engine.snapshot(),)
            try:
                if engine.solve():
                    start = (engine.snapshot(), engine.B_inv.copy())
            except NumericalFailure:
                pass
            self._engine, self._start = engine, start
        return self._engine

    def solve(self, demand) -> ScopfResult:
        engine = self.engine()
        b = self.rhs(demand)
        t0 = time.perf_counter()
        engine.restore(*self._start)
        sol = engine.resolve_rhs(b)
        return _result(sol, "icnn", self.net, time.perf_counter() - t0,
                       self._blocking(sol.blocking))


# the last pair's content ("content", see ``_content``) and its LP ("lp"),
# or nothing
_icnn_lps: dict = {}


def _content(net: Network, clf: ScaledClassifier):
    """Everything the classifier SC-OPF is built from, to compare by value:
    the arrays and numbers as one float vector, in bytes (the integer ones
    convert exactly), and their shapes, None for a missing one.

    Keyed on content, not identity: training updates the weights in place.
    """
    p = clf.params
    items = (*p.W, *p.D, *p.b, p.box_lower, p.box_upper, clf.r, clf.v,
             clf.mu, clf.sigma, clf.dim_map, net.n, net.slack, net.lines,
             net.susceptance, net.f_lower, net.f_upper, net.pmin, net.pmax,
             net.cost, net.demand)
    values = np.concatenate([np.asarray(a, dtype=float).ravel()
                             for a in items if a is not None])
    return (values.tobytes(),
            tuple(None if a is None else np.shape(a) for a in items))


def _icnn_lp(net, clf) -> _IcnnDispatchLp:
    content = _content(net, clf)
    if _icnn_lps.get("content") != content:
        _icnn_lps.update(content=content, lp=_IcnnDispatchLp(net, clf))
    return _icnn_lps["lp"]


def icnn_dispatch_problem(net: Network, demand, clf: ScaledClassifier) -> LpProblem:
    """The classifier SC-OPF at one demand as a standalone LP.

    The LP that ``solve_scopf_icnn`` solves, for cross-checks with
    ``lp.solve``; its matrix comes from the same cache.
    """
    return _icnn_lp(net, clf).problem(np.asarray(demand, dtype=float))


def solve_scopf_icnn(net: Network, demand, clf: ScaledClassifier) -> ScopfResult:
    """Dispatch with the security rows replaced by the classifier set.

    The constraint forward(r * standardize(p - d)) <= 0 enters through the
    exact epigraph rows over auxiliary unit variables z (exact because the
    hidden-to-hidden weights are nonnegative); the standardization and the
    certified scale fold into the affine map from p to the network input.
    The box rows keep both the network input and standardize(p - d) in the
    box (``ScaledClassifier.input_box``), as screening does.
    Only valid for certified classifiers: then any dispatch returned here
    satisfies the full region.

    The LP of the last (network, classifier) pair is cached, keyed on their
    content.  Each demand is a right-hand-side re-solve on the simplex
    engine, by the dual simplex, from the optimal basis of the nominal
    demand, always that same basis, so the result depends on the demand
    alone and not on the order of calls; the reported runtime is that
    re-solve.  An infeasible result names in ``blocking`` the line, epigraph
    row, box coordinate, balance or generator bound the dual simplex could
    not repair.  The one-off build and nominal solve are not part of the
    runtime (``benchmark_scopf`` reports them as ``icnn_setup_s``).
    """
    return _icnn_lp(net, clf).solve(np.asarray(demand, dtype=float))


def benchmark_scopf(net: Network, demands, region: ContingencyRegion,
                    clf: ScaledClassifier):
    """Run both formulations over demand instances and compare.

    Returns (records, summary).  records holds one row per instance and
    formulation (for the CSV report), with no time in it, so the CSV
    depends only on the inputs; summary aggregates cost premium,
    infeasibility shares, soundness of the classifier dispatches against
    the region, and runtimes; its ``dcopf_diagnostic`` gives, per instance,
    the plain DC-OPF dispatch's label against the region and the
    classifier's decision value there (``_dcopf_diagnostic``), with no
    time in it.  Runtime means cover only instances solved by
    both formulations, so neither side is charged for the other's
    infeasible cases.  The classifier LP is built (and solved at the nominal
    demand) once, before the loop; that one-off cost is icnn_setup_s, and
    each classifier runtime is a warm re-solve.  The region must have full
    dimension: ``solve_scopf_full`` refuses a folded one (ValueError).
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    # the classifier LP's one-off build and nominal solve, timed apart
    _icnn_lps.clear()
    t0 = time.perf_counter()
    lp = _icnn_lp(net, clf)
    engine = lp.engine()
    icnn_setup = time.perf_counter() - t0
    work = engine.counters()
    records = []
    fulls, icnns = [], []
    for i, d in enumerate(demands):
        rf = solve_scopf_full(net, d, region)
        ri = solve_scopf_icnn(net, d, clf)
        fulls.append(rf)
        icnns.append(ri)
        for res in (rf, ri):
            records.append({
                "instance": i,
                "formulation": res.formulation,
                "status": res.status.name,
                "cost": "" if res.cost is None else repr(res.cost),
                "blocking": res.blocking,
            })

    n = len(demands)
    both = [i for i in range(n) if fulls[i] and icnns[i]]
    n_full = sum(1 for r in fulls if r)
    n_icnn = sum(1 for r in icnns if r)
    nonconservative = sum(1 for i in range(n) if icnns[i] and not fulls[i])

    # every feasible classifier dispatch in one batch, as the labels are
    solved = [i for i in range(n) if icnns[i]]
    worst_violation = 0.0
    if solved:
        X = np.array([icnns[i].p for i in solved]) - demands[solved]
        worst_violation = max(0.0, float(region.margins(region.project(X)).max()))

    excess = [(icnns[i].cost - fulls[i].cost) / max(abs(fulls[i].cost), 1e-12)
              for i in both]
    diagnostic = _dcopf_diagnostic(net, demands, region, clf)
    rt_full = [fulls[i].runtime for i in both]
    rt_icnn = [icnns[i].runtime for i in both]
    summary = {
        "instances": n,
        "feasible_full": n_full,
        "feasible_icnn": n_icnn,
        "extra_infeasible_fraction":
            (n_full - len(both)) / n_full if n_full else None,
        "conservativeness_violations": nonconservative,
        "max_region_violation": worst_violation,
        "mean_excess_cost": float(np.mean(excess)) if both else None,
        "max_excess_cost": float(np.max(excess)) if both else None,
        "mean_runtime_full": float(np.mean(rt_full)) if both else None,
        "mean_runtime_icnn": float(np.mean(rt_icnn)) if both else None,
        "speedup": (float(np.mean(rt_full) / np.mean(rt_icnn))
                    if both and np.mean(rt_icnn) > 0 else None),
        "icnn_setup_s": icnn_setup,
        # the classifier LP's shape, and the engine's work over the loop
        "icnn_lp": {"rows": engine.m,
                    "ranged_rows": int(np.isfinite(lp.ranges).sum()),
                    **{k: v - work[k] for k, v in engine.counters().items()}},
        "dcopf_diagnostic": diagnostic,
        "runtime_note": "runtime means cover instances feasible under both "
                        "formulations only; an icnn runtime is a warm "
                        "right-hand-side re-solve from the cached nominal "
                        "basis, and the one-off LP build and nominal solve "
                        "are icnn_setup_s",
    }
    return records, summary


def _dcopf_diagnostic(net: Network, demands, region: ContingencyRegion,
                      clf: ScaledClassifier):
    """Per instance, the DC-OPF dispatch's status, its injection's label
    against the region (1 insecure, as the dataset's labels) and the
    classifier's decision value there (> 0 flags it insecure), both in one
    batch as screening computes them; None where the DC-OPF is not optimal.
    """
    dcopf = DcopfSolver(net)
    results = [dcopf.solve(d) for d in demands]
    solved = [i for i, res in enumerate(results) if res]
    labels, values = {}, {}
    if solved:
        X = np.array([results[i].injection for i in solved])
        labels = dict(zip(solved, label_injections(region, X).tolist()))
        values = dict(zip(solved, clf.decision_values(standardize_points(
            X, region.n_full, *clf.transform())).tolist()))
    return [{"instance": i, "dcopf_status": res.status.name,
             "dcopf_label": labels.get(i), "decision_value": values.get(i)}
            for i, res in enumerate(results)]


def save_benchmark(records, summary, csv_path, json_path):
    """Write the per-instance CSV and the summary JSON (the only one of
    the two with times in it)."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["instance", "formulation", "status", "cost",
                            "blocking"])
        writer.writeheader()
        writer.writerows(records)
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
