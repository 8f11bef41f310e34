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
under a digest of their content, and solved once at the nominal demand, as
is the plain DC-OPF.  Every demand is screened first: the DC-OPF is
re-solved, and when the classifier admits that dispatch, it is also the
classifier LP's optimum, since that LP's feasible set lies inside the
DC-OPF's.  Only a dispatch the classifier flags (or a DC-OPF that is not
optimal) goes on to the classifier LP.  The DC-OPF step is a
``grid.DcopfSolver``, as dataset sampling uses: it answers by one product
and one scan per basis, walking memoized dual simplex pivots from its
nominal optimal basis (``lp.OptimalBases``) until a basis stays optimal for
the demand.  Otherwise, and in the classifier step always, a
right-hand-side re-solve starts from the nominal basis, never from the
previous demand's, so the answer for a demand is the same whatever was
solved before it.
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
from .icnn import ScaledClassifier, _ScreeningNetwork
from .lp import (LpProblem, LpStatus, NumericalFailure,
                 OptimalBases, SimplexEngine, solve)
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
    """The classifier SC-OPF of one (network, classifier) pair, screened
    first at the plain DC-OPF dispatch.

    The ``DispatchLp`` whose extra rows are the epigraph rows over the
    auxiliary unit columns z, then one row per bounded box coordinate
    (ranged, width hi - lo, when both bounds are finite).  Only the right-hand
    side depends on the demand, and a ranged row's width does not, so the
    constraint matrix (with the network's PTDF) is built once, and so is
    the classifier's screening network (``_ScreeningNetwork``), from the
    same content.

    ``solve`` takes two steps, each built and solved at the nominal demand
    on first use (``starts``).  First the plain DC-OPF, a
    ``grid.DcopfSolver``; when it is optimal and the classifier admits its
    injection p - d (decision value <= 0, as screening computes it for one
    point), that dispatch is the answer.  On ``case39``, over perfbench's
    first 150 demands of seeds 1-10, the DC-OPF's nominal basis answers
    60% at nominal load and 70% at peak, and the bases one or two dual
    pivots from it (the marginal generator leaving at pmin or at pmax
    first) all but 24 and 20 of the other 602 and 443, with no engine
    work; the engine answers those, the first walk to reach each node of a
    fresh tree.  The classifier LP's feasible set lies inside the
    DC-OPF's, so a DC-OPF optimum the classifier admits is a classifier-LP
    optimum: the step is exact.
    Otherwise (the classifier flags the injection, the DC-OPF is not
    optimal, or its re-solve raises ``NumericalFailure``) the classifier LP
    is re-solved from its nominal basis (``lp.OptimalBases.resolve``, no
    lookup: that optimum leaves every epigraph row slack), on ``case39`` in
    11-19 pivots; a refactorization inverts the block of the basis's
    structural columns, 4-22 wide, not all 122 rows.  An infeasible
    verdict of its dual simplex names the constraint it could not repair
    (``ScopfResult.blocking``).  Both steps start from fixed bases, so the
    answer for a demand does not depend on which demands came before.
    ``n_screened`` counts the demands the first step answered.
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
        self._starts = None
        self._screen = _ScreeningNetwork.build(clf)
        self._transform = (dim_map, mu, sigma)
        self.n_screened = 0
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

    def starts(self):
        """The plain DC-OPF's ``grid.DcopfSolver`` and the classifier LP's
        ``lp.OptimalBases``, each built and solved at the nominal demand on
        first use."""
        if self._starts is None:
            self._starts = (DcopfSolver(self.net), OptimalBases(
                SimplexEngine(self.problem(self.net.demand))))
        return self._starts

    def dcopf(self, demand):
        """The first step of ``solve``: the DC-OPF dispatch at the demand
        (a ``grid.DcopfResult``) and the classifier's decision value at its
        injection p - d, None when the DC-OPF is not optimal; (None, None)
        when its re-solve raises ``NumericalFailure``."""
        try:
            res = self.starts()[0].solve(demand)
        except NumericalFailure:
            return None, None
        if not res:
            return res, None
        u = standardize_points(res.injection, self.net.n, *self._transform)
        return res, float(self._screen.one(u[0])[0])

    def solve(self, demand) -> ScopfResult:
        classifier_lp = self.starts()[1]
        t0 = time.perf_counter()
        res, value = self.dcopf(demand)
        if value is not None and value <= 0.0:
            self.n_screened += 1
            return ScopfResult(LpStatus.OPTIMAL, "icnn", p=res.p,
                               cost=res.cost,
                               runtime=time.perf_counter() - t0)
        sol = classifier_lp.resolve(self.rhs(demand))
        return _result(sol, "icnn", self.net, time.perf_counter() - t0,
                       self._blocking(sol.blocking))


# the last pair's content ("content", see ``_content``) and its LP ("lp"),
# or nothing
_icnn_lps: dict = {}


def _content(net: Network, clf: ScaledClassifier):
    """Everything the classifier SC-OPF is built from, to compare by value:
    the arrays' bytes, joined, with each array's shape and dtype (None for
    a missing one), and the numbers.  The arrays are joined as they are;
    only when one is not C-contiguous are they copied contiguous first,
    which gives the same bytes.

    Keyed on content, not identity: training updates the weights in place.
    """
    p = clf.params
    arrays = (*p.W, *p.D, *p.b, p.box_lower, p.box_upper, clf.v, clf.mu,
              clf.sigma, clf.dim_map, net.lines, net.susceptance, net.f_lower,
              net.f_upper, net.pmin, net.pmax, net.cost, net.demand)
    try:
        data = b"".join([a for a in arrays if a is not None])
    except TypeError:  # an array that is not C-contiguous
        arrays = [None if a is None else np.ascontiguousarray(a)
                  for a in arrays]
        data = b"".join([a for a in arrays if a is not None])
    return (data, [None if a is None else (a.shape, a.dtype) for a in arrays],
            float(clf.r), int(net.n), int(net.slack))


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
    content.  Each demand is screened first: the plain DC-OPF is solved at
    it, and when the classifier admits that dispatch's injection it is the
    answer, since the classifier LP's feasible set lies inside the
    DC-OPF's.  Otherwise the classifier LP is solved.  The DC-OPF is
    answered by ``grid.DcopfSolver``: one product and one bound scan per
    basis of a walk of memoized dual simplex pivots from its nominal
    optimal basis (no engine work, the bytes of the engine's re-solve),
    else re-solved on the simplex engine by the dual simplex from the
    nominal basis; the classifier LP is always re-solved from its nominal
    basis.  Both start from the same bases every time, and the walked
    bases are derived from the nominal basis alone, so the result
    depends on the demand alone and not on the order of calls.  The
    reported runtime is the DC-OPF step plus the screen, plus the
    classifier step when the screen flags the dispatch.  An infeasible
    result names in ``blocking`` the line, epigraph row, box coordinate,
    balance or generator bound the dual simplex could not repair.  The one-off build and nominal solves
    are not part of the runtime (``benchmark_scopf`` reports them as
    ``icnn_setup_s``).
    """
    return _icnn_lp(net, clf).solve(np.asarray(demand, dtype=float))


def benchmark_scopf(net: Network, demands, region: ContingencyRegion,
                    clf: ScaledClassifier):
    """Run both formulations over demand instances and compare.

    Returns (records, summary).  records holds one row per instance and
    formulation (for the CSV report), with no time in it, so the CSV
    depends only on the inputs; summary aggregates cost premium,
    infeasibility shares, soundness of the classifier dispatches against
    the region, and runtimes; ``icnn_screened`` counts the instances the
    classifier SC-OPF answered with the screened DC-OPF dispatch, and its
    ``dcopf_diagnostic`` gives, per instance, that DC-OPF dispatch's label
    against the region and the classifier's decision value there
    (``_dcopf_diagnostic``), with no time in it.  Runtime means cover only
    instances solved by both formulations, so neither side is charged for
    the other's infeasible cases.  The classifier SC-OPF's LPs are built
    (and solved at the nominal demand) once, before the loop; that one-off
    cost is icnn_setup_s, and each classifier runtime is a warm DC-OPF
    step and its screen, plus a warm classifier step when the screen flags
    the dispatch; ``icnn_tables`` counts the DC-OPF step's answers at each
    hop depth of its tree of bases (0: the nominal basis), the nodes it
    derived and its engine re-solves, and the classifier step's re-solves.
    The region must have full dimension: ``solve_scopf_full`` refuses a
    folded one (ValueError).
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    # the classifier LP's one-off build and nominal solves, timed apart
    _icnn_lps.clear()
    t0 = time.perf_counter()
    lp = _icnn_lp(net, clf)
    engine = lp.starts()[1].engine
    icnn_setup = time.perf_counter() - t0
    work = engine.counters()
    screened = lp.n_screened
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

    # the steps were built above, so their counters are the loop's
    dcopf, classifier = lp.starts()
    tables = {"dcopf": dcopf.bases.counters(),
              "classifier": {"resolves": classifier.n_resolves}}
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
    diagnostic = _dcopf_diagnostic(lp, demands, region)
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
        "icnn_screened": lp.n_screened - screened,
        # the classifier LP's shape, and its engine's work over the loop:
        # the re-solves of the demands the screen did not answer
        "icnn_lp": {"rows": engine.m,
                    "ranged_rows": int(np.isfinite(lp.ranges).sum()),
                    **{k: v - work[k] for k, v in engine.counters().items()}},
        # the DC-OPF step's answers by hop depth from its nominal basis,
        # the nodes it derived and its engine re-solves; the classifier
        # step's re-solves
        "icnn_tables": tables,
        "dcopf_diagnostic": diagnostic,
        "runtime_note": "runtime means cover instances feasible under both "
                        "formulations only; an icnn runtime is the DC-OPF "
                        "re-solve from its nominal basis plus the "
                        "classifier screen of its dispatch, plus the "
                        "classifier LP's re-solve from its nominal basis "
                        "when the screen flags the dispatch (icnn_screened "
                        "counts the instances the screen answered); a "
                        "DC-OPF re-solve that ends at the nominal basis or "
                        "at a basis memoized dual simplex pivots from it "
                        "runs no engine work (icnn_tables.dcopf: "
                        "answers_by_hops, by pivots from the nominal basis, "
                        "and resolves sum to the instances), and icnn_lp's engine counters cover the classifier "
                        "step's re-solves; the one-off LP builds and "
                        "nominal solves are icnn_setup_s",
    }
    return records, summary


def _dcopf_diagnostic(lp: _IcnnDispatchLp, demands,
                      region: ContingencyRegion):
    """Per instance, the status of the DC-OPF step of the classifier
    SC-OPF (``_IcnnDispatchLp.dcopf``; NUMERICAL_FAILURE where it raised),
    its injection's label against the region (1 insecure, as the dataset's
    labels, all in one batch) and the classifier's decision value there as
    that step's screen computes it (> 0 flags it insecure); None where the
    DC-OPF is not optimal.
    """
    steps = [lp.dcopf(d) for d in demands]
    solved = [i for i, (sol, _) in enumerate(steps) if sol]
    labels = {}
    if solved:
        X = np.array([steps[i][0].injection for i in solved])
        labels = dict(zip(solved, label_injections(region, X).tolist()))
    return [{"instance": i,
             "dcopf_status": ("NUMERICAL_FAILURE" if sol is None
                              else sol.status.name),
             "dcopf_label": labels.get(i), "decision_value": value}
            for i, (sol, value) in enumerate(steps)]


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
