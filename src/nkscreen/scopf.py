"""Security-constrained DC-OPF: the full formulation and one dispatcher
per constraint set.

The full formulation dispatches against the base-case network limits plus
every post-contingency flow row of a reference region, as one LP solved
cold.  A ``Dispatcher`` dispatches against one constraint set, built once
and held by its caller.  The classifier set replaces the region's rows with
the certified convex classifier's predicted-feasible set, embedded exactly
as ReLU-epigraph rows; because certification makes the predicted set an
inner approximation of the region, every classifier dispatch is secure,
and the price is occasional extra infeasibility and a small cost premium,
which the benchmark runner quantifies.  The facet set takes the rows of the
reduced region (``region.npz``: the facets at k = 2 on ``case39``), its box,
and its folded columns pinned at their folded values; it is the exact
baseline the classifier competes with.

Every formulation is a ``grid.DispatchLp``, the DC-OPF's LP, with its
security rows as extra rows.  Each two-sided limit, a line's flow or a box
coordinate, is one ranged row (``LpProblem.ranges``), not an upper and a
lower row: on ``case39`` the classifier LP has 122 rows instead of 192,
with the same optimum and the same pivots.  Only the right-hand side of a
set's LP depends on the demand, so its matrix is built once, with the
dispatcher, and solved once at the nominal demand, as is the plain DC-OPF.
Every demand is checked first: the DC-OPF is re-solved, and when the set
admits that dispatch, it is also the set LP's optimum, since that LP's
feasible set lies inside the DC-OPF's.  Only a dispatch the set rejects
(or a DC-OPF that is not optimal) goes on to the set's LP.  The DC-OPF step
is a ``grid.DcopfSolver``, as dataset sampling uses: it answers by one
product and one scan per basis, walking memoized dual simplex pivots from
its nominal optimal basis (``lp.OptimalBases``) until a basis stays optimal
for the demand.  Otherwise, and in the set's step always, a right-hand-side
re-solve starts from the nominal basis, never from the previous demand's,
so the answer for a demand is the same whatever was solved before it.

``solve_scopf_icnn`` keeps the classifier's dispatcher on the classifier
object (``classifier_dispatcher``), for the network object it was built
for, until one of the classifier's fields is assigned.
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
    # an infeasible dispatcher answer: the constraint the dual simplex
    # could not repair ("line i", "epigraph j" or "facet j", "box k", "fold
    # j", "balance", "bound p_j" or "bound z_j"), empty when the verdict
    # came from the primal phases
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


class _SecurityRows(DispatchLp):
    """A constraint set's dispatch LP: the ``DispatchLp`` with the set's
    rows as its extra rows, and the set's membership check.

    ``value(x)`` is at most 0 exactly when the injection x meets the set;
    ``blocking(j)`` names the engine's variable j, a column's bound or a
    row, by the labels of the extra rows in ``_labels``.
    """

    formulation = ""
    _labels: list

    def blocking(self, j):
        """Name of the engine's variable j: a column's bound or a row."""
        if j is None:
            return ""
        n, n_cols = self.net.n, self.A.shape[1]
        if j < n_cols:
            return f"bound p_{j}" if j < n else f"bound z_{j - n}"
        i = j - n_cols
        if i < self.net.m:
            return f"line {i}"
        if i < len(self.A) - 1:
            return self._labels[i - self.net.m]
        return "balance"


class _ClassifierRows(_SecurityRows):
    """The classifier set: the epigraph rows over the auxiliary unit
    columns z, then one row per bounded box coordinate (ranged, width
    hi - lo, when both bounds are finite).  Its check is the classifier's
    own screening network (``ScaledClassifier.decision_values`` of one
    point) at the injection's standardized coordinates.
    """

    formulation = "icnn"

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
        super().__init__(net, rows, rhs0, ranges, n_aux=nz)
        self._screen = clf._network()
        self._transform = (dim_map, mu, sigma)
        self._labels = ([f"epigraph {j}" for j in range(len(b_e))]
                        + [f"box {k}" for k in np.flatnonzero(hi_ok)]
                        + [f"box {k}" for k in np.flatnonzero(lo_only)])

    def value(self, x):
        """The classifier's decision value at injection x, as screening
        computes it for one point: > 0 flags x insecure."""
        u = standardize_points(x, self.net.n, *self._transform)
        return float(self._screen.one(u[0])[0])


class _FacetRows(_SecurityRows):
    """The facet set of a reduced region (``region.npz``): its rows mapped
    to p - d by ``region_inequalities``, one ranged row per box coordinate
    (in injection units, width sigma * (hi - lo)), and one zero-width
    ranged row per folded column, which pins that injection coordinate at
    its folded value; on ``case39`` at k = 2, 46 line, 88 facet, 24 box and
    15 pin rows and the balance, 174 rows.  Its check is the same rows at
    the injection, by comparison.
    """

    formulation = "facets"

    def __init__(self, net: Network, region: ContingencyRegion):
        if region.n_full != net.n:
            raise ValueError(f"region has {region.n_full} injection "
                             f"dimensions, the network {net.n} buses")
        if region.box_lower is None:
            raise ValueError("the facet set needs the region's box "
                             "(region.npz has one)")
        G, h = region_inequalities(region)
        kept = region.dim_map
        folded = np.setdiff1d(np.arange(net.n), kept)
        unit = np.eye(net.n)
        lo = region.mu + region.sigma * region.box_lower
        hi = region.mu + region.sigma * region.box_upper
        values = region.dropped_values[folded]
        super().__init__(
            net, np.vstack([G, unit[kept], unit[folded]]),
            np.concatenate([h, hi, values]),
            np.concatenate([np.full(len(h), np.inf), hi - lo,
                            np.zeros(len(folded))]))
        self._check = (G, h, kept, lo, hi, folded, values)
        self._labels = ([f"facet {j}" for j in range(len(h))]
                        + [f"box {k}" for k in range(len(kept))]
                        + [f"fold {f}" for f in folded])

    def value(self, x):
        """The largest excess of injection x over a facet row, a box face
        or a folded value: > 0 puts x outside the set."""
        G, h, kept, lo, hi, folded, values = self._check
        xk = x[kept]
        return float(max((G @ x - h).max(), (lo - xk).max(),
                         (xk - hi).max(), np.abs(x[folded] - values).max(
                             initial=0.0)))


class Dispatcher:
    """The SC-OPF against one constraint set, built once from a network
    and that set; its caller holds it.

    The set is a ``ScaledClassifier`` (the classifier's epigraph and box
    rows) or a reduced ``ContingencyRegion`` (its facets, its box and its
    folded columns pinned).  The constructor copies the network, builds the
    plain DC-OPF (a ``grid.DcopfSolver``, ``dcopf``) and the set's LP
    (``constraints``), and solves both at the network's nominal demand
    (``bases``, an ``lp.OptimalBases`` of the set's LP).

    ``solve(demand)`` takes up to three steps.  The DC-OPF step answers by
    one product and one bound scan per basis of a walk of memoized dual
    simplex pivots from its nominal optimal basis, or else by the engine's
    re-solve from it.  When that dispatch is optimal and the set's check
    admits its injection p - d (``check``), it is the answer: the set's LP
    lies inside the DC-OPF's, so a DC-OPF optimum inside the set is its
    optimum, and the step is exact.  Otherwise (the check fails, the
    DC-OPF is not optimal, or its re-solve raises ``NumericalFailure``)
    the set's LP is re-solved from its nominal basis
    (``lp.OptimalBases.resolve``); an infeasible verdict of its dual
    simplex names the constraint it could not repair
    (``ScopfResult.blocking``).  Both steps start from fixed bases, so the
    answer for a demand does not depend on which demands came before.
    ``n_screened`` counts the demands the first step answered, and the
    result's runtime covers the steps taken.
    """

    def __init__(self, net: Network, constraints):
        # a private copy: a dispatcher describes the network it was built from
        net = copy.deepcopy(net)
        if isinstance(constraints, ScaledClassifier):
            self.constraints = _ClassifierRows(net, constraints)
        elif isinstance(constraints, ContingencyRegion):
            self.constraints = _FacetRows(net, constraints)
        else:
            raise TypeError("a constraint set is a ScaledClassifier or a "
                            f"ContingencyRegion, not {type(constraints)}")
        self.dcopf = DcopfSolver(net)
        self.bases = OptimalBases(SimplexEngine(
            self.constraints.problem(net.demand)))
        self.n_screened = 0

    def check(self, demand):
        """The first step of ``solve``: the DC-OPF dispatch at the demand
        (a ``grid.DcopfResult``) and the set's ``value`` at its injection,
        None when the DC-OPF is not optimal; (None, None) when its
        re-solve raises ``NumericalFailure``."""
        try:
            res = self.dcopf.solve(demand)
        except NumericalFailure:
            return None, None
        if not res:
            return res, None
        return res, self.constraints.value(res.injection)

    def solve(self, demand) -> ScopfResult:
        demand = np.asarray(demand, dtype=float)
        rows = self.constraints
        t0 = time.perf_counter()
        res, value = self.check(demand)
        if value is not None and value <= 0.0:
            self.n_screened += 1
            return ScopfResult(LpStatus.OPTIMAL, rows.formulation, p=res.p,
                               cost=res.cost,
                               runtime=time.perf_counter() - t0)
        sol = self.bases.resolve(rows.rhs(demand))
        return _result(sol, rows.formulation, rows.net,
                       time.perf_counter() - t0, rows.blocking(sol.blocking))


def classifier_dispatcher(net: Network, clf: ScaledClassifier) -> Dispatcher:
    """The classifier's ``Dispatcher`` for the network object net, kept on
    the classifier.

    It is built at the first call for that network object and kept until
    another network object is passed or one of the classifier's params, r,
    v, mu, sigma or dim_map is assigned (``ScaledClassifier``'s rule for
    its screening network).  An in-place edit of the weights or of the
    network is not seen: assign ``clf.params = clf.params`` after one, and
    pass a copy of an edited network (``dataclasses.replace``).
    """
    held = clf._dispatch
    if held is None or held[0] is not net:
        held = (net, Dispatcher(net, clf))
        clf._dispatch = held
    return held[1]


def icnn_dispatch_problem(net: Network, demand, clf: ScaledClassifier) -> LpProblem:
    """The classifier SC-OPF at one demand as a standalone LP.

    The LP that ``solve_scopf_icnn`` solves, for cross-checks with
    ``lp.solve``; its matrix comes from the classifier's held dispatcher
    (``classifier_dispatcher``).
    """
    return classifier_dispatcher(net, clf).constraints.problem(
        np.asarray(demand, dtype=float))


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

    ``Dispatcher.solve`` of the classifier's held dispatcher
    (``classifier_dispatcher``): the DC-OPF step and the classifier's
    screen of its dispatch, plus the classifier LP's re-solve from its
    nominal basis when the screen flags the dispatch.  The result depends
    on the demand alone and not on the order of calls.  An infeasible
    result names in ``blocking`` the line, epigraph row, box coordinate,
    balance or generator bound the dual simplex could not repair.  The
    one-off build and nominal solves happen at the first call for a
    network object and are not part of the runtime (``benchmark_scopf``
    reports them as ``icnn_setup_s``).
    """
    return classifier_dispatcher(net, clf).solve(demand)


def benchmark_scopf(net: Network, demands, region: ContingencyRegion,
                    clf: ScaledClassifier,
                    facets: ContingencyRegion | None = None):
    """Run the formulations over demand instances and compare.

    The full formulation (``solve_scopf_full`` on region), the classifier's
    ``Dispatcher`` and, when the reduced region facets is given, the facet
    set's ``Dispatcher``; each dispatcher is built once, before the
    solves, and each formulation then solves every instance in turn.
    Returns (records, summary).  records holds one row per instance and
    formulation (for the CSV report: full, icnn, then facets), with no time
    in it, so the CSV depends only on the inputs; summary aggregates cost
    premium, infeasibility shares, soundness of the classifier dispatches
    against the region, and runtimes; ``icnn_screened`` counts the
    instances the classifier SC-OPF answered with the screened DC-OPF
    dispatch, and its ``dcopf_diagnostic`` gives, per instance, that
    DC-OPF dispatch's label against the region and the classifier's
    decision value there (``_dcopf_diagnostic``), with no time in it.
    Runtime means cover only instances solved by both formulations, so
    neither side is charged for the other's infeasible cases.  A
    dispatcher's one-off build and nominal solves are its setup
    (icnn_setup_s for the classifier); each dispatcher runtime is a warm
    DC-OPF step and its check, plus a warm step on the set's LP when the
    check fails; ``icnn_tables`` counts the classifier dispatcher's DC-OPF
    step's answers at each hop depth of its tree of bases (0: the nominal
    basis), the nodes it derived and its engine re-solves, and the
    classifier step's re-solves.  ``formulations`` reports each dispatcher
    side by side (``_formulation_summary``).  The region must have full
    dimension: ``solve_scopf_full`` refuses a folded one (ValueError).
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    sets = {"icnn": clf} if facets is None else {"icnn": clf, "facets": facets}
    dispatchers, setup = {}, {}
    for name, constraints in sets.items():
        t0 = time.perf_counter()
        dispatchers[name] = Dispatcher(net, constraints)
        setup[name] = time.perf_counter() - t0
    classifier = dispatchers["icnn"]
    engine = classifier.bases.engine
    work = engine.counters()
    # one formulation over every demand at a time: timed right after a
    # monolithic solve, which evicts the caches, the classifier's p50 read
    # 0.14 ms on case39 against 0.03 ms in turn
    fulls = [solve_scopf_full(net, d, region) for d in demands]
    answers = {name: [dispatcher.solve(d) for d in demands]
               for name, dispatcher in dispatchers.items()}
    records = [{"instance": i,
                "formulation": res.formulation,
                "status": res.status.name,
                "cost": "" if res.cost is None else repr(res.cost),
                "blocking": res.blocking}
               for i, row in enumerate(zip(fulls, *answers.values()))
               for res in row]

    tables = {"dcopf": classifier.dcopf.bases.counters(),
              "classifier": {"resolves": classifier.bases.n_resolves}}
    icnns = answers["icnn"]
    n = len(demands)
    both = [i for i in range(n) if fulls[i] and icnns[i]]
    n_full = sum(1 for r in fulls if r)
    n_icnn = sum(1 for r in icnns if r)
    nonconservative = sum(1 for i in range(n) if icnns[i] and not fulls[i])

    excess = [(icnns[i].cost - fulls[i].cost) / max(abs(fulls[i].cost), 1e-12)
              for i in both]
    diagnostic = _dcopf_diagnostic(classifier, demands, region)
    rt_full = [fulls[i].runtime for i in both]
    rt_icnn = [icnns[i].runtime for i in both]
    formulations = {
        name: _formulation_summary(dispatchers[name], answers[name], fulls,
                                   demands, region, setup[name])
        for name in dispatchers}
    summary = {
        "instances": n,
        "feasible_full": n_full,
        "feasible_icnn": n_icnn,
        "extra_infeasible_fraction":
            (n_full - len(both)) / n_full if n_full else None,
        "conservativeness_violations": nonconservative,
        "max_region_violation": formulations["icnn"]["max_region_violation"],
        "mean_excess_cost": float(np.mean(excess)) if both else None,
        "max_excess_cost": float(np.max(excess)) if both else None,
        "mean_runtime_full": float(np.mean(rt_full)) if both else None,
        "mean_runtime_icnn": float(np.mean(rt_icnn)) if both else None,
        "speedup": (float(np.mean(rt_full) / np.mean(rt_icnn))
                    if both and np.mean(rt_icnn) > 0 else None),
        "icnn_setup_s": setup["icnn"],
        "icnn_screened": classifier.n_screened,
        # the classifier LP's shape, and its engine's work over the loop:
        # the re-solves of the demands the screen did not answer
        "icnn_lp": {"rows": engine.m,
                    "ranged_rows":
                        int(np.isfinite(classifier.constraints.ranges).sum()),
                    **{k: v - work[k] for k, v in engine.counters().items()}},
        # the DC-OPF step's answers by hop depth from its nominal basis,
        # the nodes it derived and its engine re-solves; the classifier
        # step's re-solves
        "icnn_tables": tables,
        "formulations": formulations,
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
                        "and resolves sum to the instances), and icnn_lp's "
                        "engine counters cover the classifier step's "
                        "re-solves; the one-off LP builds and nominal "
                        "solves are icnn_setup_s; formulations gives each "
                        "dispatcher's runtime percentiles over every "
                        "instance, and its feasible share and cost ratio "
                        "against the full formulation",
    }
    return records, summary


def _formulation_summary(dispatcher: Dispatcher, results, fulls, demands,
                         region: ContingencyRegion, setup_s):
    """One dispatcher over the instances, against the full formulation's
    answers fulls: its setup, the p50 and p90 of its runtimes over every
    instance, its feasible answers, the share of the full formulation's
    feasible instances it solves too, the mean and largest ratio of its
    cost to the full optimum on those, the share of instances its first
    step answered, its feasible answers where the full formulation has
    none, and its dispatches' largest violation of region (0 when none
    passes a row; every feasible dispatch, in one batch as the labels
    are)."""
    n = len(results)
    solved = [i for i in range(n) if results[i]]
    both = [i for i in solved if fulls[i]]
    n_full = sum(1 for r in fulls if r)
    ratios = [results[i].cost / fulls[i].cost for i in both]
    ms = np.array([r.runtime for r in results]) * 1e3
    worst = 0.0
    if solved:
        X = np.array([results[i].p for i in solved]) - demands[solved]
        worst = max(0.0, float(region.margins(region.project(X)).max()))
    return {
        "setup_s": setup_s,
        "runtime_ms_p50": float(np.percentile(ms, 50)),
        "runtime_ms_p90": float(np.percentile(ms, 90)),
        "feasible": len(solved),
        "feasible_share": len(both) / n_full if n_full else None,
        "cost_ratio_mean": float(np.mean(ratios)) if both else None,
        "cost_ratio_max": float(np.max(ratios)) if both else None,
        "step1_share": dispatcher.n_screened / n,
        "conservativeness_violations": len(solved) - len(both),
        "max_region_violation": worst,
        "rows": dispatcher.bases.engine.m,
    }


def _dcopf_diagnostic(dispatcher: Dispatcher, demands,
                      region: ContingencyRegion):
    """Per instance, the status of the classifier dispatcher's DC-OPF step
    (``Dispatcher.check``; NUMERICAL_FAILURE where it raised), its
    injection's label against the region (1 insecure, as the dataset's
    labels, all in one batch) and the classifier's decision value there as
    that step's screen computes it (> 0 flags it insecure); None where the
    DC-OPF is not optimal.
    """
    steps = [dispatcher.check(d) for d in demands]
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
