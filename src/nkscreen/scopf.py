"""Security-constrained DC-OPF, in two formulations.

The full formulation dispatches against the base-case network limits plus
every post-contingency flow row of a reference region.  The classifier
formulation replaces those rows with the certified convex classifier's
predicted-feasible set, embedded exactly as ReLU-epigraph rows, so the whole
problem stays one LP.  Because certification makes the predicted set an
inner approximation of the region, every classifier dispatch is secure; the
price is occasional extra infeasibility and a small cost premium, which the
benchmark runner quantifies.

Only the right-hand side of the classifier LP depends on the demand.  Its
matrix is built once per (network, classifier) pair, cached under a digest
of their content, and solved once at the nominal demand.  Every demand is
then a right-hand-side re-solve that starts from that fixed nominal basis,
never from the previous demand's basis, so the answer for a demand is the
same whatever was solved before it.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import json
import time

from dataclasses import dataclass

import numpy as np

from .grid import Network, ptdf
from .icnn import ScaledClassifier
from .lp import LpProblem, LpStatus, NumericalFailure, SimplexEngine, solve
from .oracle import epigraph_constraints
from .region import ContingencyRegion


@dataclass
class ScopfResult:
    """One dispatch outcome: status, solution, and solve wall-clock."""

    status: LpStatus
    formulation: str
    p: np.ndarray | None = None
    cost: float | None = None
    runtime: float = 0.0

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


def _result(sol, formulation, net, runtime):
    if sol.status is not LpStatus.OPTIMAL:
        return ScopfResult(sol.status, formulation, runtime=runtime)
    p = sol.x[:net.n].copy()
    return ScopfResult(LpStatus.OPTIMAL, formulation, p=p,
                       cost=float(net.cost @ p), runtime=runtime)


def solve_scopf_full(net: Network, demand,
                     region: ContingencyRegion | None) -> ScopfResult:
    """Dispatch against base-case limits plus every region row.

    With region None the security rows are dropped and this reduces to plain
    DC-OPF.  The LP is solved once by ``lp.solve``, on HiGHS above 600 rows.
    Reported runtime covers the LP solve only, so both formulations are
    timed on the same footing.
    """
    demand = np.asarray(demand, dtype=float)
    _, H = ptdf(net)
    Hd = H @ demand
    blocks = [H, -H]
    rhs = [net.f_upper + Hd, -net.f_lower - Hd]
    if region is not None:
        G, h = region_inequalities(region)
        blocks.append(G)
        rhs.append(h + G @ demand)
    blocks.append(np.ones((1, net.n)))
    rhs.append(np.array([demand.sum()]))
    A = np.vstack(blocks)
    b = np.concatenate(rhs)
    rel = ["<="] * (len(b) - 1) + ["="]
    problem = LpProblem(c=-net.cost, A=A, b=b, rel=rel, lb=net.pmin, ub=net.pmax)
    formulation = "dcopf" if region is None else "full"
    t0 = time.perf_counter()
    sol = solve(problem)
    return _result(sol, formulation, net, time.perf_counter() - t0)


class _IcnnDispatchLp:
    """The classifier SC-OPF of one (network, classifier) pair.

    Only the right-hand side depends on the demand, so the constraint
    matrix (with the network's PTDF) is built once.  The simplex engine is
    built on first use and solved once at the network's nominal demand; a
    snapshot of its optimal basis is the start of every later solve.
    ``restore`` installs it, and the ``resolve_rhs`` after it refactorizes
    it from the engine's kept inverse (inverting it again only when that
    inverse was dropped) and computes the basic values once, under the
    demand's right-hand side.  Because every solve starts from this one
    basis, the answer for a demand does not depend on which demands came
    before.  If the nominal solve is not optimal, solves start from the
    slack basis.
    """

    def __init__(self, net: Network, clf: ScaledClassifier):
        params = clf.params
        n_in = params.n_inputs
        dim_map = np.arange(n_in) if clf.dim_map is None else clf.dim_map
        mu = np.zeros(n_in) if clf.mu is None else clf.mu
        sigma = np.ones(n_in) if clf.sigma is None else clf.sigma
        shift = np.zeros(n_in) if clf.v is None else clf.v
        if len(dim_map) != n_in:
            raise ValueError("classifier transform does not match its input width")

        A_e, b_e, lb_e, ub_e = epigraph_constraints(params)
        nz = A_e.shape[1] - n_in
        A_u, A_z = A_e[:, :n_in], A_e[:, n_in:]

        # network input u = r * ((p - d)[dim_map] - mu) / sigma + shift
        # = S (p - d) + s0
        S = np.zeros((n_in, net.n))
        S[np.arange(n_in), dim_map] = clf.r / sigma
        s0 = shift - clf.r * mu / sigma
        _, H = ptdf(net)
        nv = net.n + nz

        def pad(block):
            out = np.zeros((len(block), nv))
            out[:, :net.n] = block
            return out

        # the certified set is the sublevel set intersected with the input box
        hi_ok = np.isfinite(ub_e[:n_in])
        lo_ok = np.isfinite(lb_e[:n_in])
        balance = np.zeros((1, nv))
        balance[0, :net.n] = 1.0
        self.A = np.vstack([pad(H), pad(-H), np.hstack([A_u @ S, A_z]),
                            pad(S[hi_ok]), pad(-S[lo_ok]), balance])
        # every row constrains p - d, so the rhs is b0 + A[:, :n] @ d
        self.b0 = np.concatenate([
            net.f_upper, -net.f_lower, b_e - A_u @ s0,
            ub_e[:n_in][hi_ok] - s0[hi_ok], s0[lo_ok] - lb_e[:n_in][lo_ok],
            [0.0]])
        self.rel = ["<="] * (len(self.A) - 1) + ["="]
        self.lb = np.concatenate([net.pmin, np.zeros(nz)])
        self.ub = np.concatenate([net.pmax, np.full(nz, np.inf)])
        self.c = np.concatenate([-net.cost, np.zeros(nz)])
        # a private copy: the cache key describes the network at build time
        self.net = copy.deepcopy(net)
        self._engine = self._start = None

    def rhs(self, demand):
        return self.b0 + self.A[:, :self.net.n] @ demand

    def problem(self, demand) -> LpProblem:
        return LpProblem(c=self.c, A=self.A, b=self.rhs(demand), rel=self.rel,
                         lb=self.lb, ub=self.ub)

    def engine(self):
        """The simplex engine and its start basis, built on first use."""
        if self._engine is None:
            engine = SimplexEngine(self.problem(self.net.demand))
            start = engine.snapshot()  # the slack basis
            try:
                if engine.solve():
                    start = engine.snapshot()
            except NumericalFailure:
                pass
            self._engine, self._start = engine, start
        return self._engine, self._start

    def solve(self, demand) -> ScopfResult:
        engine, start = self.engine()
        b = self.rhs(demand)
        t0 = time.perf_counter()
        engine.restore(start)
        sol = engine.resolve_rhs(b)
        return _result(sol, "icnn", self.net, time.perf_counter() - t0)


# at most one entry: content key -> _IcnnDispatchLp
_icnn_lps: dict = {}


def _content_key(net: Network, clf: ScaledClassifier):
    """Digest of everything the classifier SC-OPF is built from.

    Keyed on content, not identity: training updates the weights in place.
    """
    p = clf.params
    h = hashlib.sha256()
    for item in (*p.W, *p.D, *p.b, p.box_lower, p.box_upper, clf.r, clf.v,
                 clf.mu, clf.sigma, clf.dim_map, net.n, net.slack, net.lines,
                 net.susceptance, net.f_lower, net.f_upper, net.pmin,
                 net.pmax, net.cost, net.demand):
        if item is None:
            h.update(b"none;")
            continue
        a = np.ascontiguousarray(item)
        h.update(f"{a.dtype.str}{a.shape};".encode())
        h.update(a.tobytes())
    return h.digest()


def _icnn_lp(net, clf) -> _IcnnDispatchLp:
    key = _content_key(net, clf)
    lp = _icnn_lps.get(key)
    if lp is None:
        lp = _IcnnDispatchLp(net, clf)
        _icnn_lps.clear()
        _icnn_lps[key] = lp
    return lp


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
    Only valid for certified classifiers: then any dispatch returned here
    satisfies the full region.

    The LP of the last (network, classifier) pair is cached, keyed on their
    content.  Each demand is a right-hand-side re-solve on the simplex
    engine from the optimal basis of the nominal demand, always that same
    basis, so the result depends on the demand alone and not on the order
    of calls; the reported runtime is that re-solve.  The one-off build and
    nominal solve are not part of it (``benchmark_scopf`` reports them as
    ``icnn_setup_s``).
    """
    return _icnn_lp(net, clf).solve(np.asarray(demand, dtype=float))


def region_safe_for_dispatch(net: Network, region: ContingencyRegion, demands):
    """Whether a reduced region constrains dispatch exactly for these demands.

    Folding a constant injection dimension into b is only valid for points
    that hold the folded value.  A dispatch problem can move any coordinate
    with generation headroom, so the fold is exact for optimization only
    when every dropped bus has no generator and none of the demand
    instances load it: then its injection is structurally zero, matching
    the folded constant.
    """
    if region.dim == region.n_full:
        return True
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    dropped = np.setdiff1d(np.arange(region.n_full), region.dim_map)
    vals = region.dropped_values[dropped]
    if not np.allclose(vals, 0.0, atol=1e-12):
        return False
    if np.any(net.pmax[dropped] != 0.0) or np.any(net.pmin[dropped] != 0.0):
        return False
    return not np.any(demands[:, dropped] != 0.0)


def benchmark_scopf(net: Network, demands, region: ContingencyRegion,
                    clf: ScaledClassifier):
    """Run both formulations over demand instances and compare.

    Returns (records, summary).  records holds one row per instance and
    formulation (for the CSV report); summary aggregates cost premium,
    infeasibility shares, soundness of the classifier dispatches against
    the region, and runtimes.  Runtime means cover only instances solved by
    both formulations, so neither side is charged for the other's
    infeasible cases.  The classifier LP is built (and solved at the nominal
    demand) once, before the loop; that one-off cost is icnn_setup_s, and
    each classifier runtime is a warm re-solve.
    """
    demands = np.atleast_2d(np.asarray(demands, dtype=float))
    if not region_safe_for_dispatch(net, region, demands):
        folded = np.setdiff1d(np.arange(region.n_full), region.dim_map)
        raise ValueError(
            f"region folds injection dimension(s) {folded.tolist()}, which "
            "the dispatch problem can move; benchmark against the "
            "full-dimension region (region_full.npz) instead")
    # the classifier LP's one-off build and nominal solve, timed apart
    _icnn_lps.clear()
    t0 = time.perf_counter()
    _icnn_lp(net, clf).engine()
    icnn_setup = time.perf_counter() - t0
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
                "runtime": repr(res.runtime),
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
        "runtime_note": "runtime means cover instances feasible under both "
                        "formulations only; an icnn runtime is a warm "
                        "right-hand-side re-solve from the cached nominal "
                        "basis, and the one-off LP build and nominal solve "
                        "are icnn_setup_s",
    }
    return records, summary


def save_benchmark(records, summary, csv_path, json_path):
    """Write the per-instance CSV and the summary JSON."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["instance", "formulation", "status", "cost", "runtime"])
        writer.writeheader()
        writer.writerows(records)
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
