"""Small networks and builders shared across test modules."""

import numpy as np

from nkscreen.grid import DispatchLp, Network, _surviving, ptdf
from nkscreen.icnn import IcnnParams, forward
from nkscreen.lp import (LpProblem, LpStatus, NumericalFailure, SimplexEngine,
                         solve)
from nkscreen.oracle import (R_MIN, DegenerateRatio, ScaleResult,
                             SublevelSolver, SupportResult, _solver_for)
from nkscreen.region import (ROW_META_DTYPE, TOL_RED, ContingencyRegion,
                             _box_support, _outage_sets)


def classify(params: IcnnParams, X):
    """True = predicted feasible (forward <= 0)."""
    return forward(params, X) <= 0.0


def enumerate_contingencies(net: Network, k: int):
    """All non-islanding outage sets of size 1..k, by size then lexicographic."""
    return [tuple(c) for g in _outage_sets(net, k) for c in g.tolist()]


def sublevel_max(params: IcnnParams, direction) -> SupportResult:
    """One-shot support of the predicted set along a direction."""
    return SublevelSolver(params).support(direction)


def scale_full(params: IcnnParams, A, b, solver=None) -> ScaleResult:
    """LP-optimal scaling: min r s.t. support_j <= b_j r, r >= R_MIN.

    The optimum is scale_fast's max_j support_j / b_j; solving the LP in
    place of the closed form keeps the two routes independent checks of
    each other.  A passed solver must hold params (ValueError otherwise).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    solver = _solver_for(params, solver)
    before = solver.n_lp
    zeta = np.array([res.value for res in solver.sweep(A)])
    sol = solve(LpProblem(c=np.array([-1.0]), A=-b[:, None], b=-zeta,
                          lb=np.array([R_MIN])))
    if sol.status is not LpStatus.OPTIMAL:
        raise NumericalFailure(f"scaling LP ended {sol.status}")
    r = float(sol.x[0])
    if r <= R_MIN:
        raise DegenerateRatio(f"scaling ratio {r:.3e} <= {R_MIN}")
    worst = int(np.argmin(b - zeta / r))
    return ScaleResult(r=r, row=worst, support=float(zeta[worst]), x=None,
                       output_dual=0.0, n_lp=solver.n_lp - before + 1)


def ring3(limits=(5.0, 5.0, 5.0), pmax=(10.0, 10.0, 0.0), cost=(1.0, 2.0, 0.0),
          demand=(0.0, 0.0, 1.0)):
    lim = np.asarray(limits, dtype=float)
    return Network(
        name="ring3",
        n=3,
        lines=np.array([[0, 1], [1, 2], [0, 2]]),
        susceptance=np.ones(3),
        f_lower=-lim,
        f_upper=lim,
        pmin=np.zeros(3),
        pmax=np.asarray(pmax, dtype=float),
        cost=np.asarray(cost, dtype=float),
        demand=np.asarray(demand, dtype=float),
        slack=0,
    ).validate()


def fixed_start_dcopf(net: Network, demands):
    """The plain DC-OPF at each demand, re-solved on one engine from its
    nominal optimal basis and inverse, restored before every demand: the
    first step of the classifier SC-OPF, built from ``DispatchLp`` and the
    engine alone."""
    lp = DispatchLp(net)
    eng = SimplexEngine(lp.problem(net.demand))
    assert eng.solve()
    start = (eng.snapshot(), eng.B_inv.copy())
    out = []
    for d in demands:
        eng.restore(*start)
        out.append(eng.resolve_rhs(lp.rhs(np.asarray(d, dtype=float))))
    return out


def tree_nodes(tree):
    """Every node of an ``lp.OptimalBases`` tree, root first, breadth first."""
    nodes = [] if tree.root is None else [tree.root]
    for node in nodes:
        nodes += [c for c in node.children.values() if c is not None]
    return nodes


def record_pivots(eng):
    """A list to which the engine appends its basis and statuses, as bytes,
    after each pivot from now on."""
    states, step = [], eng._apply_step

    def recorded(*args):
        step(*args)
        states.append((eng.basis.tobytes(), eng.vstat.tobytes()))

    eng._apply_step = recorded
    return states


def square_toy(n_samples=400, t=0.8, lim=2.0, seed=0):
    """2-D toy classification set: label 1 = outside the square |x|_inf <= t."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-lim, lim, size=(n_samples, 2))
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.full(4, float(t))
    y = (X @ A.T > b).any(axis=1).astype(float)
    return A, b, X, y


def two_bus(limit=150.0):
    return Network(
        name="two",
        n=2,
        lines=np.array([[0, 1]]),
        susceptance=np.array([1.0]),
        f_lower=np.array([-limit]),
        f_upper=np.array([limit]),
        pmin=np.zeros(2),
        pmax=np.array([200.0, 0.0]),
        cost=np.array([10.0, 0.0]),
        demand=np.array([0.0, 100.0]),
        slack=0,
    ).validate()


def region_from_rows(A, b, box=None):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    meta = np.zeros(len(b), dtype=ROW_META_DTYPE)
    meta["line"] = np.arange(len(b))
    r = ContingencyRegion(
        A=A,
        b=b,
        row_meta=meta,
        contingencies=[(0,)],
        n_full=A.shape[1],
        dim_map=np.arange(A.shape[1]),
        dropped_values=np.full(A.shape[1], np.nan),
        mu=np.zeros(A.shape[1]),
        sigma=np.ones(A.shape[1]),
        box_lower=None if box is None else np.asarray(box[0], dtype=float),
        box_upper=None if box is None else np.asarray(box[1], dtype=float),
    )
    return r.validate(require_interior=False)


def incidence_matrix(net: Network, line_idx=None) -> np.ndarray:
    """Bus-by-line incidence C: C[f,l] = +1, C[t,l] = -1 for line l = (f,t).

    ``line_idx`` may carry leading batch axes, e.g. (B, nl) for B line
    subsets; C then has shape (B, n, nl).
    """
    if line_idx is None:
        line_idx = np.arange(net.m)
    line_idx = np.asarray(line_idx, dtype=np.intp)
    C = np.zeros(line_idx.shape[:-1] + (net.n, line_idx.shape[-1]))
    *batch, col = np.indices(line_idx.shape, sparse=True)
    C[(*batch, net.lines[line_idx, 0], col)] = 1.0
    C[(*batch, net.lines[line_idx, 1], col)] = -1.0
    return C


def ptdf_by_products(net: Network, outages=(), ascending=False):
    """Reference PTDF stack from dense products of the incidence matrix:
    L = (C diag(s)) C^T, its non-slack block inverted into a zero-embedded
    generalized inverse, H = (diag(s) C^T) @ that, then centred.  Returns
    (keep, H) for one set or a (B, k) stack, like ``ptdf``, with no
    islanding check.

    The products take their sums in the order the BLAS kernel picks for
    their sizes and memory layouts.  With ``ascending`` L is summed instead
    by a loop over the surviving lines in ascending order, and H is the
    product of the C-ordered line rows over the non-slack buses and the
    inverse: the arithmetic that defines ``ptdf``'s assembly.  OpenBLAS
    takes the same sums either way at case39's sizes, but not at every
    size."""
    alive, single = _surviving(net, outages)
    B = len(alive)
    keep = np.nonzero(alive)[1].reshape(B, -1)
    C = incidence_matrix(net, keep)
    Bd = net.susceptance[keep]
    Ct = C.transpose(0, 2, 1)
    if ascending:
        L = np.zeros((B, net.n, net.n))
        for b, lines in enumerate(keep):
            for line, s in zip(lines, Bd[b]):
                f, t = net.lines[line]
                L[b, f, f] += s
                L[b, t, t] += s
                L[b, f, t] -= s
                L[b, t, f] -= s
    else:
        L = (C * Bd[:, None, :]) @ Ct
    n = net.n
    idx = np.arange(n) != net.slack
    L_red = L[:, idx][:, :, idx]
    eye = np.broadcast_to(np.eye(n)[idx], (B, n - 1, n))
    if ascending:
        G = np.ascontiguousarray((Bd[:, :, None] * Ct)[:, :, idx])
        H = G @ np.linalg.solve(L_red, eye)
    else:
        rhs = np.zeros((B, n, n))
        rhs[:, idx, :] = np.linalg.solve(L_red, eye)
        H = (Bd[:, :, None] * Ct) @ rhs
    H -= np.mean(H, axis=2, keepdims=True)
    return (keep[0], H[0]) if single else (keep, H)


def is_islanding_bfs(net, outages):
    """Reference islanding check: depth-first search from bus 0."""
    out = set(int(o) for o in outages)
    adj = [[] for _ in range(net.n)]
    for l, (f, t) in enumerate(net.lines):
        if l not in out:
            adj[f].append(t)
            adj[t].append(f)
    seen = np.zeros(net.n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return not bool(seen.all())


def dedup_rows_oracle(A_hat, b_hat):
    """Reference duplicate search: np.unique over the rounded normals, then
    one pass keeping the tightest rhs per group (lowest index on ties)."""
    key = np.round(A_hat, 9)
    _, inverse = np.unique(key, axis=0, return_inverse=True)
    order = np.lexsort((np.arange(len(b_hat)), b_hat, inverse))
    seen = set()
    kept = []
    for i in order:
        g = int(inverse[i])
        if g not in seen:
            seen.add(g)
            kept.append(int(i))
    return np.array(sorted(kept))


def prune_full_sort(region):
    """Reference box-support prune: the duplicate search over every row
    (``dedup_rows_oracle``), then the box screen on each group's tightest
    row.  Returns the kept row indices and the counters the prune reports:
    the rows whose box support stays TOL_RED * M * |a_j| or more below b_j
    (M = sum_k max(|lo_k|, |hi_k|)), and the duplicates among the others,
    counted with ``np.unique`` over their rounded normals."""
    A, b = region.A, region.b
    lo, hi = region.box_lower, region.box_upper
    norms = np.linalg.norm(A, axis=1)
    A_hat, b_hat = A / norms[:, None], b / norms
    sup = _box_support(A, lo, hi)
    unique = dedup_rows_oracle(A_hat, b_hat)
    keep = unique[sup[unique] > b[unique]]
    near = sup > b - TOL_RED * np.maximum(np.abs(lo), np.abs(hi)).sum() * norms
    groups = len(np.unique(np.round(A_hat[near], 9) + 0.0, axis=0))
    return keep, {"rows_unreachable": int((~near).sum()),
                  "duplicate_rows_collapsed": int(near.sum()) - groups}


def mesh5():
    """Five buses, seven lines: a ring with two chords, so some pairs and
    triples of outages island it and others do not."""
    lines = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2], [1, 3]])
    return Network(
        name="mesh5",
        n=5,
        lines=lines,
        susceptance=np.array([1.0, 2.0, 0.5, 1.5, 1.0, 0.8, 1.2]),
        f_lower=np.full(7, -4.0),
        f_upper=np.full(7, 4.0),
        pmin=np.zeros(5),
        pmax=np.array([10.0, 0.0, 8.0, 0.0, 0.0]),
        cost=np.array([1.0, 0.0, 2.0, 0.0, 0.0]),
        demand=np.array([0.0, 3.0, 0.0, 2.0, 1.0]),
        slack=0,
    ).validate()


def paired_rows(p: LpProblem):
    """The same LP with each ranged row (of positive finite width) stated as
    two one-sided rows: the upper sides in place, then the lower sides,
    -a x <= w - b; equalities (width 0) stay as they are."""
    ranged = np.isfinite(p.ranges) & (p.ranges > 0)
    return LpProblem(c=p.c, A=np.vstack([p.A, -p.A[ranged]]),
                     b=np.concatenate([p.b, p.ranges[ranged] - p.b[ranged]]),
                     lb=p.lb, ub=p.ub,
                     ranges=np.concatenate([np.where(ranged, np.inf, p.ranges),
                                            np.full(ranged.sum(), np.inf)]))


class PairedRowsDcopf:
    """The DC-OPF with each line limit as two one-sided rows, H (p - d) <=
    f_upper and -H (p - d) <= -f_lower, then the balance 1 @ p = sum(d):
    2 m + 1 rows, re-solved warm from the previous basis.  Its dispatches
    are the bytes of the datasets built before ``DcopfSolver`` took one
    ranged row per line."""

    def __init__(self, net: Network):
        self.net = net
        _, self.H = ptdf(net)
        A = np.vstack([self.H, -self.H, np.ones((1, net.n))])
        widths = np.r_[np.full(2 * net.m, np.inf), 0.0]
        self.engine = SimplexEngine(LpProblem(
            c=-net.cost, A=A, b=self.rhs(net.demand), lb=net.pmin,
            ub=net.pmax, ranges=widths))

    def rhs(self, demand):
        Hd = self.H @ demand
        return np.concatenate([self.net.f_upper + Hd, -self.net.f_lower - Hd,
                               [float(np.sum(demand))]])

    def solve(self, demand):
        return self.engine.resolve_rhs(self.rhs(demand))
