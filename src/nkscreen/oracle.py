"""Exact support maximization over the predicted-feasible set.

The classifier's predicted set {x : forward(x) <= 0} is the intersection of
its box with the 0-sublevel set of raw(x).  Because inner weights are
nonnegative, replacing each relu activation z = max(p, 0) by the epigraph
pair (z >= p, z >= 0) gives a linear program whose x-projection is exactly
that set: epigraph-feasible z can only overestimate the true activations,
and overestimation can only increase raw.  Support values max a^T x over the
predicted set are therefore exact LP optima.

Built on top of that:

  * certify: the predicted set is a subset of {A x <= b} iff every row's
    support stays below its offset, checked with one warm-started sweep
    (each row re-priced from its own optimal basis when the solver has
    already solved it under the same weights).
  * scale_fast / scale_full: the smallest r (optionally with a shift v) such
    that the shrunken set (S - v) / r fits inside the region; the pinned-v
    optimum has the closed-form max_j support_j / b_j.
  * r_gradient: envelope derivative of the fast scaling factor with respect
    to the network parameters, used by the scaled training loss.
  * ScalingOracle: repeated rescaling of one region during training, pruning
    most rows with box-support upper bounds and cached feasible points while
    returning the same answer as the full sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .icnn import IcnnGrads, IcnnParams, backward, forward
from .lp import TOL_FEAS, LpProblem, LpStatus, NumericalFailure, SimplexEngine, solve

R_MIN = 1e-6
_SAFETY = 1e-9  # float slack for the sweep-pruning bounds


class EmptyPredictedSet(RuntimeError):
    """The classifier predicts no point feasible (sublevel LP infeasible)."""


class DegenerateRatio(RuntimeError):
    """Scaling factor fell to r_min: the set reaches toward no constraint."""


class ScalingInfeasible(RuntimeError):
    """The full scaling LP is infeasible (cannot happen with b > 0)."""


def epigraph_constraints(params: IcnnParams):
    """Linear rows over variables [x, z] encoding {forward(x) <= 0}.

    Returns (A, b, lb, ub) with one row per hidden unit (z_i >= pre_i) plus
    the output row raw <= 0; relu nonnegativity and the box live in the
    variable bounds.
    """
    k, w, n = params.depth, params.width, params.n_inputs
    nz = k * w
    A = np.zeros((nz + 1, n + nz))
    b = np.zeros(nz + 1)
    for i in range(k):
        r0 = i * w
        A[r0:r0 + w, :n] = params.D[i]
        A[r0:r0 + w, n + r0:n + r0 + w] = -np.eye(w)
        if i > 0:
            A[r0:r0 + w, n + r0 - w:n + r0] = params.W[i - 1]
        b[r0:r0 + w] = -params.b[i]
    A[-1, :n] = params.D[k][0]
    A[-1, n + nz - w:] = params.W[k - 1][0]
    b[-1] = -params.b[k][0]
    lb = np.concatenate([params.box_lower, np.zeros(nz)])
    ub = np.concatenate([params.box_upper, np.full(nz, np.inf)])
    return A, b, lb, ub


@dataclass
class SupportResult:
    value: float
    x: np.ndarray
    output_dual: float  # multiplier of raw <= 0; zero when only the box binds


class SublevelSolver:
    """Warm-started engine answering max c.x over the predicted set.

    On the simplex backend each support LP starts from the basis the one
    before it left, except a direction already solved under the current
    weights: that one starts from its own optimal basis, kept (basis and
    status, not the inverse) under the direction's bytes, so it is
    re-priced in zero pivots and gives the same bytes as before.  ``reload``
    drops every kept basis, so a sweep of distinct rows after it starts
    each LP exactly where it would without them.

    ``counters()`` returns the LPs solved, bases reused and, on the simplex
    backend, the engine's pivots, refactorizations and slack-basis retries.
    """

    def __init__(self, params: IcnnParams, backend="simplex"):
        self.backend = backend
        self.n = params.n_inputs
        self._arch = (params.depth, params.width, params.n_inputs)
        self.A, self.b, self.lb, self.ub = epigraph_constraints(params)
        self.n_lp = 0
        self.n_reused = 0
        self._bases = {}  # direction bytes -> BasisSnapshot without inverse
        self.engine = None
        if backend == "simplex":
            c0 = np.zeros(self.A.shape[1])
            self.engine = SimplexEngine(LpProblem(c=c0, A=self.A, b=self.b,
                                                  lb=self.lb, ub=self.ub))

    def reload(self, params: IcnnParams):
        """Swap in new weights of the same architecture, keeping the basis."""
        if (params.depth, params.width, params.n_inputs) != self._arch:
            raise ValueError("architecture changed; build a new solver")
        self.A, self.b, _, _ = epigraph_constraints(params)
        self._bases.clear()
        if self.engine is not None:
            self.engine.reload(A=self.A, b=self.b)

    def holds(self, params: IcnnParams):
        """Whether this solver's constraints are those of params."""
        A, b, lb, ub = epigraph_constraints(params)
        return all(np.array_equal(x, y) for x, y in
                   ((self.A, A), (self.b, b), (self.lb, lb), (self.ub, ub)))

    def counters(self):
        eng = self.engine
        return {
            "n_lp": self.n_lp,
            "pivots": eng.n_pivots if eng is not None else 0,
            "refactorizations": eng.n_refactors if eng is not None else 0,
            "slack_retries": eng.n_slack_retries if eng is not None else 0,
            "bases_reused": self.n_reused,
        }

    def support(self, direction) -> SupportResult:
        direction = np.asarray(direction, dtype=float)
        if not np.any(direction):
            raise ValueError("support direction must be nonzero")
        c = np.zeros(self.A.shape[1])
        c[:self.n] = direction
        if self.engine is not None:
            key = direction.tobytes()
            kept = self._bases.get(key)
            if kept is not None:
                self.engine.restore(kept)
                self.n_reused += 1
            sol = self.engine.resolve_objective(c)
            if sol:
                self._bases[key] = self.engine.snapshot(inverse=False)
        else:
            sol = solve(LpProblem(c=c, A=self.A, b=self.b, lb=self.lb,
                                  ub=self.ub), backend=self.backend)
        self.n_lp += 1
        if sol.status is LpStatus.INFEASIBLE:
            raise EmptyPredictedSet("classifier sublevel set is empty")
        if sol.status is not LpStatus.OPTIMAL:
            raise NumericalFailure(f"support solve ended {sol.status}")
        return SupportResult(value=float(sol.objective),
                             x=sol.x[:self.n].copy(),
                             output_dual=max(float(sol.duals[-1]), 0.0))


def sublevel_max(params: IcnnParams, direction, backend="simplex") -> SupportResult:
    """One-shot support of the predicted set along a direction."""
    return SublevelSolver(params, backend=backend).support(direction)


def _solver_for(params: IcnnParams, solver, backend):
    """A new solver for params, or the passed one if it holds params."""
    if solver is None:
        return SublevelSolver(params, backend=backend)
    if not solver.holds(params):
        raise ValueError("the solver holds other weights or another box "
                         "than params; reload it first")
    return solver


@dataclass
class CertificationReport:
    verdict: str                # "reliable" | "violated" | "unknown"
    supports: np.ndarray        # per-row support of the scaled predicted set
    margins: np.ndarray         # b - supports (negative rows break the cert)
    worst_row: int
    n_lp: int
    violations: list            # (row, scaled support, offset) per bad row
    failed_rows: list           # rows whose support LP did not solve
    # solver work of this certification (simplex backend; zero on HiGHS)
    pivots: int = 0
    refactorizations: int = 0
    slack_retries: int = 0
    bases_reused: int = 0

    @property
    def reliable(self):
        return self.verdict == "reliable"

    def __bool__(self):
        return self.reliable

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "worst_row": self.worst_row,
            "n_lp": self.n_lp,
            "supports": self.supports.tolist(),
            "margins": self.margins.tolist(),
            "violations": [(int(j), float(z), float(bj))
                           for j, z, bj in self.violations],
            "failed_rows": [int(j) for j in self.failed_rows],
            "pivots": self.pivots,
            "refactorizations": self.refactorizations,
            "slack_retries": self.slack_retries,
            "bases_reused": self.bases_reused,
        }


def certify(params: IcnnParams, A, b, r=1.0, v=None, solver=None,
            backend="simplex", tol=TOL_FEAS) -> CertificationReport:
    """Check (S - v)/r is a subset of {A x <= b}, S the predicted set.

    One support LP per row; the subset relation holds iff
    (support_j - a_j.v)/r <= b_j + tol for every row j.  A numerical failure
    on any row downgrades the verdict to "unknown", never to reliable.

    A passed solver must hold params (ValueError otherwise).  Rows it has
    already solved under these weights, such as those of a full rescale
    just before, are re-priced from their own optimal bases in zero pivots.
    The report counts the LPs, pivots, refactorizations, slack-basis
    retries and reused bases of this call.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if r <= 0:
        raise ValueError("scaling factor must be positive")
    solver = _solver_for(params, solver, backend)
    before = solver.counters()
    zeta = np.full(A.shape[0], np.nan)
    failed = []
    for j, row in enumerate(A):
        try:
            zeta[j] = solver.support(row).value
        except NumericalFailure:
            failed.append(j)
    shift = A @ v if v is not None else 0.0
    scaled = (zeta - shift) / r
    margins = b - scaled
    bad = [(int(j), float(scaled[j]), float(b[j]))
           for j in np.nonzero(scaled > b + tol)[0]]
    if bad:
        verdict = "violated"
    elif failed:
        verdict = "unknown"
    else:
        verdict = "reliable"
    finite = np.where(np.isnan(margins), np.inf, margins)
    work = {k: after - before[k] for k, after in solver.counters().items()}
    return CertificationReport(
        verdict=verdict,
        supports=scaled,
        margins=margins,
        worst_row=int(np.argmin(finite)),
        n_lp=work["n_lp"],
        violations=bad,
        failed_rows=failed,
        pivots=work["pivots"],
        refactorizations=work["refactorizations"],
        slack_retries=work["slack_retries"],
        bases_reused=work["bases_reused"],
    )


@dataclass
class ScaleResult:
    r: float
    v: np.ndarray
    row: int                    # binding region row
    support: float              # unscaled support along that row
    x: np.ndarray | None        # maximizer of that row's support LP
    output_dual: float          # its raw-constraint multiplier
    n_lp: int


def scale_fast(params: IcnnParams, A, b, solver=None, backend="simplex") -> ScaleResult:
    """Smallest r with (1/r) S inside the region: max_j support_j / b_j.

    Full sweep over all rows; ties resolve to the lowest row index.  Raises
    DegenerateRatio when the best ratio falls to R_MIN or below (the set
    reaches toward no constraint, which signals a pathological warm start).
    A passed solver must hold params (ValueError otherwise).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    solver = _solver_for(params, solver, backend)
    before = solver.n_lp
    best_ratio = -np.inf
    best_j = -1
    best = None
    for j in range(A.shape[0]):
        res = solver.support(A[j])
        ratio = res.value / b[j]
        if ratio > best_ratio:
            best_ratio, best_j, best = ratio, j, res
    if best_ratio <= R_MIN:
        raise DegenerateRatio(f"scaling ratio {best_ratio:.3e} <= {R_MIN}")
    return ScaleResult(r=best_ratio, v=np.zeros(A.shape[1]),
                       row=best_j, support=best.value, x=best.x,
                       output_dual=best.output_dual,
                       n_lp=solver.n_lp - before)


def scale_full(params: IcnnParams, A, b, pin_shift=False, solver=None,
               backend="auto") -> ScaleResult:
    """LP-optimal scaling min r s.t. support_j <= a_j.v + b_j r.

    Free v shifts the shrink center; pin_shift fixes v = 0, in which case the
    optimum coincides with scale_fast (same LP solved anyway, not the closed
    form, so the two routes stay independent).  A passed solver must hold
    params (ValueError otherwise).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    solver = _solver_for(params, solver, "simplex")
    before = solver.n_lp
    zeta = np.array([solver.support(row).value for row in A])
    c = np.zeros(n + 1)
    c[-1] = -1.0  # maximize -r
    rows = np.hstack([-A, -b[:, None]])
    lb = np.full(n + 1, -np.inf)
    ub = np.full(n + 1, np.inf)
    lb[-1] = R_MIN
    if pin_shift:
        lb[:n] = 0.0
        ub[:n] = 0.0
    sol = solve(LpProblem(c=c, A=rows, b=-zeta, lb=lb, ub=ub), backend=backend)
    if sol.status is LpStatus.INFEASIBLE:
        raise ScalingInfeasible("scaling LP infeasible")
    if sol.status is not LpStatus.OPTIMAL:
        raise NumericalFailure(f"scaling LP ended {sol.status}")
    r = float(sol.x[-1])
    if r <= R_MIN:
        raise DegenerateRatio(f"scaling ratio {r:.3e} <= {R_MIN}")
    v = sol.x[:n].copy()
    scaled = (zeta - A @ v) / r
    worst = int(np.argmin(b - scaled))
    return ScaleResult(r=r, v=v, row=worst, support=float(zeta[worst]), x=None,
                       output_dual=0.0, n_lp=solver.n_lp - before + 1)


def r_gradient(params: IcnnParams, scale: ScaleResult, b) -> IcnnGrads:
    """Envelope derivative of the fast scaling factor w.r.t. the parameters.

    r = support_{j*} / b_{j*} and d support / d theta = -lambda * d raw /
    d theta at the maximizer, lambda the raw-row multiplier.  Zero when only
    the box binds (the raw constraint is slack there).  Near a j* switch or
    a basis change this one-sided envelope derivative is not the two-sided
    slope, which is expected and harmless for subgradient training.
    """
    if scale.output_dual <= 0.0 or scale.x is None:
        return IcnnGrads.zeros_like(params)
    coeff = -scale.output_dual / float(np.asarray(b)[scale.row])
    grads, _ = backward(params, scale.x, np.array([coeff]), raw_only=True)
    return grads


def _box_support(params: IcnnParams, directions):
    """Support of the classifier box along each direction (rowwise)."""
    lo, hi = params.box_lower, params.box_upper
    return np.maximum(directions * hi, directions * lo).sum(axis=1)


@dataclass
class ScalingOracle:
    """Repeated exact rescaling of a fixed region during training.

    Most rows are pruned without an LP: with any exactly-solved anchor row i,
    support_j <= support_i + h_box(a_j - a_i) since the predicted set lives
    inside the box; cached maximizers that stay feasible under the current
    weights give a lower bound on the final ratio.  Rows whose upper bound
    cannot beat the running best are skipped, everything else is solved
    exactly, so the result matches the full sweep (small float safety slack
    keeps borderline rows on the solve side).
    """

    params: IcnnParams
    A: np.ndarray
    b: np.ndarray
    max_cache: int = 64
    solver: SublevelSolver = field(init=False)
    _cache: np.ndarray | None = field(init=False, default=None)
    _hint: int = field(init=False, default=0)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if np.any(self.b <= 0):
            raise ValueError("region offsets must be positive")
        self.solver = SublevelSolver(self.params, backend="simplex")

    def _finalize(self, solved, n_lp):
        idx = np.array(sorted(solved))
        ratios = np.array([solved[j].value for j in idx]) / self.b[idx]
        pick = int(np.argmax(ratios))  # first max: lowest row index wins
        j = int(idx[pick])
        best = solved[j]
        ratio = ratios[pick]
        xs = np.array([solved[k].x for k in idx])
        if self._cache is not None and len(self._cache):
            xs = np.vstack([self._cache, xs])
        self._cache = xs[-self.max_cache:]
        self._hint = j
        if ratio <= R_MIN:
            raise DegenerateRatio(f"scaling ratio {ratio:.3e} <= {R_MIN}")
        return ScaleResult(r=ratio, v=np.zeros(self.A.shape[1]),
                           row=j, support=best.value, x=best.x,
                           output_dual=best.output_dual, n_lp=n_lp)

    def rescale(self, params: IcnnParams, exact=False) -> ScaleResult:
        """Exact scaling of the current weights (pruned unless exact=True)."""
        self.params = params
        self.solver.reload(params)
        before = self.solver.n_lp
        m = self.A.shape[0]
        solved = {}
        if exact:
            for j in range(m):
                solved[j] = self.solver.support(self.A[j])
            return self._finalize(solved, self.solver.n_lp - before)

        rho = -np.inf
        if self._cache is not None and len(self._cache):
            keep = forward(params, self._cache) <= 0.0
            self._cache = self._cache[keep]
            if len(self._cache):
                lb = float(np.max((self.A @ self._cache.T) / self.b[:, None]))
                rho = lb - _SAFETY * max(1.0, abs(lb))

        anchor = self._hint if 0 <= self._hint < m else 0
        solved[anchor] = self.solver.support(self.A[anchor])
        rho = max(rho, solved[anchor].value / self.b[anchor])

        diff = self.A - self.A[anchor]
        ub_val = solved[anchor].value + _box_support(params, diff)
        ub_val += _SAFETY * np.maximum(1.0, np.abs(ub_val))
        ub_ratio = ub_val / self.b
        order = np.argsort(-ub_ratio, kind="stable")
        for j in order:
            j = int(j)
            if ub_ratio[j] < rho:
                break
            if j in solved:
                continue
            solved[j] = self.solver.support(self.A[j])
            rho = max(rho, solved[j].value / self.b[j])
        return self._finalize(solved, self.solver.n_lp - before)
