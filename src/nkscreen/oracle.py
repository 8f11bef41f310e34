"""Exact support maximization over the predicted-feasible set.

The classifier's predicted set {x : forward(x) <= 0} is the intersection of
its box with the 0-sublevel set of raw(x).  Because inner weights are
nonnegative, replacing each relu activation z = max(p, 0) by the epigraph
pair (z >= p, z >= 0) gives a linear program whose x-projection is exactly
that set: epigraph-feasible z can only overestimate the true activations,
and overestimation can only increase raw.  Support values max a^T x over the
predicted set are therefore exact LP optima.

Built on top of that:

  * SublevelSolver: the support LPs on one warm simplex engine.  Each
    direction's optimal basis is kept, across weight reloads too, and a
    direction seen before starts from it: re-priced in zero pivots under
    the same weights, re-solved under new ones.
  * certify: the predicted set is a subset of {A x <= b} iff every row's
    support stays below its offset, checked with one sweep over the rows.
  * scale_fast / scale_full: the smallest r such that the shrunken set S / r
    fits inside the region, max_j support_j / b_j, by its closed form or by
    solving the scaling LP.
  * r_gradient: envelope derivative of the fast scaling factor with respect
    to the network parameters, used by the scaled training loss.
  * ScalingOracle: repeated exact rescaling of one region during training,
    a full sweep each time, every row warm from its own basis of the sweep
    before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .icnn import IcnnGrads, IcnnParams, backward
from .lp import TOL_FEAS, LpProblem, LpStatus, NumericalFailure, SimplexEngine, solve

R_MIN = 1e-6


class EmptyPredictedSet(RuntimeError):
    """The classifier predicts no point feasible (sublevel LP infeasible)."""


class DegenerateRatio(RuntimeError):
    """Scaling factor fell to r_min: the set reaches toward no constraint."""


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

    The support LPs run on one simplex engine.  The optimal basis of each
    solved direction is kept (a ``BasisSnapshot``) under the direction's
    bytes, and ``reload`` keeps them all.  A direction seen before starts
    from its own basis: ``restore`` installs it and the engine's solve
    refactorizes it, from the engine's kept inverse when it has one.  Under
    the weights it was solved for, the basis is re-priced in zero pivots
    and gives the same bytes as before; under newer weights the solve
    inverts it under the new matrix and runs phase 1 first when the new
    weights made it primal infeasible.  A new direction starts from the
    basis the LP before it left.

    ``reload`` takes weights of the same architecture and box (ValueError
    otherwise).  ``counters()`` returns the LPs solved, bases reused and
    the engine's ``counters()``.
    """

    def __init__(self, params: IcnnParams):
        self.n = params.n_inputs
        self._arch = (params.depth, params.width, params.n_inputs)
        self.A, self.b, self.lb, self.ub = epigraph_constraints(params)
        self.n_lp = 0
        self.n_reused = 0
        self._bases = {}  # direction bytes -> BasisSnapshot
        c0 = np.zeros(self.A.shape[1])
        self.engine = SimplexEngine(LpProblem(c=c0, A=self.A, b=self.b,
                                              lb=self.lb, ub=self.ub))

    def reload(self, params: IcnnParams):
        """Swap in new weights of the same architecture and box, keeping
        every basis."""
        if (params.depth, params.width, params.n_inputs) != self._arch:
            raise ValueError("architecture changed; build a new solver")
        A, b, lb, ub = epigraph_constraints(params)
        if not (np.array_equal(lb, self.lb) and np.array_equal(ub, self.ub)):
            raise ValueError("box changed; build a new solver")
        self.A, self.b = A, b
        self.engine.reload(A=self.A, b=self.b)

    def holds(self, params: IcnnParams):
        """Whether this solver's constraints are those of params."""
        A, b, lb, ub = epigraph_constraints(params)
        return all(np.array_equal(x, y) for x, y in
                   ((self.A, A), (self.b, b), (self.lb, lb), (self.ub, ub)))

    def counters(self):
        return {"n_lp": self.n_lp, **self.engine.counters(),
                "bases_reused": self.n_reused}

    def support(self, direction) -> SupportResult:
        direction = np.asarray(direction, dtype=float)
        if not np.any(direction):
            raise ValueError("support direction must be nonzero")
        c = np.zeros(self.A.shape[1])
        c[:self.n] = direction
        key = direction.tobytes()
        kept = self._bases.get(key)
        if kept is not None:
            self.engine.restore(kept)
            self.n_reused += 1
        sol = self.engine.resolve_objective(c)
        if sol:
            self._bases[key] = self.engine.snapshot()
        self.n_lp += 1
        if sol.status is LpStatus.INFEASIBLE:
            raise EmptyPredictedSet("classifier sublevel set is empty")
        if sol.status is not LpStatus.OPTIMAL:
            raise NumericalFailure(f"support solve ended {sol.status}")
        return SupportResult(value=float(sol.objective),
                             x=sol.x[:self.n].copy(),
                             output_dual=max(float(sol.duals[-1]), 0.0))


def sublevel_max(params: IcnnParams, direction) -> SupportResult:
    """One-shot support of the predicted set along a direction."""
    return SublevelSolver(params).support(direction)


def _solver_for(params: IcnnParams, solver):
    """A new solver for params, or the passed one if it holds params."""
    if solver is None:
        return SublevelSolver(params)
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
    # simplex work of this certification
    pivots: int = 0
    refactorizations: int = 0
    inverses_reused: int = 0
    slack_retries: int = 0
    bland_switches: int = 0
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
            "inverses_reused": self.inverses_reused,
            "slack_retries": self.slack_retries,
            "bland_switches": self.bland_switches,
            "bases_reused": self.bases_reused,
        }


def certify(params: IcnnParams, A, b, r=1.0, v=None, solver=None,
            tol=TOL_FEAS) -> CertificationReport:
    """Check (S - v)/r is a subset of {A x <= b}, S the predicted set.

    One support LP per row; the subset relation holds iff
    (support_j - a_j.v)/r <= b_j + tol for every row j.  A numerical failure
    on any row downgrades the verdict to "unknown", never to reliable.

    A passed solver must hold params (ValueError otherwise).  Rows it has
    already solved under these weights, such as those of a full rescale
    just before, are re-priced from their own optimal bases in zero pivots.
    The report counts the LPs, pivots, refactorizations, inverses reused,
    slack-basis retries, switches to Bland's rule and reused bases of this
    call.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if r <= 0:
        raise ValueError("scaling factor must be positive")
    solver = _solver_for(params, solver)
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
        violations=bad,
        failed_rows=failed,
        **work,
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


def scale_fast(params: IcnnParams, A, b, solver=None) -> ScaleResult:
    """Smallest r with (1/r) S inside the region: max_j support_j / b_j.

    Full sweep over all rows; ties resolve to the lowest row index.  Raises
    DegenerateRatio when the best ratio falls to R_MIN or below (the set
    reaches toward no constraint, which signals a pathological warm start).
    A passed solver must hold params (ValueError otherwise).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    solver = _solver_for(params, solver)
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
    zeta = np.array([solver.support(row).value for row in A])
    sol = solve(LpProblem(c=np.array([-1.0]), A=-b[:, None], b=-zeta,
                          lb=np.array([R_MIN])))
    if sol.status is not LpStatus.OPTIMAL:
        raise NumericalFailure(f"scaling LP ended {sol.status}")
    r = float(sol.x[0])
    if r <= R_MIN:
        raise DegenerateRatio(f"scaling ratio {r:.3e} <= {R_MIN}")
    worst = int(np.argmin(b - zeta / r))
    return ScaleResult(r=r, v=np.zeros(A.shape[1]), row=worst,
                       support=float(zeta[worst]), x=None, output_dual=0.0,
                       n_lp=solver.n_lp - before + 1)


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


@dataclass
class ScalingOracle:
    """Repeated exact rescaling of a fixed region during training.

    Each rescale is scale_fast's full sweep over every region row, on one
    SublevelSolver kept for the whole training.  Row j starts from its own
    optimal basis of the rescale before, so once the weights move little
    between rescales a sweep takes few pivots.  The support values are
    those of a fresh sweep up to rounding; a degenerate row may return
    another optimal vertex.
    """

    params: IcnnParams
    A: np.ndarray
    b: np.ndarray
    solver: SublevelSolver = field(init=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if np.any(self.b <= 0):
            raise ValueError("region offsets must be positive")
        self.solver = SublevelSolver(self.params)

    def rescale(self, params: IcnnParams) -> ScaleResult:
        """Exact scaling of params against the region."""
        self.params = params
        self.solver.reload(params)
        return scale_fast(params, self.A, self.b, solver=self.solver)
