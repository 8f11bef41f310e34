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
    the same weights, re-solved under new ones.  ``sweep`` solves a list
    of directions; when each has a kept basis, its own or a named
    parent's, the LPs do not depend on one another and the engine solves
    them as stacked batches (``SimplexEngine.solve_each``), with the bytes
    of the LPs one by one.
  * certify: the predicted set is a subset of {A x <= b} iff every row's
    support stays below its offset, one support LP per row.  The rows are
    visited nearest-first: each next row is the unvisited one whose unit
    normal is closest in direction to the row just visited.  Every 64th
    row of that order is a seed, chained one LP at a time on a fresh
    solver; the others follow in three batched waves, each row from the
    optimal basis of the solved row whose optimal vertex scores highest
    along the row's normal.  The solver decides where each LP starts: a
    row with a kept basis of its own starts from it, whichever wave it
    falls in.
  * scale_fast: the smallest r such that the shrunken set S / r fits
    inside the region, max_j support_j / b_j, by its closed form.  The
    tests check it against the scaling LP that has that optimum.
  * r_gradient: envelope derivative of the fast scaling factor with respect
    to the network parameters, used by the scaled training loss.
  * ScalingOracle: repeated exact rescaling of one region during training,
    a full sweep each time, every row warm from its own basis of the sweep
    before.  The rescale keeps index order: its first sweep chains bases
    from row to row, degenerate rows end at bases that depend on that
    chain, and those bases decide the trained weights, so another order
    would change the checkpoint.  That first sweep runs one LP at a time,
    each waiting for the basis of the one before; every later sweep, and
    the certification on the oracle's solver, starts each row from its
    own kept basis and runs as a batch.  A certification with a fresh
    solver chains only its seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .icnn import IcnnGrads, IcnnParams, backward
from .lp import TOL_FEAS, LpProblem, LpStatus, NumericalFailure, SimplexEngine

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
    inverts it, unless it is already the current basis.  Under
    the weights it was solved for, the basis is re-priced in zero pivots
    and gives the same bytes as before; under newer weights the solve
    inverts it under the new matrix and runs the dual simplex when it
    stays dual feasible there, else phase 1 first when the new weights
    made it primal infeasible.  A new direction starts from the basis the
    LP before it left, or from a parent direction's kept basis in
    ``sweep``, which runs a list of directions as a batch when every one
    has a start.

    ``reload`` takes finite weights of the same architecture and box
    (ValueError otherwise).  ``counters()`` returns the LPs solved, bases
    reused, the engine's ``counters()``, the LPs a batch answered
    (``batched``; the others of a batched sweep went back to the engine one
    by one) and the batches' lockstep pivot rounds.
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
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("classifier weights must be finite")
        self.A, self.b = A, b
        self.engine.reload(A=self.A, b=self.b)

    def holds(self, params: IcnnParams):
        """Whether this solver's constraints are those of params."""
        A, b, lb, ub = epigraph_constraints(params)
        return all(np.array_equal(x, y) for x, y in
                   ((self.A, A), (self.b, b), (self.lb, lb), (self.ub, ub)))

    def counters(self):
        eng = self.engine
        return {"n_lp": self.n_lp, **eng.counters(),
                "bases_reused": self.n_reused, "batched": eng.n_batched,
                "lockstep_rounds": eng.n_rounds}

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
        return self._keep(key, sol, self.engine.snapshot())

    def sweep(self, directions, keep_going=False, parents=None):
        """The support of each row of ``directions``.

        Without ``parents`` it is ``support`` of each row in turn, byte for
        byte, the solver and its engine left as those calls leave them.
        When every direction is new to this sweep and has a kept basis, the
        engine solves them as batches (``SimplexEngine.solve_each``): each
        LP starts from its own basis, so none waits for the one before.  A
        sweep with a direction that has no basis yet chains each LP to the
        basis the one before left, and runs them one by one.

        ``parents`` names one direction per row, each with a kept basis
        (KeyError otherwise).  A row with no kept basis of its own starts
        from its parent's, so every row has a start and the sweep runs as
        batches, each row from the bases kept when the call began; rows of
        one parent share its snapshot, and a batch inverts it once.  A
        parent solved under the present weights hands over a basis optimal
        for another objective over the same constraints, so the row starts
        primal feasible, in phase 2.

        Returns one SupportResult per direction.  EmptyPredictedSet is
        raised at the first empty LP, and a NumericalFailure at the first
        failed one, unless ``keep_going``: then the failure takes the
        direction's place in the list and the sweep goes on.
        """
        D = np.asarray(directions, dtype=float)
        if not D.any(axis=1).all():
            raise ValueError("support direction must be nonzero")
        keys = [d.tobytes() for d in D]
        own = [self._bases.get(k) for k in keys]
        if parents is None:
            if None in own or len(set(keys)) < len(keys):
                return [_attempt(keep_going, self.support, d) for d in D]
            starts = own
        else:
            starts = [s if s is not None else self._bases[p.tobytes()]
                      for s, p in zip(own, np.asarray(parents, dtype=float))]
        C = np.zeros((len(D), self.A.shape[1]))
        C[:, :self.n] = D
        out = []
        while len(out) < len(D):
            # the run ends at the first LP that is not optimal
            for sol, snap in self.engine.solve_each(C[len(out):],
                                                    starts[len(out):]):
                i = len(out)
                self.n_reused += own[i] is not None
                out.append(_attempt(keep_going, self._keep, keys[i], sol,
                                    snap))
        return out

    def _keep(self, key, sol, snap):
        """The SupportResult of a solve, its optimal basis kept under key."""
        if isinstance(sol, NumericalFailure):
            raise sol
        res = self._result(sol)
        self._bases[key] = snap
        return res

    def _result(self, sol):
        self.n_lp += 1
        if sol.status is LpStatus.INFEASIBLE:
            raise EmptyPredictedSet("classifier sublevel set is empty")
        if sol.status is not LpStatus.OPTIMAL:
            raise NumericalFailure(f"support solve ended {sol.status}")
        if not (np.isfinite(sol.objective) and np.isfinite(sol.x).all()):
            raise NumericalFailure("support solve ended optimal at a "
                                   "non-finite point")
        return SupportResult(value=float(sol.objective),
                             x=sol.x[:self.n].copy(),
                             output_dual=max(float(sol.duals[-1]), 0.0))


def _attempt(keep_going, fn, *args):
    """fn(*args), or with ``keep_going`` the NumericalFailure it raised."""
    try:
        return fn(*args)
    except NumericalFailure as exc:
        if not keep_going:
            raise
        return exc


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
    """The outcome of ``certify`` and the simplex work it took.

    ``refactorizations`` counts the basis inversions performed: a start
    basis that several rows of one batch share is inverted, and counted,
    once.
    """

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
    slack_retries: int = 0
    bland_switches: int = 0
    bases_reused: int = 0
    batched: int = 0            # LPs that a batch answered
    lockstep_rounds: int = 0    # the batches' pivot rounds

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
            "bland_switches": self.bland_switches,
            "bases_reused": self.bases_reused,
            "batched": self.batched,
            "lockstep_rounds": self.lockstep_rounds,
        }


def nearest_first(A):
    """Greedy nearest-direction order of the rows of A.

    Starts at row 0; each next row is the unvisited row whose unit normal
    has the largest dot product with the row just visited, the lowest index
    on ties.  One matrix-vector product per row, no rows x rows matrix.
    """
    A = np.asarray(A, dtype=float)
    norms = np.linalg.norm(A, axis=1)
    U = A / np.where(norms > 0, norms, 1.0)[:, None]
    order = np.zeros(len(U), dtype=np.intp)
    visited = np.zeros(len(U), dtype=bool)
    for k in range(1, len(U)):
        visited[order[k - 1]] = True
        dots = U @ U[order[k - 1]]
        dots[visited] = -np.inf
        order[k] = np.argmax(dots)
    return order


# certify chains every SEED_STRIDE-th row of the nearest-first order, then
# solves the rows at each of WAVE_STRIDES in one batched sweep; the best
# vertex of each wave row is found VERTEX_CHUNK rows at a time
SEED_STRIDE = 64
WAVE_STRIDES = (16, 4, 1)
VERTEX_CHUNK = 256


def _best_vertex(A, rows, X, cands):
    """For each row j of rows, the row p of cands (ascending) whose optimal
    vertex X[p] maximizes a_j.x_p, the lowest index on ties; in chunks, so
    no rows x cands matrix."""
    Xc = X[cands].T
    return np.concatenate(
        [cands[np.argmax(A[rows[i:i + VERTEX_CHUNK]] @ Xc, axis=1)]
         for i in range(0, len(rows), VERTEX_CHUNK)])


def certify(params: IcnnParams, A, b, r=1.0, v=None,
            solver=None) -> CertificationReport:
    """Check (S - v)/r is a subset of {A x <= b}, S the predicted set.

    One support LP per row; the subset relation holds iff
    (support_j - a_j.v)/r <= b_j + TOL_FEAS for every row j.  The verdict is
    "reliable" only when every row's scaled support is known to pass; a
    numerical failure on a row, or a support that is not a number, makes it
    "unknown", and any row over its offset "violated".  r must be finite
    and positive and v finite (ValueError otherwise).

    The rows are visited in ``nearest_first`` order.  Every SEED_STRIDE-th
    row of it is a seed, solved one LP at a time, each from the basis the
    one before left.  The rest are solved in waves: the rows at every 16th,
    then every 4th position, then all others.  Each wave is one batched
    sweep (``SublevelSolver.sweep`` with parents), row j starting from the
    optimal basis of the solved row p whose optimal vertex x_p maximizes
    a_j.x_p, the lowest row index on ties.  x_p is feasible for row j's LP,
    so that start is primal feasible, and of all solved rows' vertices it
    starts highest: the optimal basis of a similar instance, as in Misra,
    Roald & Ng (arXiv:1802.09639), and independent LPs solved side by side,
    as in Gurung & Ray (ICPE 2019); the rows that share a parent share its
    refactorization.  A row that failed is no parent; a wave with no
    solved row to start from chains, as the seeds do.  The report is
    indexed by row all the same, and lists violations and failed rows in
    ascending row order.  ``scale_fast`` keeps index order (see the module
    docstring).

    A passed solver must hold params (ValueError otherwise).  A row it has
    kept a basis for, such as every row of a full rescale just before,
    starts from that basis in whichever sweep it falls (``sweep`` takes a
    row's own basis before its parent's), and under the same weights is
    re-priced in zero pivots; when every seed has one, the seeds run as a
    batch too.  The report counts the LPs, pivots, refactorizations (a
    shared start once), slack-basis retries, switches to Bland's rule,
    reused bases, batched LPs and lockstep rounds of this call.  An empty
    row set is a ValueError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if not len(A):
        raise ValueError("the region is empty: no rows to certify")
    if not (np.isfinite(r) and r > 0):
        raise ValueError(f"scaling factor must be finite and positive, "
                         f"not {r}")
    if v is not None and not np.isfinite(v).all():
        raise ValueError("shift must be finite")
    solver = _solver_for(params, solver)
    before = solver.counters()
    zeta = np.full(A.shape[0], np.nan)
    vertex = np.zeros(A.shape)  # each solved row's optimal x
    solved = np.zeros(A.shape[0], dtype=bool)
    order = nearest_first(A)
    pos = np.arange(len(order))
    # the seeds, chained, then the waves, each row from a solved row's vertex
    swept = np.zeros(len(order), dtype=bool)
    for k, stride in enumerate((SEED_STRIDE, *WAVE_STRIDES)):
        wave = pos % stride == 0
        rows = order[wave & ~swept]
        swept |= wave
        if not len(rows):
            continue
        parents = None
        if k and solved.any():
            parents = A[_best_vertex(A, rows, vertex,
                                     np.flatnonzero(solved))]
        results = solver.sweep(A[rows], keep_going=True, parents=parents)
        for j, res in zip(rows, results):
            if not isinstance(res, NumericalFailure):
                zeta[j] = res.value
                vertex[j] = res.x
                solved[j] = True
    failed = np.flatnonzero(~solved).tolist()
    shift = A @ v if v is not None else 0.0
    scaled = (zeta - shift) / r
    margins = b - scaled
    bad = [(int(j), float(scaled[j]), float(b[j]))
           for j in np.nonzero(scaled > b + TOL_FEAS)[0]]
    if bad:
        verdict = "violated"
    elif np.all(scaled <= b + TOL_FEAS):  # False at a NaN
        verdict = "reliable"
    else:
        verdict = "unknown"
    finite = np.where(np.isnan(margins), np.inf, margins)
    work = {k: after - before[k] for k, after in solver.counters().items()
            if k in CertificationReport.__dataclass_fields__}
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
    for j, res in enumerate(solver.sweep(A)):
        ratio = res.value / b[j]
        if ratio > best_ratio:
            best_ratio, best_j, best = ratio, j, res
    if best_ratio <= R_MIN:
        raise DegenerateRatio(f"scaling ratio {best_ratio:.3e} <= {R_MIN}")
    return ScaleResult(r=best_ratio, row=best_j, support=best.value,
                       x=best.x, output_dual=best.output_dual,
                       n_lp=solver.n_lp - before)


def r_gradient(params: IcnnParams, scale: ScaleResult, b,
               out=None) -> IcnnGrads:
    """Envelope derivative of the fast scaling factor w.r.t. the parameters.

    r = support_{j*} / b_{j*} and d support / d theta = -lambda * d raw /
    d theta at the maximizer, lambda the raw-row multiplier.  Zero when only
    the box binds (the raw constraint is slack there).  Near a j* switch or
    a basis change this one-sided envelope derivative is not the two-sided
    slope, which is expected and harmless for subgradient training.  ``out``
    is an IcnnGrads to overwrite and return; without one it is new.
    """
    if scale.output_dual <= 0.0 or scale.x is None:
        if out is None:
            return IcnnGrads.zeros_like(params)
        out.vec.fill(0.0)
        return out
    coeff = -scale.output_dual / float(np.asarray(b)[scale.row])
    grads, _ = backward(params, scale.x, np.array([coeff]), raw_only=True,
                        out=out, want_dx=False)
    return grads


@dataclass
class ScalingOracle:
    """Repeated exact rescaling of a fixed region during training.

    Each rescale is scale_fast's full sweep over every region row, on one
    SublevelSolver kept for the whole training.  Row j starts from its own
    optimal basis of the rescale before, so once the weights move little
    between rescales a sweep takes few pivots, and every rescale after the
    first runs as a batch.  The support values are those of a fresh sweep
    up to rounding; a degenerate row may return another optimal vertex.
    """

    params: IcnnParams
    A: np.ndarray
    b: np.ndarray
    solver: SublevelSolver = field(init=False)

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if not len(self.b):
            raise ValueError("the region is empty: no rows to scale against")
        if np.any(self.b <= 0):
            raise ValueError("region offsets must be positive")
        self.solver = SublevelSolver(self.params)

    def rescale(self, params: IcnnParams) -> ScaleResult:
        """Exact scaling of params against the region."""
        self.solver.reload(params)
        self.params = params
        return scale_fast(params, self.A, self.b, solver=self.solver)
