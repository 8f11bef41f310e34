"""Linear programming engine.

Every convex subproblem in this package reduces to an LP, so this module is
the single place where optimization happens.  Two backends sit behind one
problem/solution contract:

* ``SimplexEngine``: a dense bounded-variable revised simplex written here.
  It is deterministic (Dantzig entering rule with lowest-index tie-breaking,
  lowest-index leaving rule, Bland fallback on stalls), returns dual
  multipliers and keeps its basis between calls.  It has one solve path:
  ``reload`` sets any of the matrix, right-hand side and objective
  (``resolve_objective`` and ``resolve_rhs`` set one), and ``solve``
  refactorizes the current basis, recomputes the basic values, runs phase 1
  only when a bound is broken, then phase 2.  Warm re-solves are the hot
  path: sublevel-set sweeps re-solve the same polytope for thousands of
  objective rows, and dispatch sampling the same OPF for thousands of
  demand vectors; with a basis that stays optimal, one costs a feasibility
  check and a pricing pass.
  A refactorization inverts the basis matrix only when ``B_inv`` may differ
  from the exact inverse: it is exact after a refactorization or the
  slack-basis start, and stops being so when a pivot changes the basis,
  ``restore`` installs another one or ``reload`` replaces the matrix.
  Inverting the same basis columns again returns the same array, so
  skipping that inversion changes no output bit.  For the same reason the
  engine keeps the inverses of the 8 bases used last (keyed on the ordered
  basis, dropped when the matrix changes), and a refactorization of one of
  them copies the kept inverse: re-solves that return to a few optimal
  bases, as DC-OPF dispatch of sampled demands does, invert each basis
  once.  ``snapshot``/``restore`` save and reinstate a basis and its
  variables' statuses (never its inverse), for callers that want a
  re-solve to start from a basis of their choosing.

  The pivot loop is the hot path of training, so it is written for few
  numpy calls per pivot while keeping every floating-point operation of the
  textbook form, in the same order: pricing is ``c_B B^-1`` then
  ``c - y T``; the entering gain is ``rc`` times a sign looked up from the
  variable's status (``|rc|`` for free variables, 0 for fixed ones) and the
  entering column is its first maximum; the ratio test divides
  ``(bound - x_B) +- tol`` by the rate only where a basic variable moves
  toward a bound it can hit, all into one array whose first minimum blocks;
  the inverse takes its rank-one update in place.  Masks that depend only on
  the bounds (fixed and free columns) are computed once.  Counters of
  pivots, refactorizations, slack-basis retries and switches to Bland's
  rule are updated outside the per-pivot work.
* scipy's HiGHS: ``solve`` picks it for one-off instances of more than
  600 rows, where maintaining a dense basis inverse is wasteful, and
  ``solve(problem, backend="highs")`` asks for it by name.

Conventions: objective is MAXIMIZED; constraint relations are "<=" or "=";
duals of "<=" rows are nonnegative at optimality (up to ``TOL_FEAS``),
duals of "=" rows are free; complementary slackness holds up to ``TOL_COMP``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum

import numpy as np

TOL_FEAS = 1e-7   # primal feasibility and dual sign tolerance
TOL_COMP = 1e-6   # complementary slackness tolerance

_RC_TOL = 1e-9        # reduced-cost significance threshold
_PIVOT_TOL = 1e-10    # smallest acceptable pivot element
_RATIO_TOL = 1e-9     # slack allowed when computing blocking ratios
_REFACTOR_EVERY = 100
_STALL_LIMIT = 60     # degenerate pivots before switching to Bland's rule
_INVERSES_KEPT = 8    # basis inverses an engine keeps for reuse

# nonbasic/basic status codes
_BASIC, _AT_LB, _AT_UB, _FREE = 0, 1, 2, 3
# entering gain = rc * sign of the variable's status (free ones: |rc|)
_GAIN_SIGN = np.array([0.0, 1.0, -1.0, 1.0])


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class NumericalFailure(RuntimeError):
    """The solver could not certify a status within its tolerances."""


@dataclass
class LpProblem:
    """max c @ x  s.t.  A x (<=|=) b,  lb <= x <= ub.

    ``rel`` holds one relation string per row ("<=" or "=").  Bounds may be
    +-inf.  Rows of all zeros are rejected: they are either vacuous or
    infeasible and always indicate a modelling bug upstream.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    rel: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,):
            raise ValueError(f"objective has shape {self.c.shape}, expected ({n},)")
        if self.b.shape != (m,):
            raise ValueError(f"rhs has shape {self.b.shape}, expected ({m},)")
        if self.rel is None:
            self.rel = np.full(m, "<=", dtype=object)
        else:
            self.rel = np.asarray(self.rel, dtype=object)
            if self.rel.shape != (m,):
                raise ValueError("rel must have one entry per row")
            bad = [r for r in self.rel if r not in ("<=", "=")]
            if bad:
                raise ValueError(f"unknown relation(s) {bad}; use '<=' or '='")
        self.lb = np.full(n, -np.inf) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, +np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bounds must have one entry per variable")
        if np.any(self.lb > self.ub + TOL_FEAS):
            raise ValueError("lb > ub for some variable")
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.c))):
            raise ValueError("objective and rhs must be finite")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("constraint matrix must be finite")
        if m == 0:
            raise ValueError("problem must have at least one constraint row")
        if np.any(np.all(self.A == 0.0, axis=1)):
            raise ValueError("constraint rows of all zeros are not allowed")

    @property
    def n_rows(self):
        return self.A.shape[0]

    @property
    def n_vars(self):
        return self.A.shape[1]


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None          # one multiplier per constraint row
    reduced_costs: np.ndarray | None = None  # one per structural variable
    iterations: int = 0

    def __bool__(self):
        return self.status is LpStatus.OPTIMAL


@dataclass(frozen=True)
class BasisSnapshot:
    """A ``SimplexEngine`` basis and the status of every variable."""

    basis: np.ndarray
    vstat: np.ndarray


class SimplexEngine:
    """Bounded-variable two-phase revised simplex over a fixed row structure.

    The engine keeps its basis between calls, so ``resolve_objective`` /
    ``resolve_rhs`` / ``reload`` after small data changes typically finish in
    a handful of pivots (often zero); each sets its data and calls
    ``solve``.  All tie-breaking is by lowest index, so identical inputs
    produce identical outputs, iteration counts included.

    The engine keeps the inverses of the 8 bases it refactorized last, and
    refactorizing one of them again copies its kept inverse: the array
    ``np.linalg.inv`` would return again.  They take at most 8 m^2 floats
    (2.4 MB at 192 rows); a new matrix from ``reload`` drops them.

    ``counters()`` returns five counts over the engine's lifetime: pivots,
    refactorizations (basis inversions), inverses reused (refactorizations
    served from the kept inverses), slack retries (restarts from the slack
    basis) and Bland switches (pivot loops that switched to Bland's rule
    after a stall).  A singular basis makes a solve restart from the slack
    basis, and so does a numerical failure, once, unless the solve started
    there (the first solve, or one after a slack restart and no
    ``restore``); then it raises.
    """

    def __init__(self, problem: LpProblem):
        m, n = problem.n_rows, problem.n_vars
        self.m, self.n = m, n
        self.nt = n + m  # structural + one slack per row
        self.rel_eq = np.asarray([r == "=" for r in problem.rel])
        # full column table [A | I]
        self.T = np.empty((m, self.nt))
        self.T[:, :n] = problem.A
        self.T[:, n:] = np.eye(m)
        self.b = problem.b.astype(float).copy()
        self.L = np.concatenate([problem.lb, np.zeros(m)])
        self.U = np.concatenate([problem.ub, np.where(self.rel_eq, 0.0, np.inf)])
        # the bounds never change after construction
        self._fin_L = np.isfinite(self.L)
        self._fin_U = np.isfinite(self.U)
        self._fixed = np.flatnonzero(self.L == self.U)
        self._free = np.flatnonzero(~self._fin_L & ~self._fin_U)
        self._span = self.U - self.L
        self._outer = np.empty((m, m))  # rank-one update buffer
        self._cand = np.empty(m)         # ratio-test buffer
        self.n_pivots = self.n_refactors = self.n_slack_retries = 0
        self.n_bland = self.n_inverses_reused = 0
        # basis bytes -> inv(T[:, basis]), least recently used first
        self._inverses: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self.c = np.zeros(self.nt)
        self.c[:n] = problem.c
        self.basis = np.arange(n, n + m)  # all-slack start
        self.vstat = np.empty(self.nt, dtype=np.int8)
        self._reset_nonbasic_status(np.arange(self.nt))
        self.vstat[self.basis] = _BASIC
        self.B_inv = np.eye(m)
        self._inv_exact = True  # B_inv is inv(T[:, basis]) bit for bit
        self.x = np.zeros(self.nt)
        # set when a solve completes or a basis is restored, cleared by a
        # slack restart
        self._retry = False

    # -- setup helpers -------------------------------------------------

    def _reset_nonbasic_status(self, cols):
        self.vstat[cols] = np.where(self._fin_L[cols], _AT_LB,
                                    np.where(self._fin_U[cols], _AT_UB, _FREE))

    def _nonbasic_values(self):
        v = np.where(self.vstat == _AT_UB, self.U, np.where(self.vstat == _AT_LB, self.L, 0.0))
        v[self.vstat == _BASIC] = 0.0
        return v

    def _refactor(self):
        if self._inv_exact:
            return True
        key = self.basis.tobytes()
        kept = self._inverses.get(key)
        if kept is not None:
            # a copy: the rank-one update works on B_inv in place
            self._inverses.move_to_end(key)
            self.B_inv = kept.copy()
            self.n_inverses_reused += 1
        else:
            self.n_refactors += 1
            try:
                self.B_inv = np.linalg.inv(self.T[:, self.basis])
            except np.linalg.LinAlgError:
                return False
            # guard against a numerically singular basis that inv() let through
            if not np.all(np.isfinite(self.B_inv)):
                return False
            self._inverses[key] = self.B_inv.copy()
            if len(self._inverses) > _INVERSES_KEPT:
                self._inverses.popitem(last=False)
        self._inv_exact = True
        return True

    def _fall_back_to_slack_basis(self):
        self.n_slack_retries += 1
        self._retry = False
        self.basis = np.arange(self.n, self.nt)
        self.vstat[:] = _BASIC  # overwritten next line for nonbasis
        self._reset_nonbasic_status(np.arange(self.n))
        self.vstat[self.basis] = _BASIC
        self.B_inv = np.eye(self.m)
        self._inv_exact = True

    def _recompute_x(self):
        xn = self._nonbasic_values()
        self.x = xn
        rhs = self.b - self.T @ xn
        self.x[self.basis] = self.B_inv @ rhs

    # -- pivoting core -------------------------------------------------

    def _infeasibility(self):
        xb = self.x[self.basis]
        lo = self.L[self.basis] - xb
        hi = xb - self.U[self.basis]
        below = lo > TOL_FEAS
        above = hi > TOL_FEAS
        total = float(np.sum(lo[below]) + np.sum(hi[above]))
        return below, above, total

    def _price(self, ceff):
        y = ceff[self.basis] @ self.B_inv
        rc = ceff - y @ self.T
        return y, rc

    def _choose_entering(self, rc, bland):
        stat = self.vstat
        gain = rc * _GAIN_SIGN[stat]
        if len(self._free):
            gain[self._free] = np.abs(gain[self._free])
        if len(self._fixed):
            gain[self._fixed] = 0.0
        if bland:
            eligible = np.flatnonzero(gain > _RC_TOL)
            if not len(eligible):
                return -1, 0
            j = int(eligible[0])
        else:
            j = int(gain.argmax())  # first max: lowest index tie-break
            if not gain[j] > _RC_TOL:
                return -1, 0
        if stat[j] == _AT_UB or (stat[j] == _FREE and rc[j] < 0):
            return j, -1
        return j, +1

    def _ratio_test(self, j, sigma, phase1):
        """Blocking step length along entering column j with direction sigma.

        Returns (t, pos, kind, d, xb): pos is the blocking basic position
        (-1 for the entering variable's own bound), kind the bound hit
        (_AT_LB/_AT_UB), d = B^-1 T[:, j] and xb the basic values.  t may
        be inf.
        """
        d = self.B_inv @ self.T[:, j]
        rate = -d if sigma > 0 else d  # d(x_basic)/dt
        basis = self.basis
        xb = self.x[basis]
        lb = self.L[basis]
        ub = self.U[basis]
        up = rate > _PIVOT_TOL
        dn = rate < -_PIVOT_TOL
        if phase1:
            # feasible basics block at their bounds; infeasible basics block
            # when they first reach the violated bound, and never when they
            # move further away from it
            below = xb < lb - TOL_FEAS
            above = xb > ub + TOL_FEAS
            at_lb = np.where(up, below, ~above)
            moving = (up & ~above) | (dn & ~below)
        else:
            at_lb = dn
            moving = up | dn
        # an infinite bound gives an infinite ratio, the same as no bound
        num = np.where(at_lb, lb, ub) - xb
        num += np.where(up, _RATIO_TOL, -_RATIO_TOL)
        cand = self._cand
        cand.fill(np.inf)
        np.divide(num, rate, out=cand, where=moving)
        np.maximum(cand, 0.0, out=cand)
        p = int(cand.argmin())
        t_best = float(cand[p])
        pos_best = p
        kind_best = _AT_LB if at_lb[p] else _AT_UB
        # entering variable's own opposite bound (bound flip); an infinite
        # span never blocks
        span = self._span[j]
        if span < t_best:
            t_best = float(span)
            pos_best = -1
            kind_best = _AT_UB if sigma > 0 else _AT_LB
        return t_best, pos_best, kind_best, d, xb

    def _apply_step(self, j, sigma, t, pos, kind, d, xb):
        step = sigma * t
        self.x[self.basis] = xb - step * d
        self.x[j] += step
        if pos < 0:
            self.vstat[j] = kind  # bound flip, basis unchanged
            return
        self._inv_exact = False
        leave = self.basis[pos]
        self.vstat[leave] = kind
        self.x[leave] = self.L[leave] if kind == _AT_LB else self.U[leave]
        self.basis[pos] = j
        self.vstat[j] = _BASIC
        # product-form update of B_inv, in place
        piv = d[pos]
        if abs(piv) < _PIVOT_TOL:
            if not self._refactor():
                raise NumericalFailure("singular basis after pivot")
            return
        row = self.B_inv[pos] / piv
        np.multiply(d[:, None], row, out=self._outer)
        self.B_inv -= self._outer
        self.B_inv[pos] = row

    def _phase1_costs(self, below, above):
        ceff = np.zeros(self.nt)
        bi = self.basis[below]
        ai = self.basis[above]
        ceff[bi] = 1.0   # wants to increase toward lb
        ceff[ai] = -1.0  # wants to decrease toward ub
        return ceff

    def _iterate(self, phase1, iter_budget):
        pivots = 0
        stall = 0
        bland = False
        since_refactor = 0
        try:
            while True:
                if phase1:
                    below, above, total = self._infeasibility()
                    if total <= TOL_FEAS:
                        return "feasible", pivots
                    ceff = self._phase1_costs(below, above)
                else:
                    ceff = self.c
                _, rc = self._price(ceff)
                j, sigma = self._choose_entering(rc, bland)
                if j < 0:
                    return ("infeasible" if phase1 else "optimal"), pivots
                t, pos, kind, d, xb = self._ratio_test(j, sigma, phase1)
                if not math.isfinite(t):
                    if phase1:
                        raise NumericalFailure("unbounded phase-1 direction")
                    return "unbounded", pivots
                self._apply_step(j, sigma, t, pos, kind, d, xb)
                pivots += 1
                since_refactor += 1
                stall = stall + 1 if t <= 1e-12 else 0
                if stall > _STALL_LIMIT:
                    bland = True
                if since_refactor >= _REFACTOR_EVERY:
                    if not self._refactor():
                        raise NumericalFailure("singular basis on refactor")
                    self._recompute_x()
                    since_refactor = 0
                if pivots > iter_budget:
                    raise NumericalFailure(f"iteration limit {iter_budget} exceeded")
        finally:
            self.n_pivots += pivots
            self.n_bland += bland

    # -- public API ----------------------------------------------------

    def solve(self) -> LpSolution:
        """Solve from the current basis (the slack basis on the first call).

        Refactorizes the basis, recomputes the basic values from the present
        data, runs phase 1 only when a bound is broken, then phase 2 and a
        polish (a final refactorization and recompute).
        """
        if not self._refactor():
            self._fall_back_to_slack_basis()
        self._recompute_x()
        budget = 2000 + 200 * self.m
        pivots = 0
        try:
            _, _, total = self._infeasibility()
            if total > TOL_FEAS:
                outcome, pivots = self._iterate(phase1=True, iter_budget=budget)
                if outcome == "infeasible":
                    self._retry = True
                    return LpSolution(LpStatus.INFEASIBLE, iterations=pivots)
                if not self._refactor():
                    raise NumericalFailure("singular basis after phase 1")
                self._recompute_x()
            outcome, p2 = self._iterate(phase1=False, iter_budget=budget)
            pivots += p2
        except NumericalFailure:
            if not self._retry:
                raise
            # one deterministic retry from the slack basis before giving up
            self._fall_back_to_slack_basis()
            return self.solve()
        self._retry = True
        if outcome == "unbounded":
            return LpSolution(LpStatus.UNBOUNDED, iterations=pivots)
        # polish the arithmetic before reporting
        if not self._refactor():
            raise NumericalFailure("singular basis at optimum")
        self._recompute_x()
        y, rc = self._price(self.c)
        x = self.x[: self.n].copy()
        return LpSolution(
            LpStatus.OPTIMAL,
            x=x,
            objective=float(self.c[: self.n] @ x),
            duals=y.copy(),
            reduced_costs=rc[: self.n].copy(),
            iterations=pivots,
        )

    def resolve_objective(self, c_new) -> LpSolution:
        """Re-solve after replacing the structural objective vector."""
        return self.reload(c=c_new)

    def resolve_rhs(self, b_new) -> LpSolution:
        """Re-solve after replacing the right-hand side vector."""
        return self.reload(b=b_new)

    def reload(self, A=None, b=None, c=None) -> LpSolution:
        """Set any of the matrix, right-hand side and objective, then
        ``solve``; shapes are checked before anything changes (ValueError)."""
        A, b, c = (None if v is None else np.asarray(v, dtype=float)
                   for v in (A, b, c))
        for what, v, shape in (("matrix", A, (self.m, self.n)),
                               ("rhs", b, (self.m,)),
                               ("objective", c, (self.n,))):
            if v is not None and v.shape != shape:
                raise ValueError(f"{what} has shape {v.shape}, expected {shape}")
        if A is not None:
            self.T[:, : self.n] = A
            self._inv_exact = False
            self._inverses.clear()
        if b is not None:
            self.b = b.copy()
        if c is not None:
            self.c[: self.n] = c
        return self.solve()

    def counters(self):
        """The five lifetime counts, under the names the reports use."""
        return {
            "pivots": self.n_pivots,
            "refactorizations": self.n_refactors,
            "inverses_reused": self.n_inverses_reused,
            "slack_retries": self.n_slack_retries,
            "bland_switches": self.n_bland,
        }

    def snapshot(self) -> BasisSnapshot:
        """The current basis, to hand to ``restore`` later."""
        return BasisSnapshot(self.basis.copy(), self.vstat.copy())

    def restore(self, snap: BasisSnapshot):
        """Install a snapshot's basis and variable statuses; the next solve
        starts from them.

        The problem data stay as they are now, and the snapshot is copied,
        so it can be restored again.  The next solve refactorizes the basis
        under the present matrix, as it does every basis, and runs phase 1
        first when the basis is primal infeasible under the present data (a
        basis kept from another matrix).
        """
        if snap.basis.shape != (self.m,) or snap.vstat.shape != (self.nt,):
            raise ValueError("snapshot of an engine of another shape")
        self._inv_exact = (self._inv_exact
                           and np.array_equal(snap.basis, self.basis))
        self.basis = snap.basis.copy()
        self.vstat = snap.vstat.copy()
        self._retry = True


def _solve_highs(problem: LpProblem) -> LpSolution:
    from scipy.optimize import linprog

    ineq = ~np.asarray([r == "=" for r in problem.rel])
    eq = ~ineq
    bounds = list(zip(problem.lb, problem.ub))
    bounds = [(None if not np.isfinite(lo) else lo, None if not np.isfinite(hi) else hi)
              for lo, hi in bounds]
    res = linprog(
        -problem.c,
        A_ub=problem.A[ineq] if np.any(ineq) else None,
        b_ub=problem.b[ineq] if np.any(ineq) else None,
        A_eq=problem.A[eq] if np.any(eq) else None,
        b_eq=problem.b[eq] if np.any(eq) else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return LpSolution(LpStatus.INFEASIBLE)
    if res.status == 3:
        return LpSolution(LpStatus.UNBOUNDED)
    if res.status != 0:
        raise NumericalFailure(f"highs terminated with status {res.status}: {res.message}")
    duals = np.zeros(problem.n_rows)
    if np.any(ineq):
        duals[ineq] = -res.ineqlin.marginals
    if np.any(eq):
        duals[eq] = -res.eqlin.marginals
    # scipy reports marginals for the minimized problem; negate back to maximize
    reduced = None
    if res.lower is not None and res.upper is not None:
        rc = -(res.lower.marginals + res.upper.marginals)
        if rc.shape == (problem.n_vars,):
            reduced = rc
    return LpSolution(
        LpStatus.OPTIMAL,
        x=res.x.copy(),
        objective=float(problem.c @ res.x),
        duals=duals,
        reduced_costs=reduced,
        iterations=int(res.nit),
    )


def solve(problem: LpProblem, backend: str = "auto") -> LpSolution:
    """One-shot solve. backend: "simplex", "highs", or "auto" (HiGHS above
    600 rows)."""
    if backend == "auto":
        backend = "highs" if problem.n_rows > 600 else "simplex"
    if backend == "simplex":
        return SimplexEngine(problem).solve()
    if backend == "highs":
        return _solve_highs(problem)
    raise ValueError(f"unknown backend {backend!r}")
