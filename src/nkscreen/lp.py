"""Linear programming engine.

Every convex subproblem in this package reduces to an LP, so this module is
the single place where optimization happens.  Two backends sit behind one
problem/solution contract:

* ``SimplexEngine``: a dense bounded-variable revised simplex written here.
  It is deterministic (Dantzig entering rule with lowest-index tie-breaking,
  lowest-index leaving rule, Bland fallback on stalls), returns dual
  multipliers, and supports warm-started re-solves where only the objective
  or only the right-hand side changes.  Those re-solves are the hot path:
  sublevel-set sweeps re-solve the same polytope for thousands of objective
  rows, and dispatch sampling re-solves the same OPF for thousands of demand
  vectors.  With an unchanged basis a re-solve costs one pricing pass.
  The engine refactorizes (inverts the basis matrix) only when its inverse
  may differ from the exact one: ``B_inv`` counts as exact after a
  refactorization or the slack-basis start, and stops being exact when a
  pivot changes the basis or ``reload`` replaces the matrix (bound flips and
  new right-hand sides or objectives keep it).  Inverting the same basis
  columns again returns the same array, so skipping that inversion changes
  no output bit.  ``snapshot``/``restore`` save and reinstate a basis with
  its inverse, for callers that want every re-solve to start from one fixed
  basis.
* scipy's HiGHS (``backend="highs"``): used for large one-off instances
  (thousands of rows) where maintaining a dense basis inverse is wasteful.

Conventions: objective is MAXIMIZED; constraint relations are "<=" or "=";
duals of "<=" rows are nonnegative at optimality (up to ``TOL_FEAS``),
duals of "=" rows are free; complementary slackness holds up to ``TOL_COMP``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

TOL_FEAS = 1e-7   # primal feasibility and dual sign tolerance
TOL_COMP = 1e-6   # complementary slackness tolerance

_RC_TOL = 1e-9        # reduced-cost significance threshold
_PIVOT_TOL = 1e-10    # smallest acceptable pivot element
_RATIO_TOL = 1e-9     # slack allowed when computing blocking ratios
_REFACTOR_EVERY = 100
_STALL_LIMIT = 60     # degenerate pivots before switching to Bland's rule

# nonbasic/basic status codes
_BASIC, _AT_LB, _AT_UB, _FREE = 0, 1, 2, 3


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
    """A ``SimplexEngine`` basis, its inverse and its solve state."""

    basis: np.ndarray
    vstat: np.ndarray
    B_inv: np.ndarray
    inv_exact: bool
    solved_once: bool
    last_status: LpStatus | None


class SimplexEngine:
    """Bounded-variable two-phase revised simplex over a fixed row structure.

    The engine keeps its basis between calls, so ``resolve_objective`` /
    ``resolve_rhs`` / ``reload`` after small data changes typically finish in
    a handful of pivots (often zero).  All tie-breaking is by lowest index,
    so identical inputs produce identical outputs, iteration counts included.
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
        self.c = np.zeros(self.nt)
        self.c[:n] = problem.c
        self._c_struct = problem.c.copy()
        self.basis = np.arange(n, n + m)  # all-slack start
        self.vstat = np.empty(self.nt, dtype=np.int8)
        self._reset_nonbasic_status(np.arange(self.nt))
        self.vstat[self.basis] = _BASIC
        self.B_inv = np.eye(m)
        self._inv_exact = True  # B_inv is inv(T[:, basis]) bit for bit
        self.x = np.zeros(self.nt)
        self._solved_once = False
        self._last_status: LpStatus | None = None

    # -- setup helpers -------------------------------------------------

    def _reset_nonbasic_status(self, cols):
        for j in cols:
            if np.isfinite(self.L[j]):
                self.vstat[j] = _AT_LB
            elif np.isfinite(self.U[j]):
                self.vstat[j] = _AT_UB
            else:
                self.vstat[j] = _FREE

    def _nonbasic_values(self):
        v = np.where(self.vstat == _AT_UB, self.U, np.where(self.vstat == _AT_LB, self.L, 0.0))
        v[self.vstat == _BASIC] = 0.0
        return v

    def _refactor(self):
        if self._inv_exact:
            return True
        B = self.T[:, self.basis]
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        # guard against a numerically singular basis that inv() let through
        if not np.all(np.isfinite(self.B_inv)):
            return False
        self._inv_exact = True
        return True

    def _fall_back_to_slack_basis(self):
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
        gain = np.zeros(self.nt)
        lb_mask = stat == _AT_LB
        ub_mask = stat == _AT_UB
        fr_mask = stat == _FREE
        fixed = self.L == self.U
        gain[lb_mask] = rc[lb_mask]
        gain[ub_mask] = -rc[ub_mask]
        gain[fr_mask] = np.abs(rc[fr_mask])
        gain[fixed] = 0.0
        eligible = gain > _RC_TOL
        if not np.any(eligible):
            return -1, 0
        idx = np.nonzero(eligible)[0]
        if bland:
            j = int(idx[0])
        else:
            g = gain[idx]
            j = int(idx[np.argmax(g)])  # argmax returns first max: lowest index tie-break
        if stat[j] == _AT_UB or (stat[j] == _FREE and rc[j] < 0):
            return j, -1
        return j, +1

    def _ratio_test(self, j, sigma, phase1):
        """Blocking step length along entering column j with direction sigma.

        Returns (t, pos, kind) where pos is the blocking basic position
        (-1 for the entering variable's own bound), kind is the bound hit
        (_AT_LB/_AT_UB).  t may be inf.
        """
        d = self.B_inv @ self.T[:, j]
        rate = -sigma * d  # d(x_basic)/dt
        xb = self.x[self.basis]
        lb = self.L[self.basis]
        ub = self.U[self.basis]
        up = rate > _PIVOT_TOL
        dn = rate < -_PIVOT_TOL
        # which bound blocks a rising / falling basic variable
        kind_up = np.full(self.m, _AT_UB, dtype=np.int8)
        kind_dn = np.full(self.m, _AT_LB, dtype=np.int8)
        with np.errstate(invalid="ignore", divide="ignore"):
            if phase1:
                below = xb < lb - TOL_FEAS
                above = xb > ub + TOL_FEAS
                feas = ~(below | above)
                # feasible basics block at their bounds; infeasible basics
                # block when they first reach the violated bound
                cand_up = np.where(up & feas & np.isfinite(ub), (ub - xb + _RATIO_TOL) / rate, np.inf)
                cand_up = np.where(up & below, (lb - xb + _RATIO_TOL) / rate, cand_up)
                kind_up[below] = _AT_LB
                cand_dn = np.where(dn & feas & np.isfinite(lb), (lb - xb - _RATIO_TOL) / rate, np.inf)
                cand_dn = np.where(dn & above, (ub - xb - _RATIO_TOL) / rate, cand_dn)
                kind_dn[above] = _AT_UB
            else:
                cand_up = np.where(up & np.isfinite(ub), (ub - xb + _RATIO_TOL) / rate, np.inf)
                cand_dn = np.where(dn & np.isfinite(lb), (lb - xb - _RATIO_TOL) / rate, np.inf)
        cand = np.maximum(np.minimum(cand_up, cand_dn), 0.0)
        p = int(np.argmin(cand))
        t_best = float(cand[p])
        pos_best = p
        kind_best = int(kind_up[p]) if cand_up[p] <= cand_dn[p] else int(kind_dn[p])
        # entering variable's own opposite bound (bound flip)
        span = self.U[j] - self.L[j]
        if np.isfinite(span) and span < t_best:
            t_best = float(span)
            pos_best = -1
            kind_best = _AT_UB if sigma > 0 else _AT_LB
        return t_best, pos_best, kind_best, d

    def _apply_step(self, j, sigma, t, pos, kind, d):
        self.x[self.basis] -= sigma * t * d
        self.x[j] += sigma * t
        if pos < 0:
            self.vstat[j] = kind  # bound flip, basis unchanged
            return
        self._inv_exact = False
        leave = self.basis[pos]
        self.vstat[leave] = kind
        self.x[leave] = self.L[leave] if kind == _AT_LB else self.U[leave]
        self.basis[pos] = j
        self.vstat[j] = _BASIC
        # product-form update of B_inv
        piv = d[pos]
        if abs(piv) < _PIVOT_TOL:
            if not self._refactor():
                raise NumericalFailure("singular basis after pivot")
            return
        row = self.B_inv[pos, :] / piv
        self.B_inv -= np.outer(d, row)
        self.B_inv[pos, :] = row

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
            t, pos, kind, d = self._ratio_test(j, sigma, phase1)
            if not np.isfinite(t):
                if phase1:
                    raise NumericalFailure("unbounded phase-1 direction")
                return "unbounded", pivots
            self._apply_step(j, sigma, t, pos, kind, d)
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

    # -- public API ----------------------------------------------------

    def solve(self) -> LpSolution:
        """Solve from the current basis (cold start on first call)."""
        if not self._refactor():
            self._fall_back_to_slack_basis()
        self._recompute_x()
        return self._finish(restore_feasibility=True)

    def resolve_objective(self, c_new) -> LpSolution:
        """Re-solve after replacing the structural objective vector."""
        c_new = np.asarray(c_new, dtype=float)
        if c_new.shape != (self.n,):
            raise ValueError("objective size mismatch")
        self.c[: self.n] = c_new
        self._c_struct = c_new.copy()
        if not self._solved_once or self._last_status is LpStatus.INFEASIBLE:
            return self.solve()
        return self._finish(restore_feasibility=False)

    def resolve_rhs(self, b_new) -> LpSolution:
        """Re-solve after replacing the right-hand side vector."""
        b_new = np.asarray(b_new, dtype=float)
        if b_new.shape != (self.m,):
            raise ValueError("rhs size mismatch")
        self.b = b_new.copy()
        if not self._solved_once:
            return self.solve()
        self._recompute_x()
        return self._finish(restore_feasibility=True)

    def reload(self, A=None, b=None, c=None) -> LpSolution:
        """Re-solve after in-place data changes, keeping the basis as a warm start."""
        if A is not None:
            A = np.asarray(A, dtype=float)
            if A.shape != (self.m, self.n):
                raise ValueError("matrix shape mismatch")
            self.T[:, : self.n] = A
            self._inv_exact = False
        if b is not None:
            self.b = np.asarray(b, dtype=float).copy()
        if c is not None:
            c = np.asarray(c, dtype=float)
            self.c[: self.n] = c
            self._c_struct = c.copy()
        if not self._refactor():
            self._fall_back_to_slack_basis()
        self._recompute_x()
        return self._finish(restore_feasibility=True)

    def snapshot(self) -> BasisSnapshot:
        """The current basis and its inverse, to hand to ``restore`` later."""
        return BasisSnapshot(self.basis.copy(), self.vstat.copy(),
                             self.B_inv.copy(), self._inv_exact,
                             self._solved_once, self._last_status)

    def restore(self, snap: BasisSnapshot):
        """Reinstate a snapshot's basis; the next solve starts from it.

        The problem data (matrix, right-hand side, objective) stay as they
        are now.  The snapshot is copied, so it can be restored again.
        """
        if snap.basis.shape != (self.m,) or snap.vstat.shape != (self.nt,):
            raise ValueError("snapshot of an engine of another shape")
        self.basis = snap.basis.copy()
        self.vstat = snap.vstat.copy()
        self.B_inv = snap.B_inv.copy()
        self._inv_exact = snap.inv_exact
        self._solved_once = snap.solved_once
        self._last_status = snap.last_status
        self._recompute_x()

    def _finish(self, restore_feasibility) -> LpSolution:
        budget = 2000 + 200 * self.m
        pivots = 0
        try:
            if restore_feasibility:
                _, _, total = self._infeasibility()
                if total > TOL_FEAS:
                    outcome, p1 = self._iterate(phase1=True, iter_budget=budget)
                    pivots += p1
                    if outcome == "infeasible":
                        self._solved_once = True
                        self._last_status = LpStatus.INFEASIBLE
                        return LpSolution(LpStatus.INFEASIBLE, iterations=pivots)
                    if not self._refactor():
                        raise NumericalFailure("singular basis after phase 1")
                    self._recompute_x()
            outcome, p2 = self._iterate(phase1=False, iter_budget=budget)
            pivots += p2
        except NumericalFailure:
            if self._solved_once:
                # deterministic retry from scratch before giving up
                self._solved_once = False
                self._fall_back_to_slack_basis()
                self._recompute_x()
                return self._finish(restore_feasibility=True)
            raise
        self._solved_once = True
        if outcome == "unbounded":
            self._last_status = LpStatus.UNBOUNDED
            return LpSolution(LpStatus.UNBOUNDED, iterations=pivots)
        # polish the arithmetic before reporting
        if not self._refactor():
            raise NumericalFailure("singular basis at optimum")
        self._recompute_x()
        y, rc = self._price(self.c)
        x = self.x[: self.n].copy()
        self._last_status = LpStatus.OPTIMAL
        return LpSolution(
            LpStatus.OPTIMAL,
            x=x,
            objective=float(self._c_struct @ x),
            duals=y.copy(),
            reduced_costs=rc[: self.n].copy(),
            iterations=pivots,
        )


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


def pick_backend(backend: str, n_rows: int) -> str:
    """The backend "auto" stands for at this many rows; others unchanged."""
    if backend == "auto":
        return "highs" if n_rows > 600 else "simplex"
    return backend


def solve(problem: LpProblem, backend: str = "auto") -> LpSolution:
    """One-shot solve. backend: "simplex", "highs", or "auto" (size-based)."""
    backend = pick_backend(backend, problem.n_rows)
    if backend == "simplex":
        return SimplexEngine(problem).solve()
    if backend == "highs":
        return _solve_highs(problem)
    raise ValueError(f"unknown backend {backend!r}")
