"""Linear programming engine.

Every convex subproblem in this package reduces to an LP, so this module is
the single place where optimization happens.  Two backends sit behind one
problem/solution contract:

* ``SimplexEngine``: a dense bounded-variable revised simplex written here.
  It is deterministic (Dantzig entering rule with lowest-index tie-breaking,
  lowest-index leaving rule, Bland fallback on stalls), returns dual
  multipliers and keeps its basis between calls.  ``reload`` sets any of
  the matrix, right-hand side and objective (``resolve_objective`` and
  ``resolve_rhs`` set one), and ``solve`` refactorizes the current basis,
  recomputes the basic values and prices it; the loop is chosen by that
  start basis alone, not by which data changed.  A dual feasible start,
  such as a basis optimal before a right-hand-side change, runs the bounded
  dual simplex (Koberstein, "The dual simplex method, techniques for a fast
  and stable implementation", PhD thesis, Paderborn 2005): the most
  infeasible basic variable leaves, the entering column has the smallest
  |rc| / |alpha| among the columns that can repair it, reduced costs are
  updated by the pivot row, and no such column means infeasible, with the
  variable that could not be repaired in ``LpSolution.blocking``.  Any
  other start runs phase 1 only when a bound is broken, then phase 2.
  Warm re-solves are the hot path: sublevel-set sweeps re-solve the same
  polytope for thousands of objective rows, and dispatch sampling the same
  OPF for thousands of demand vectors.
  A refactorization inverts only the k x k block of the structural basic
  columns on the rows whose slack is nonbasic and fills in the rest of B^-1
  exactly (k = 4-22, median 11-13, against 122 rows at the optimal bases
  of the ``case39`` classifier SC-OPF).  The block takes the structural columns in ascending
  order, so each basic column's row of B^-1, and so x, depends on the set
  of basic columns, not on the order in which the simplex reached them.
  A basis whose ``B_inv`` is exact (refactorized, the slack-basis start, or
  restored with its inverse) is not inverted again; a pivot, ``restore`` of
  another basis or ``reload`` of the matrix makes it inexact.
  ``snapshot``/``restore`` save and reinstate a basis and its variables'
  statuses, for callers that want a re-solve to start from a basis of
  their choosing.
  ``solve_each`` solves many objectives, each from its own snapshot, as
  that many ``restore`` and ``resolve_objective`` calls would, byte for
  byte, but in batches of up to 88 over a leading member axis: since no
  member starts from the basis another left, their refactorizations,
  pricing and pivots can run stacked, and members that share one snapshot
  share its refactorization.  numpy's stacked ``@`` and
  ``linalg.inv`` give each member the bytes of the 2-D calls (``einsum``
  and one GEMM over the stacked rows do not).  A chain of re-solves, each
  from the basis the one before left, stays on ``solve``.
* ``OptimalBases``: the optimal bases of one engine whose right-hand side
  alone changes, as a tree rooted at the basis optimal for the engine's
  data at construction (the nominal one), each node with its
  refactorization and its children the bases one dual simplex pivot away,
  derived once and kept.  ``lookup`` walks from the root by the dual
  simplex's leaving rule until a basis keeps the right-hand side primal
  feasible, and answers by one product and a bound check per basis, with
  the bytes a zero-pivot ``resolve_rhs`` from that basis returns; a miss
  re-solves from the root (``resolve``).  So an answer depends on its
  right-hand side alone.  It answers every DC-OPF demand
  (``grid.DcopfSolver``: dataset sampling and the classifier SC-OPF's
  DC-OPF step), whose draws end at a handful of bases a few pivots from
  the nominal one, and starts the classifier LP's re-solves (``scopf``).

  The pivot loop is the hot path of training, so it is written for few
  numpy calls per pivot while keeping every floating-point operation of the
  textbook form, in the same order: pricing is ``c_B B^-1`` then
  ``c - y T``; the entering gain is ``rc`` times a sign looked up from the
  variable's status (0 for fixed ones) and the entering column is its
  first maximum; the ratio test divides ``(bound - x_B) +- tol`` by the
  rate only where a basic variable moves toward a bound it can hit, all
  into one array whose first minimum blocks; the inverse takes its
  rank-one update in place.  The fixed columns are found once.  The
  entering gain, the dual simplex's entering rule, the nonbasic values and
  the primal violation each have one definition, shared by the engine's
  loops, ``solve_each``'s batches and ``OptimalBases``.  Counters of
  pivots, refactorizations, slack-basis retries and switches to Bland's
  rule are updated outside the per-pivot work.
* scipy's HiGHS: ``solve`` picks it by row count alone, for one-off
  instances of more than 600 rows, where maintaining a dense basis inverse
  is wasteful; there is no switch.  ``solve_highs`` calls it directly, for
  cross-checks against the engine.

Conventions: objective is MAXIMIZED; constraint relations are "<=" or "=";
duals of "<=" rows are nonnegative at optimality (up to ``TOL_FEAS``),
duals of "=" rows are free; complementary slackness holds up to ``TOL_COMP``.
Every variable has a finite lower or upper bound (``LpProblem`` rejects a
free one), so a nonbasic variable always sits at a bound.
A basis is primal feasible when no basic variable breaks a bound by more
than ``TOL_FEAS``; the engine's loops, ``solve_each``'s batches and
``OptimalBases`` all test that one rule.
A "<=" row may be ranged: with width w it states b - w <= a x <= b as one
row, whose slack b - a x has the upper bound w.  Its dual is nonnegative
when the upper side binds and nonpositive when the lower side binds.
"""

from __future__ import annotations

import math
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
_TREE_HOPS = 8        # pivots an OptimalBases walk takes at most
_TREE_NODES = 16      # bases an OptimalBases tree holds, its root included

# members of one stacked batch: (88, m, m) inverses are 1.8 MB at m = 51,
# no larger than a training rescale's stacks (88 rows); freeing a larger
# mmapped stack raises glibc's mmap threshold and with it the peak RSS of
# whatever runs after
_BATCH_MAX = 88


def _pivot_budget(m):
    """Pivots a solve of m rows may take before NumericalFailure."""
    return 2000 + 200 * m


# nonbasic/basic status codes
_BASIC, _AT_LB, _AT_UB = 0, 1, 2
# entering gain = rc * sign of the variable's status
_GAIN_SIGN = np.array([0.0, 1.0, -1.0])


def _violation(x, lo, hi):
    """How far each x lies outside [lo, hi]: a basis is primal feasible when
    no entry exceeds ``TOL_FEAS``."""
    return np.maximum(lo - x, x - hi)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class NumericalFailure(RuntimeError):
    """The solver could not certify a status within its tolerances."""


@dataclass
class LpProblem:
    """max c @ x  s.t.  A x (<=|=) b,  lb <= x <= ub.

    ``rel`` holds one relation string per row ("<=" or "=").  ``lb``
    defaults to 0 and ``ub`` to +inf; either may be infinite, but not both
    (ValueError), so every variable has a finite bound for the simplex to
    hold it at.  ``ranges`` holds one width per row, +inf by default: a
    "<=" row of finite width w is ranged, b - w <= A x <= b, and its dual is
    >= 0 when the upper side binds and <= 0 when the lower side binds.
    Widths must be >= 0, and +inf on "=" rows.  Rows of all zeros are
    rejected: they are either vacuous or infeasible and always indicate a
    modelling bug upstream.
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    rel: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    ranges: np.ndarray | None = None

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
        self.lb = np.zeros(n) if self.lb is None else np.asarray(self.lb, dtype=float)
        self.ub = np.full(n, np.inf) if self.ub is None else np.asarray(self.ub, dtype=float)
        if self.lb.shape != (n,) or self.ub.shape != (n,):
            raise ValueError("bounds must have one entry per variable")
        if np.any(~np.isfinite(self.lb) & ~np.isfinite(self.ub)):
            raise ValueError("every variable needs a finite lower or upper bound")
        self.ranges = (np.full(m, np.inf) if self.ranges is None
                       else np.asarray(self.ranges, dtype=float))
        if self.ranges.shape != (m,):
            raise ValueError("ranges must have one entry per row")
        if not np.all(self.ranges >= 0.0):  # NaN fails too
            raise ValueError("range widths must be nonnegative")
        if np.any(np.isfinite(self.ranges[self.rel == "="])):
            raise ValueError("'=' rows cannot be ranged")
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
    # infeasible by the dual simplex: the variable it could not bring within
    # its bounds, structural j < n or n + i for row i's slack
    blocking: int | None = None

    def __bool__(self):
        return self.status is LpStatus.OPTIMAL


@dataclass(frozen=True)
class BasisSnapshot:
    """A ``SimplexEngine`` basis and the status of every variable."""

    basis: np.ndarray
    vstat: np.ndarray


class SimplexEngine:
    """Bounded-variable revised simplex over a fixed row structure: the dual
    simplex from a dual feasible basis, the two primal phases otherwise.

    The engine keeps its basis between calls, so ``resolve_objective`` /
    ``resolve_rhs`` / ``reload`` after small data changes typically finish in
    a handful of pivots (often zero); each sets its data and solves.  All
    tie-breaking is by lowest index, so identical inputs produce identical
    outputs, iteration counts included.

    A ranged row's width is the upper bound of its slack, fixed at
    construction, so ``resolve_rhs`` moves both sides of the row together.
    ``data_version`` counts the ``reload`` calls that replaced the matrix
    or the objective: a basis optimal before such a call may not be after.

    The dual simplex shares the primal loop's safeguards: the iteration
    budget, the retry from the slack basis, and Bland's rule (here: the
    lowest-index infeasible basic variable leaves) after a run of stalls.
    A primal pivot stalls when no variable moves beyond the ratio tolerance
    (t * max(1, max|d|) <= 1e-9), a dual one when its entering column has
    |rc| <= 1e-9.

    ``counters()`` returns four counts over the engine's lifetime: pivots,
    refactorizations (basis inversions), slack retries (restarts from the
    slack basis) and Bland switches (pivot loops that switched to Bland's
    rule after a stall).  A singular basis makes a solve restart from the slack
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
        # a row's slack b - a x lies in [0, width]: +inf for a one-sided
        # row, finite for a ranged one, 0 for an equality
        self.U = np.concatenate([problem.ub,
                                 np.where(self.rel_eq, 0.0, problem.ranges)])
        # the bounds never change after construction
        self._fixed = np.flatnonzero(self.L == self.U)
        self._span = self.U - self.L
        self._outer = np.empty((m, m))  # rank-one update buffer
        self._cand = np.empty(m)         # ratio-test buffer
        self._ratio = np.empty(self.nt)  # dual ratio-test buffer
        self.n_pivots = self.n_refactors = self.n_slack_retries = 0
        self.n_bland = self.data_version = 0
        # solves answered by solve_each's batches, and their pivot rounds
        self.n_batched = self.n_rounds = 0
        self.c = np.zeros(self.nt)
        self.c[:n] = problem.c
        self.basis = np.arange(n, n + m)  # all-slack start
        self.vstat = np.empty(self.nt, dtype=np.int8)
        self._reset_nonbasic_status(np.arange(self.nt))
        self.vstat[self.basis] = _BASIC
        self.B_inv = np.eye(m)
        self._inv_exact = True  # B_inv is the basis' refactorization, bitwise
        self.x = np.zeros(self.nt)
        # set when a solve completes or a basis is restored, cleared by a
        # slack restart
        self._retry = False

    # -- setup helpers -------------------------------------------------

    def _reset_nonbasic_status(self, cols):
        self.vstat[cols] = np.where(np.isfinite(self.L[cols]), _AT_LB, _AT_UB)

    def _nonbasic_values(self, vstat):
        """Each variable's value for the statuses ``vstat`` (over leading
        axes): its bound when nonbasic, 0 when basic."""
        return np.where(vstat == _AT_UB, self.U,
                        np.where(vstat == _AT_LB, self.L, 0.0))

    def _gain(self, rc, vstat):
        """The entering gain of each column for reduced costs ``rc`` and
        statuses ``vstat`` (over leading axes): how fast moving the column
        off its bound raises the objective; 0 for fixed and basic ones."""
        gain = rc * _GAIN_SIGN[vstat]
        if len(self._fixed):
            gain[..., self._fixed] = 0.0
        return gain

    def _refactor(self):
        if self._inv_exact:
            return True
        self.n_refactors += 1
        try:
            self.B_inv = self._block_inverse(self.basis)
        except np.linalg.LinAlgError:
            return False
        # guard against a numerically singular basis that inv() let through
        self._inv_exact = bool(np.all(np.isfinite(self.B_inv)))
        return self._inv_exact

    def _block_inverse(self, basis):
        """B^-1 from the k x k block A_RK of the k structural basic columns K
        on the rows R whose slack is nonbasic.  A basic slack's row of B^-1
        is its unit row, less A_SK A_RK^-1 on the columns R; a structural
        column's row is its row of A_RK^-1, zero elsewhere.  K is taken in
        ascending column order, so each column's row of B^-1 depends on the
        set of basic columns, not on their positions in the basis."""
        m, n = self.m, self.n
        struct = basis < n
        pos_k, pos_s = np.flatnonzero(struct), np.flatnonzero(~struct)
        pos_k = pos_k[np.argsort(basis[pos_k], kind="stable")]
        K, S = basis[pos_k], basis[pos_s] - n
        slack_nonbasic = np.ones(m, dtype=bool)
        slack_nonbasic[S] = False
        R = np.flatnonzero(slack_nonbasic)
        if len(R) != len(K):  # a slack column taken twice
            raise np.linalg.LinAlgError("singular basis")
        inv_RK = np.linalg.inv(self.T[R[:, None], K])
        B_inv = np.zeros((m, m))
        B_inv[pos_k[:, None], R] = inv_RK
        B_inv[pos_s, S] = 1.0
        B_inv[pos_s[:, None], R] = -(self.T[S[:, None], K] @ inv_RK)
        return B_inv

    def _block_inverses(self, basis):
        """``_block_inverse`` of each row of ``basis`` (q, m), stacked, and
        a mask of the rows it inverted to finite values.  The bases with k
        structural columns are inverted as one (g, k, k) stack, whose
        stacked products give the bytes of the 2-D ones; a stack with a
        singular block leaves all its rows unmasked, and so does a basis
        that holds a column twice."""
        q, m, n, nt = len(basis), self.m, self.n, self.nt
        rows = np.arange(q)[:, None]
        basic = np.zeros((q, nt), dtype=bool)
        basic[rows, basis] = True
        ks = np.count_nonzero(basic[:, :n], axis=1)
        valid = np.count_nonzero(basic, axis=1) == m
        # members by k; per member, K and R ascending and the basic slacks'
        # S, as flat runs
        perm = np.argsort(np.where(valid, ks, m + 1), kind="stable")
        perm = perm[valid[perm]]
        ks = ks[perm]
        position = np.empty((q, nt), dtype=np.intp)  # column -> basis slot
        position[rows, basis] = np.arange(m)
        mem_k, K = np.nonzero(basic[perm, :n])
        R = np.nonzero(~basic[perm, n:])[1]
        # the basic slacks in basis order, as A_SK's rows are: a product's
        # row may round differently in another place of the matrix
        mem_s, pos_s = np.nonzero(basis[perm] >= n)
        S = basis[perm[mem_s], pos_s] - n
        # flat offsets of the B^-1 rows of the structural and slack columns
        row_k = perm[mem_k] * (m * m) + position[perm[mem_k], K] * m
        row_s = perm[mem_s] * (m * m) + pos_s * m
        B_inv = np.zeros((q, m, m))
        flat = B_inv.reshape(-1)
        flat[row_s + S] = 1.0
        ok = np.zeros(q, dtype=bool)
        cut = np.flatnonzero(np.diff(ks)) + 1
        end_k = np.concatenate([[0], np.cumsum(ks)])
        end_s = np.concatenate([[0], np.cumsum(m - ks)])
        T, R_off, S_off = self.T, R * nt, S * nt
        for a, b in zip(np.concatenate([[0], cut]),
                        np.concatenate([cut, [len(perm)]])):
            g, k = b - a, int(ks[a])
            k0, k1, s0, s1 = end_k[a], end_k[b], end_s[a], end_s[b]
            K_g = K[k0:k1].reshape(g, 1, k)
            R_g = R[k0:k1].reshape(g, 1, k)
            try:
                inv_RK = np.linalg.inv(
                    T.take(R_off[k0:k1].reshape(g, k, 1) + K_g))
            except np.linalg.LinAlgError:
                continue
            A_SK_inv = T.take(S_off[s0:s1].reshape(g, m - k, 1) + K_g) @ inv_RK
            flat[row_k[k0:k1].reshape(g, k, 1) + R_g] = inv_RK
            flat[row_s[s0:s1].reshape(g, m - k, 1) + R_g] = -A_SK_inv
            ok[perm[a:b]] = True
        ok &= np.isfinite(B_inv).all(axis=(1, 2))
        B_inv[~ok] = 0.0
        return B_inv, ok

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
        xn = self._nonbasic_values(self.vstat)
        self.x = xn
        rhs = self.b - self.T @ xn
        self.x[self.basis] = self.B_inv @ rhs

    # -- pivoting core -------------------------------------------------

    def _infeasibility(self):
        """Masks of the basic variables below their lower and above their
        upper bound by more than TOL_FEAS, and whether any is."""
        xb = self.x[self.basis]
        below = self.L[self.basis] - xb > TOL_FEAS
        above = xb - self.U[self.basis] > TOL_FEAS
        return below, above, bool(below.any() or above.any())

    def _price(self, ceff):
        y = ceff[self.basis] @ self.B_inv
        rc = ceff - y @ self.T
        return y, rc

    def _choose_entering(self, rc, bland):
        gain = self._gain(rc, self.vstat)
        if bland:
            eligible = np.flatnonzero(gain > _RC_TOL)
            if not len(eligible):
                return -1, 0
            j = int(eligible[0])
        else:
            j = int(gain.argmax())  # first max: lowest index tie-break
            if not gain[j] > _RC_TOL:
                return -1, 0
        return j, (-1 if self.vstat[j] == _AT_UB else +1)

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

    def _dual_entering(self, rc, push, vstat, ratio):
        """The dual simplex's entering column, and whether any can enter
        (over leading axes): among the columns that move the leaving
        variable toward its broken bound, push = -alpha below its lower
        bound and alpha above its upper one, the first minimum of
        |rc| / |alpha|.  ``ratio``, shaped like rc, is overwritten."""
        move = self._gain(push, vstat)
        eligible = move > _PIVOT_TOL
        ratio.fill(np.inf)
        np.divide(np.abs(rc), move, out=ratio, where=eligible)
        return ratio.argmin(axis=-1), eligible.any(axis=-1)

    def _dual_iterate(self, rc, iter_budget):
        """Bounded dual simplex from a dual feasible basis with reduced
        costs rc; returns (outcome, pivots, blocking variable or None)."""
        pivots = 0
        stall = 0
        bland = False
        since_refactor = 0
        L, U = self.L, self.U
        try:
            while True:
                basis = self.basis
                xb = self.x[basis]
                viol = _violation(xb, L[basis], U[basis])
                if bland:
                    bad = np.flatnonzero(viol > TOL_FEAS)
                    if not len(bad):
                        return "optimal", pivots, None
                    r = int(bad[basis[bad].argmin()])
                else:
                    r = int(viol.argmax())  # first max: lowest index
                    if not viol[r] > TOL_FEAS:
                        return "optimal", pivots, None
                leave = int(basis[r])
                below = xb[r] < L[leave]
                alpha = self.B_inv[r] @ self.T  # the pivot row
                j, can = self._dual_entering(rc, -alpha if below else alpha,
                                             self.vstat, self._ratio)
                if not can:
                    return "infeasible", pivots, leave
                j = int(j)
                d = self.B_inv @ self.T[:, j]
                step = (xb[r] - (L[leave] if below else U[leave])) / d[r]
                self._apply_step(j, 1.0, step, r, _AT_LB if below else _AT_UB,
                                 d, xb)
                # reduced costs by the pivot row, not re-priced
                rc_j = rc[j]
                theta = rc_j / alpha[j]
                rc -= theta * alpha
                rc[j] = 0.0
                rc[leave] = -theta
                pivots += 1
                since_refactor += 1
                # a dual-degenerate pivot leaves the objective where it was
                stall = stall + 1 if abs(rc_j) <= _RC_TOL else 0
                if stall > _STALL_LIMIT:
                    bland = True
                if since_refactor >= _REFACTOR_EVERY:
                    if not self._refactor():
                        raise NumericalFailure("singular basis on refactor")
                    self._recompute_x()
                    rc = self._price(self.c)[1]
                    since_refactor = 0
                if pivots > iter_budget:
                    raise NumericalFailure(f"iteration limit {iter_budget} exceeded")
        finally:
            self.n_pivots += pivots
            self.n_bland += bland

    def _phase1_costs(self, below, above):
        ceff = np.zeros(self.nt)
        bi = self.basis[below]
        ai = self.basis[above]
        ceff[bi] = 1.0   # wants to increase toward lb
        ceff[ai] = -1.0  # wants to decrease toward ub
        return ceff

    def _iterate(self, phase1, iter_budget, rc=None):
        """Primal simplex, phase 1 or 2; returns (outcome, pivots).  ``rc``
        holds the reduced costs of the start basis under c when the caller
        priced it already (phase 2 only), so it is not priced twice."""
        pivots = 0
        stall = 0
        bland = False
        since_refactor = 0
        try:
            while True:
                if phase1:
                    below, above, broken = self._infeasibility()
                    if not broken:
                        return "feasible", pivots
                    ceff = self._phase1_costs(below, above)
                    _, rc = self._price(ceff)
                elif rc is None:
                    _, rc = self._price(self.c)
                j, sigma = self._choose_entering(rc, bland)
                if j < 0:
                    return ("infeasible" if phase1 else "optimal"), pivots
                t, pos, kind, d, xb = self._ratio_test(j, sigma, phase1)
                if not math.isfinite(t):
                    if phase1:
                        raise NumericalFailure("unbounded phase-1 direction")
                    return "unbounded", pivots
                self._apply_step(j, sigma, t, pos, kind, d, xb)
                rc = None
                pivots += 1
                since_refactor += 1
                # a stall: no variable moved beyond the ratio tolerance
                stuck = t <= _RATIO_TOL and t * np.abs(d).max() <= _RATIO_TOL
                stall = stall + 1 if stuck else 0
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
        data and prices it.  A dual feasible start runs the dual simplex;
        any other runs phase 1 only when a bound is broken, then phase 2,
        which starts from that pricing when phase 1 did not run.
        Both end in a polish (a final refactorization and recompute) when
        they pivoted; a solve that took no pivot reports the start's x,
        duals and reduced costs, which a polish would compute again.
        """
        if not self._refactor():
            self._fall_back_to_slack_basis()
        self._recompute_x()
        budget = _pivot_budget(self.m)
        pivots = 0
        try:
            y, rc = self._price(self.c)
            if self._choose_entering(rc, False)[0] < 0:
                outcome, pivots, blocking = self._dual_iterate(rc, budget)
                if outcome == "infeasible":
                    self._retry = True
                    return LpSolution(LpStatus.INFEASIBLE, iterations=pivots,
                                      blocking=blocking)
            else:
                if self._infeasibility()[2]:
                    rc = None  # phase 1 moves the basis
                    outcome, pivots = self._iterate(phase1=True,
                                                    iter_budget=budget)
                    if outcome == "infeasible":
                        self._retry = True
                        return LpSolution(LpStatus.INFEASIBLE,
                                          iterations=pivots)
                    if not self._refactor():
                        raise NumericalFailure("singular basis after phase 1")
                    self._recompute_x()
                outcome, p2 = self._iterate(phase1=False, iter_budget=budget,
                                            rc=rc)
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
        if pivots:
            # polish the arithmetic before reporting; with no pivot the
            # start's exact inverse, x and pricing are what it would give
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
        ``solve``; shapes and finiteness are checked before anything changes
        (ValueError)."""
        A, b, c = (None if v is None else np.asarray(v, dtype=float)
                   for v in (A, b, c))
        for what, v, shape in (("matrix", A, (self.m, self.n)),
                               ("rhs", b, (self.m,)),
                               ("objective", c, (self.n,))):
            if v is not None and v.shape != shape:
                raise ValueError(f"{what} has shape {v.shape}, expected {shape}")
            if v is not None and not np.isfinite(v).all():
                raise ValueError(f"{what} must be finite")
        if A is not None:
            self.T[:, : self.n] = A
            self._inv_exact = False
        if b is not None:
            self.b = b.copy()
        if c is not None:
            self.c[: self.n] = c
        self.data_version += A is not None or c is not None
        return self.solve()

    def solve_each(self, C, snaps):
        """``restore(snap)`` then ``resolve_objective(c)`` for each row c of
        C with its snapshot, in turn, byte for byte: the same solutions, and
        the engine left as the last of them leaves it.  C must be finite
        (ValueError).

        The members are independent, each starting from its own basis, so
        they are solved in batches of up to 88 over a leading member axis.
        A batch refactorizes every basis with the ``_block_inverse``
        arithmetic and computes x_B, once for the members that share one
        snapshot object, then the duals and the reduced costs, answers
        the members that are optimal there at zero pivots, and pivots the
        others in lockstep under the dual simplex or primal phase 2 rules.
        Stacked ``@`` over the member axis gives the bytes of the 2-D
        products, and the rest is elementwise.  A member that needs phase 1,
        Bland's rule, the refactorization every 100 pivots, a slack retry or
        more pivots than the budget, that is unbounded or infeasible, or
        whose pivot element is too small, is solved again here from its
        kept basis and the batch's inverse of it.

        Returns one (solution or NumericalFailure, snapshot of the optimal
        basis or None) per member, up to the first that is not optimal.
        Counters are those of the solves one by one, except
        ``n_refactors``, which counts the inversions performed: a start
        that several members share counts once, the engine's last basis
        spares none, and a member whose pivots were all bound flips counts
        its polish, which the engine's solve skips; ``n_batched`` counts the
        members a batch answered, ``n_rounds`` its lockstep pivot rounds.
        """
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] != self.n or len(C) != len(snaps):
            raise ValueError("need one objective of the engine's width "
                             "per snapshot")
        if not np.isfinite(C).all():
            raise ValueError("objective must be finite")
        for s in snaps:
            if s.basis.shape != (self.m,) or s.vstat.shape != (self.nt,):
                raise ValueError("snapshot of an engine of another shape")
        out = []
        for lo in range(0, len(C), _BATCH_MAX):
            batch = _Batch(self, C[lo:lo + _BATCH_MAX],
                           snaps[lo:lo + _BATCH_MAX])
            self.n_rounds += batch.rounds
            for i in range(len(batch.snaps)):
                out.append(batch.commit(i))
                if out[-1][1] is None:  # not optimal: the run ends here
                    break
            batch.leave_engine(i)
            if out[-1][1] is None:
                break
        return out

    def counters(self):
        """The four lifetime counts, under the names the reports use."""
        return {
            "pivots": self.n_pivots,
            "refactorizations": self.n_refactors,
            "slack_retries": self.n_slack_retries,
            "bland_switches": self.n_bland,
        }

    def snapshot(self) -> BasisSnapshot:
        """The current basis, to hand to ``restore`` later."""
        return BasisSnapshot(self.basis.copy(), self.vstat.copy())

    def restore(self, snap: BasisSnapshot, B_inv=None):
        """Install a snapshot's basis and variable statuses; the next solve
        starts from them.

        The problem data stay as they are now, and the snapshot is copied,
        so it can be restored again.  The next solve refactorizes the basis
        under the present data, as it does every basis, and picks its loop
        by it: the dual simplex when it is dual feasible there, else phase 1
        first when it is primal infeasible (a basis kept from another
        matrix).  ``B_inv``, when given, must be the engine's refactorization
        of the snapshot's basis under the present matrix
        (``_block_inverse``), as an ``OptimalBases`` node keeps it; it is
        copied and the next solve inverts nothing.
        """
        if snap.basis.shape != (self.m,) or snap.vstat.shape != (self.nt,):
            raise ValueError("snapshot of an engine of another shape")
        if B_inv is None:
            self._inv_exact = (self._inv_exact
                               and np.array_equal(snap.basis, self.basis))
        else:
            # a copy: the rank-one update works on B_inv in place
            self.B_inv = B_inv.copy()
            self._inv_exact = True
        self.basis = snap.basis.copy()
        self.vstat = snap.vstat.copy()
        self._retry = True


def _rowwise(M, cols):
    """M[i, cols[i]] for every row i."""
    return M[np.arange(len(M))[:, None], cols]


class _Lanes:
    """The members of a batch that pivot, compacted: row i of every array
    is member ``ids[i]``'s."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def __len__(self):
        return len(self.ids)

    def keep(self, mask):
        self.__dict__.update({k: v[mask] for k, v in self.__dict__.items()})


class _Batch:
    """One batch of ``SimplexEngine.solve_each``, solved at construction.

    Each step is the engine's, over a leading member axis.  Member i's
    basis, statuses, inverse, x, duals and reduced costs are its final ones
    when ``done[i]``; a member not done is solved on the engine by
    ``commit``, from its kept snapshot and, when ``exact[i]``, the batch's
    exact inverse of it, still in ``B[i]``.
    """

    def __init__(self, eng, C, snaps):
        self.eng, self.snaps = eng, snaps
        q = len(C)
        self.C = np.zeros((q, eng.nt))
        self.C[:, :eng.n] = C
        # members that share a snapshot object share its start: it is
        # inverted and its x computed once, then copied to each of them
        first = {}
        group = np.array([first.setdefault(id(s), i)
                          for i, s in enumerate(snaps)])
        lead = np.fromiter(first.values(), dtype=np.intp, count=len(first))
        basis = np.stack([snaps[i].basis for i in lead])
        vstat = np.stack([snaps[i].vstat for i in lead])
        B, ok = eng._block_inverses(basis)
        X = self._values(basis, vstat, B)
        # inversions performed for each member, a shared start counted at
        # its first member
        self.inverted = np.zeros(q, dtype=int)
        self.inverted[lead] = ok
        if len(lead) < q:
            where = np.searchsorted(lead, group)
            basis, vstat, B, ok, X = (basis[where], vstat[where], B[where],
                                      ok[where], X[where])
        self.basis, self.vstat, self.B, self.X = basis, vstat, B, X
        self.exact = ok  # B[i] inverts member i's kept basis
        self.pivots = np.zeros(q, dtype=int)
        self.rounds = 0
        self.Y, self.RC = self._price(self.C, self.basis, self.B)
        gain = eng._gain(self.RC, self.vstat)
        primal = gain[np.arange(q), gain.argmax(axis=1)] > _RC_TOL
        xb = _rowwise(self.X, self.basis)
        viol = _violation(xb, eng.L[self.basis], eng.U[self.basis])
        # the dual simplex's optimality test, and the members that take it
        self.done = ok & ~primal & ~(viol.max(axis=1) > TOL_FEAS)
        dual = np.flatnonzero(ok & ~primal & ~self.done)
        # primal feasible starts go to phase 2; phase 1 is left to the engine
        phase2 = np.flatnonzero(ok & primal
                                & ~np.any(viol > TOL_FEAS, axis=1))
        if len(dual):
            self._dual(self._lanes(dual))
        if len(phase2):
            self._primal(self._lanes(phase2))
        self._polish()

    # -- the engine's arithmetic, stacked ------------------------------

    def _values(self, basis, vstat, B):
        """``_recompute_x`` of each member."""
        eng = self.eng
        X = eng._nonbasic_values(vstat)
        rhs = eng.b - (eng.T @ X[:, :, None])[:, :, 0]
        X[np.arange(len(X))[:, None], basis] = (B @ rhs[:, :, None])[:, :, 0]
        return X

    def _price(self, C, basis, B):
        """``_price`` of each member: its duals and reduced costs."""
        Y = (_rowwise(C, basis)[:, None, :] @ B)[:, 0]
        return Y, C - (Y[:, None, :] @ self.eng.T)[:, 0]

    def _column(self, B, j):
        """d = B^-1 T[:, j] of each member."""
        return (B @ self.eng.T.T[j][:, :, None])[:, :, 0]

    def _step(self, s, j, step, pos, kind, d, xb):
        """``_apply_step`` of each lane, with ``step`` = sigma t; returns
        the lanes whose pivot element is below the tolerance, which take no
        rank-one update (the engine would refactorize there)."""
        eng = self.eng
        lanes = np.arange(len(j))
        s.X[lanes[:, None], s.basis] = xb - step[:, None] * d
        s.X[lanes, j] += step
        flip = pos < 0
        if flip.any():  # a bound flip keeps the basis
            s.vstat[lanes[flip], j[flip]] = kind[flip]
            change = ~flip
            lanes, j, pos, kind, d = (lanes[change], j[change], pos[change],
                                      kind[change], d[change])
        leave = s.basis[lanes, pos]
        s.vstat[lanes, leave] = kind
        s.X[lanes, leave] = np.where(kind == _AT_LB, eng.L[leave],
                                     eng.U[leave])
        s.basis[lanes, pos] = j
        s.vstat[lanes, j] = _BASIC
        piv = d[np.arange(len(lanes)), pos]
        tiny = np.zeros(len(s), dtype=bool)
        small = np.abs(piv) < _PIVOT_TOL
        if small.any():
            tiny[lanes[small]] = True
            fine = ~small
            lanes, pos, piv, d = lanes[fine], pos[fine], piv[fine], d[fine]
        row = s.B[lanes, pos] / piv[:, None]
        outer = d[:, :, None] * row[:, None, :]
        if len(lanes) == len(s):
            s.B -= outer
        else:
            s.B[lanes] -= outer
        s.B[lanes, pos] = row
        return tiny

    # -- lockstep pivoting ---------------------------------------------

    def _lanes(self, ids):
        zero = np.zeros(len(ids), dtype=int)
        return _Lanes(ids=ids, basis=self.basis[ids], vstat=self.vstat[ids],
                      X=self.X[ids], B=self.B[ids], C=self.C[ids],
                      rc=self.RC[ids], piv=zero, stall=zero.copy())

    def _finish(self, s, mask):
        """Lanes ``mask`` are optimal: their state back into the batch."""
        ids = s.ids[mask]
        for name in ("basis", "vstat", "X", "B"):
            getattr(self, name)[ids] = getattr(s, name)[mask]
        self.pivots[ids] = s.piv[mask]
        self.done[ids] = True
        s.keep(~mask)

    def _next_round(self, s, tiny):
        """Count the round's pivot; lanes that would take Bland's rule, the
        refactorization every 100 pivots or the budget's failure leave, for
        the engine."""
        self.rounds += 1
        s.piv += 1
        out = (tiny | (s.stall > _STALL_LIMIT) | (s.piv >= _REFACTOR_EVERY)
               | (s.piv > _pivot_budget(self.eng.m)))
        if out.any():
            s.keep(~out)

    def _dual(self, s):
        """``_dual_iterate`` on every lane, without Bland's rule."""
        L, U, T = self.eng.L, self.eng.U, self.eng.T
        while len(s):
            ar = np.arange(len(s))
            xb = _rowwise(s.X, s.basis)
            viol = _violation(xb, L[s.basis], U[s.basis])
            r = viol.argmax(axis=1)  # first max: lowest index
            optimal = ~(viol[ar, r] > TOL_FEAS)
            if optimal.any():
                self._finish(s, optimal)
                continue
            leave = s.basis[ar, r]
            below = xb[ar, r] < L[leave]
            alpha = (s.B[ar, r][:, None, :] @ T)[:, 0]
            j, can = self.eng._dual_entering(
                s.rc, np.where(below[:, None], -alpha, alpha), s.vstat,
                np.empty_like(s.rc))
            infeasible = ~can
            if infeasible.any():
                s.keep(~infeasible)  # the engine reports it
                continue
            d = self._column(s.B, j)
            step = (xb[ar, r] - np.where(below, L[leave], U[leave])) / d[ar, r]
            tiny = self._step(s, j, step, r, np.where(below, _AT_LB, _AT_UB),
                              d, xb)
            # reduced costs by the pivot row
            rc_j = s.rc[ar, j]
            theta = rc_j / alpha[ar, j]
            s.rc -= theta[:, None] * alpha
            s.rc[ar, j] = 0.0
            s.rc[ar, leave] = -theta
            s.stall = np.where(np.abs(rc_j) <= _RC_TOL, s.stall + 1, 0)
            self._next_round(s, tiny)

    def _primal(self, s):
        """Phase 2 of ``_iterate`` on every lane, without Bland's rule,
        from the start's reduced costs."""
        eng = self.eng
        L, U = eng.L, eng.U
        fresh = True  # s.rc holds the lanes' reduced costs
        while len(s):
            ar = np.arange(len(s))
            if not fresh:
                s.rc = self._price(s.C, s.basis, s.B)[1]
                fresh = True
            gain = eng._gain(s.rc, s.vstat)
            j = gain.argmax(axis=1)  # first max: lowest index
            optimal = ~(gain[ar, j] > _RC_TOL)
            if optimal.any():
                self._finish(s, optimal)
                continue
            sigma = np.where(s.vstat[ar, j] == _AT_UB, -1.0, 1.0)
            # the ratio test of _ratio_test, phase 2
            d = self._column(s.B, j)
            rate = np.where(sigma[:, None] > 0, -d, d)
            xb = _rowwise(s.X, s.basis)
            up = rate > _PIVOT_TOL
            dn = rate < -_PIVOT_TOL
            num = np.where(dn, L[s.basis], U[s.basis]) - xb
            num += np.where(up, _RATIO_TOL, -_RATIO_TOL)
            cand = np.full(rate.shape, np.inf)
            np.divide(num, rate, out=cand, where=up | dn)
            np.maximum(cand, 0.0, out=cand)
            pos = cand.argmin(axis=1)
            t = cand[ar, pos]
            kind = np.where(dn[ar, pos], _AT_LB, _AT_UB)
            span = eng._span[j]
            flip = span < t
            t = np.where(flip, span, t)
            pos = np.where(flip, -1, pos)
            kind = np.where(flip, np.where(sigma > 0, _AT_UB, _AT_LB), kind)
            unbounded = ~np.isfinite(t)
            if unbounded.any():
                s.keep(~unbounded)  # the engine reports it
                continue
            tiny = self._step(s, j, sigma * t, pos, kind, d, xb)
            fresh = False
            stuck = (t <= _RATIO_TOL) & (t * np.abs(d).max(axis=1)
                                         <= _RATIO_TOL)
            s.stall = np.where(stuck, s.stall + 1, 0)
            self._next_round(s, tiny)

    def _polish(self):
        """The engine's polish of the members that pivoted: refactorize,
        recompute x and price.  A member whose pivots were all bound flips
        is inverted again too, to the bytes it had."""
        P = np.flatnonzero(self.done & (self.pivots > 0))
        if len(P):
            B, ok = self.eng._block_inverses(self.basis[P])
            self.B[P[ok]] = B[ok]
            self.inverted[P[ok]] += 1
            # the engine solves the others again, and inverts their kept
            # bases itself
            self.done[P[~ok]] = False
            self.exact[P[~ok]] = False
            P = P[ok]
        if len(P):
            self.X[P] = self._values(self.basis[P], self.vstat[P], self.B[P])
            self.Y[P], self.RC[P] = self._price(self.C[P], self.basis[P],
                                                self.B[P])

    # -- results -------------------------------------------------------

    def commit(self, i):
        """Member i's (solution or NumericalFailure, snapshot of its optimal
        basis or None), with its work added to the engine's counters."""
        eng, n = self.eng, self.eng.n
        eng.n_refactors += int(self.inverted[i])
        if not self.done[i]:
            eng.restore(self.snaps[i], self.B[i] if self.exact[i] else None)
            try:
                sol = eng.resolve_objective(self.C[i, :n])
            except NumericalFailure as exc:
                return exc, None
            return sol, (eng.snapshot() if sol else None)
        eng.n_pivots += int(self.pivots[i])
        eng.n_batched += 1
        eng.data_version += 1
        x = self.X[i, :n].copy()
        sol = LpSolution(LpStatus.OPTIMAL, x=x,
                         objective=float(self.C[i, :n] @ x),
                         duals=self.Y[i].copy(),
                         reduced_costs=self.RC[i, :n].copy(),
                         iterations=int(self.pivots[i]))
        return sol, BasisSnapshot(self.basis[i].copy(), self.vstat[i].copy())

    def leave_engine(self, i):
        """Leave the engine as member i's solve leaves it, the last
        committed; a member solved on the engine already has."""
        if not self.done[i]:
            return
        eng = self.eng
        eng.basis = self.basis[i].copy()
        eng.vstat = self.vstat[i].copy()
        eng.B_inv = self.B[i].copy()
        eng._inv_exact = True
        eng.x = self.X[i].copy()
        eng.c[:eng.n] = self.C[i, :eng.n]
        eng._retry = True


@dataclass(frozen=True)
class _Optimum:
    """One node of an ``OptimalBases`` tree: what a zero-pivot re-solve from
    its basis computes anew for every right-hand side, computed once."""

    snap: BasisSnapshot
    B_inv: np.ndarray   # the engine's refactorization of the basis
    x_N: np.ndarray     # nonbasic variables at their bounds, basic ones 0
    T_xN: np.ndarray    # T @ x_N
    L_B: np.ndarray     # bounds of the basic variables
    U_B: np.ndarray
    K: np.ndarray       # the structural basic columns
    pos_K: np.ndarray   # their positions in the basis
    # the node one dual pivot away, by key (r, below), None at a dead end
    children: dict = field(default_factory=dict, compare=False)

    @classmethod
    def of(cls, eng, snap, B_inv):
        basis, x_N = snap.basis, eng._nonbasic_values(snap.vstat)
        pos_K = np.flatnonzero(basis < eng.n)
        return cls(snap, B_inv, x_N, eng.T @ x_N, eng.L[basis], eng.U[basis],
                   basis[pos_K], pos_K)

    def basic_values(self, b):
        """x_B for right-hand side b, and its bound violations."""
        x_B = self.B_inv @ (b - self.T_xN)
        return x_B, _violation(x_B, self.L_B, self.U_B)

    def structural(self, x_B, n):
        """x_N's n structural values with the basic ones scattered in."""
        x = self.x_N[:n].copy()
        x[self.K] = x_B[self.pos_K]
        return x


class OptimalBases:
    """Optimal bases of one ``SimplexEngine`` whose right-hand side alone
    changes, as a tree of bases one dual simplex pivot apart, rooted at the
    optimal basis of the engine's data at construction (the nominal one):
    what ``grid.DcopfSolver`` answers every DC-OPF demand from, and the
    start of the classifier LP's re-solves (``scopf``).

    With c, A and the bounds fixed, an optimal basis stays dual feasible for
    every right-hand side b, so it is optimal for b whenever its basic values
    x_B = B^-1 (b - T x_N) are primal feasible by the engine's rule: no
    bound broken by more than ``TOL_FEAS``, one scan of the largest
    violation.  Otherwise the bounded dual simplex (Koberstein, PhD thesis,
    Paderborn 2005) pivots: the first largest violation, at basis position
    r, leaves for the bound it breaks (the lower one when ``below``), and
    the entering column depends on the basis alone, so the basis that pivot
    reaches depends on b only through the key (r, below).  ``lookup`` walks
    from the root, from each node to its child for b's key, until a node
    keeps b feasible, and answers from that node with the bytes a zero-pivot
    ``resolve_rhs`` from its basis returns (the products are the engine's,
    from the refactorization that re-solve computes for the basis; only the
    structural basic values are scattered into the answer).  This is the
    optimal-active-set view of Misra, Roald & Ng (arXiv:1802.09639).

    A child is derived from its parent alone, the first time a walk needs
    it, by the engine's pricing and entering rule, and kept (None at a dead
    end, where no column can repair the violation); that walk misses.  A
    walk also misses at a dead end, past 8 hops, or when its next node
    would be the 17th.  On a miss the caller runs ``resolve``: the engine's
    re-solve from the root, inverse included, whose dual simplex takes the
    walk's pivots (but for rounding of its updated values at the
    tolerance), so an answer depends on its right-hand side, not on the
    lookups before it.  A ``reload`` of the engine's matrix or objective
    drops the tree, root included; with no root (its solve was not
    optimal, or raised ``NumericalFailure``) every lookup misses and
    ``resolve`` starts from the basis the engine had before that solve.

    ``counters()`` returns the lookups answered at each hop depth (0: the
    root), the nodes derived and the engine re-solves.
    """

    def __init__(self, engine: SimplexEngine):
        self.engine = engine
        self._start = engine.snapshot()
        self.n_answers = [0] * (_TREE_HOPS + 1)
        self.n_derived = self.n_resolves = 0
        self.root = None
        try:
            if engine.solve():
                self.root = _Optimum.of(engine, engine.snapshot(),
                                        engine.B_inv.copy())
        except NumericalFailure:
            pass
        self.n_nodes = int(self.root is not None)  # in the present tree
        self._version = engine.data_version

    def _current(self):
        if self._version != self.engine.data_version:
            self.root, self.n_nodes = None, 0
            self._version = self.engine.data_version
        return self.root

    def lookup(self, b):
        """The structural x of the first node of b's walk from the root
        that is optimal for right-hand side b; None on a miss."""
        b = np.asarray(b, dtype=float)
        if b.shape != (self.engine.m,):
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.engine.m},)")
        node, hops = self._current(), 0
        while node is not None:
            x_B, viol = node.basic_values(b)
            r = int(viol.argmax())  # first max: the dual simplex's row
            if viol[r] <= TOL_FEAS:
                self.n_answers[hops] += 1
                return node.structural(x_B, self.engine.n)
            if hops == _TREE_HOPS:
                break
            key = (r, bool(x_B[r] < node.L_B[r]))
            if key not in node.children:
                # kept for the walks after this one; this one misses
                if self.n_nodes < _TREE_NODES:
                    child = node.children[key] = self._child(node, *key)
                    self.n_nodes += child is not None
                    self.n_derived += child is not None
                break
            node = node.children[key]
            hops += 1
        return None

    def _child(self, e, r, below):
        """The node the dual simplex's first pivot from node e reaches
        when the basic variable at position r leaves for the bound it broke,
        the lower one when ``below``: the engine's pricing and entering rule
        from e's basis and inverse, then ``_block_inverse`` of the new basis.
        None when e would not start the dual simplex, no column can enter or
        the new basis is singular.  Leaves the engine at e's basis."""
        eng = self.engine
        eng.restore(e.snap, e.B_inv)
        rc = eng._price(eng.c)[1]
        if eng._choose_entering(rc, False)[0] >= 0:
            return None
        alpha = eng.B_inv[r] @ eng.T
        j, can = eng._dual_entering(rc, -alpha if below else alpha,
                                    eng.vstat, eng._ratio)
        if not can:
            return None
        basis, vstat = e.snap.basis.copy(), e.snap.vstat.copy()
        vstat[basis[r]] = _AT_LB if below else _AT_UB
        basis[r], vstat[j] = j, _BASIC
        try:
            B_inv = eng._block_inverse(basis)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(B_inv).all():
            return None
        return _Optimum.of(eng, BasisSnapshot(basis, vstat), B_inv)

    def install(self):
        """Start the engine's next solve from the root, its inverse
        included; with no root, from the basis the engine had before the
        root's solve."""
        root = self._current()
        if root is not None:
            self.engine.restore(root.snap, root.B_inv)
        else:
            self.engine.restore(self._start)

    def resolve(self, b):
        """``install`` and ``resolve_rhs(b)`` on the engine: a miss's
        answer."""
        self.n_resolves += 1
        self.install()
        return self.engine.resolve_rhs(b)

    def counters(self):
        return {"answers_by_hops": list(self.n_answers),
                "nodes_derived": self.n_derived,
                "resolves": self.n_resolves}


def solve_highs(problem: LpProblem) -> LpSolution:
    """One solve by scipy's HiGHS."""
    from scipy.optimize import linprog

    ineq = ~np.asarray([r == "=" for r in problem.rel])
    eq = ~ineq
    # the lower side of each ranged row, -a x <= w - b, as a row of its own
    ranged = np.flatnonzero(np.isfinite(problem.ranges))
    A_ub = np.vstack([problem.A[ineq], -problem.A[ranged]])
    b_ub = np.concatenate([problem.b[ineq],
                           problem.ranges[ranged] - problem.b[ranged]])
    bounds = list(zip(problem.lb, problem.ub))
    bounds = [(None if not np.isfinite(lo) else lo, None if not np.isfinite(hi) else hi)
              for lo, hi in bounds]
    res = linprog(
        -problem.c,
        A_ub=A_ub if len(A_ub) else None,
        b_ub=b_ub if len(A_ub) else None,
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
    if len(A_ub):
        y = -res.ineqlin.marginals
        duals[ineq] = y[:np.count_nonzero(ineq)]
        # a ranged row's dual: that of its upper side minus its lower side's
        duals[ranged] -= y[np.count_nonzero(ineq):]
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


def solve(problem: LpProblem) -> LpSolution:
    """One-shot solve: HiGHS above 600 rows (counted as the engine counts
    them: a ranged row is one), a fresh ``SimplexEngine`` otherwise."""
    if problem.n_rows > 600:
        return solve_highs(problem)
    return SimplexEngine(problem).solve()
