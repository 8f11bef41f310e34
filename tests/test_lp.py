import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nkscreen.lp import (
    TOL_COMP,
    TOL_FEAS,
    LpProblem,
    LpSolution,
    LpStatus,
    OptimalBases,
    SimplexEngine,
    solve,
    solve_highs,
)

from helpers import paired_rows, record_pivots, tree_nodes


def vertex_enumeration_max(c, A, b, lb, ub):
    """Brute-force LP oracle: enumerate basic points of {Ax<=b, lb<=x<=ub}.

    Only usable for small dimensions; intended as an independent check on the
    simplex, so it shares no code with it.
    """
    n = len(c)
    G = [A]
    h = [b]
    for j in range(n):
        if np.isfinite(ub[j]):
            e = np.zeros(n)
            e[j] = 1.0
            G.append(e[None, :])
            h.append(np.array([ub[j]]))
        if np.isfinite(lb[j]):
            e = np.zeros(n)
            e[j] = -1.0
            G.append(e[None, :])
            h.append(np.array([-lb[j]]))
    G = np.vstack(G)
    h = np.concatenate(h)
    combos = np.array(list(itertools.combinations(range(len(G)), n)))
    mats = G[combos]            # (K, n, n)
    rhs = h[combos]             # (K, n)
    dets = np.abs(np.linalg.det(mats))
    ok = dets > 1e-9
    if not np.any(ok):
        return None
    pts = np.linalg.solve(mats[ok], rhs[ok][..., None])[..., 0]
    feas = np.all(G @ pts.T <= h[:, None] + 1e-8, axis=0)
    if not np.any(feas):
        return None
    vals = pts[feas] @ c
    return float(vals.max())


def random_bounded_lp(rng, n=None, m=None):
    """Random LP that is feasible (by construction) and bounded (box bounds)."""
    n = n or rng.integers(2, 5)
    m = m or rng.integers(1, 6)
    A = rng.normal(size=(m, n))
    A[np.all(np.abs(A) < 0.3, axis=1), 0] += 1.0  # keep rows away from zero
    x0 = rng.uniform(-1, 1, size=n)
    b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
    lb = x0 - rng.uniform(0.5, 3.0, size=n)
    ub = x0 + rng.uniform(0.5, 3.0, size=n)
    c = rng.normal(size=n)
    return LpProblem(c=c, A=A, b=b, lb=lb, ub=ub)


def check_kkt(p: LpProblem, s: LpSolution):
    assert s.status is LpStatus.OPTIMAL
    x, y, rc = s.x, s.duals, s.reduced_costs
    resid = p.A @ x - p.b
    for i, w in enumerate(p.ranges):
        if w == 0.0:
            assert abs(resid[i]) <= 1e-6
            continue
        assert resid[i] <= TOL_FEAS * max(1.0, abs(p.b[i]))
        # a ranged row's lower side, a x >= b - w, and its dual <= 0 when
        # that side binds
        low = resid[i] + p.ranges[i]
        assert low >= -TOL_FEAS * max(1.0, abs(p.b[i]))
        if y[i] < 0 and np.isfinite(p.ranges[i]):
            assert abs(y[i] * low) <= TOL_COMP * max(1.0, abs(y[i]))
        else:
            assert y[i] >= -TOL_FEAS
            assert abs(y[i] * resid[i]) <= TOL_COMP * max(1.0, abs(y[i]))
    assert np.all(x >= p.lb - 1e-6)
    assert np.all(x <= p.ub + 1e-6)
    # stationarity: reduced costs are the objective minus the dual combination
    assert np.allclose(rc, p.c - p.A.T @ y, atol=1e-7)
    # sign conditions on reduced costs at the bounds
    for j in range(p.n_vars):
        at_lb = x[j] <= p.lb[j] + 1e-7
        at_ub = x[j] >= p.ub[j] - 1e-7
        if at_lb and not at_ub:
            assert rc[j] <= 1e-6
        elif at_ub and not at_lb:
            assert rc[j] >= -1e-6
        elif not at_lb and not at_ub:
            assert abs(rc[j]) <= 1e-6


def test_single_variable_max():
    p = LpProblem(c=[1.0], A=[[1.0]], b=[2.0], lb=[0.0], ub=[np.inf])
    s = solve(p)
    assert s.status is LpStatus.OPTIMAL
    assert s.x[0] == pytest.approx(2.0)
    assert s.objective == pytest.approx(2.0)
    assert s.duals[0] == pytest.approx(1.0)


def test_unbounded():
    p = LpProblem(c=[1.0], A=[[-1.0]], b=[0.0], lb=[-1.0])
    assert solve(p).status is LpStatus.UNBOUNDED


def test_infeasible():
    p = LpProblem(c=[0.0], A=[[1.0], [-1.0]], b=[1.0, -2.0], lb=[-1.0])
    assert solve(p).status is LpStatus.INFEASIBLE


def test_lower_bound_defaults_to_zero():
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0])
    assert p.lb.tolist() == [0.0, 0.0] and p.ub.tolist() == [np.inf, np.inf]
    # max -x - y over x + y <= 1 stops at the default bounds
    assert solve(dataclasses.replace(p, c=np.array([-1.0, -1.0]))).objective == 0.0


@pytest.mark.parametrize("lb, ub", [(-np.inf, np.inf), (np.nan, np.nan),
                                    (-np.inf, np.nan)])
def test_column_without_a_finite_bound_rejected(lb, ub):
    with pytest.raises(ValueError, match="finite lower or upper bound"):
        LpProblem(c=[1.0, 0.0], A=[[1.0, 1.0]], b=[1.0], lb=[0.0, lb],
                  ub=[1.0, ub])
    # one finite side is enough
    LpProblem(c=[1.0, 0.0], A=[[1.0, 1.0]], b=[1.0], lb=[0.0, -np.inf],
              ub=[1.0, 2.0])


def test_equality_row():
    # max x + y s.t. x + y = 1, x,y in [0, 1]
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0], lb=[0, 0], ub=[1, 1],
                  ranges=[0.0])
    s = solve(p)
    assert s.objective == pytest.approx(1.0)


def test_fixed_variable_respected():
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[10.0], lb=[2.0, 0.0], ub=[2.0, 3.0])
    s = solve(p)
    assert s.x[0] == pytest.approx(2.0)
    assert s.x[1] == pytest.approx(3.0)


def test_interior_optimum():
    # max -|x - 0.5| encoded via two rows; optimum at x = 0.5, inside the box
    p = LpProblem(c=[0.0, -1.0], A=[[1.0, -1.0], [-1.0, -1.0]], b=[0.5, -0.5],
                  lb=[-10.0, -10.0], ub=[10.0, 10.0])
    s = solve(p)
    assert s.status is LpStatus.OPTIMAL
    assert s.x[1] == pytest.approx(0.0, abs=1e-9)
    assert s.x[0] == pytest.approx(0.5, abs=1e-9)


def test_rejects_zero_row():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 1.0], A=[[0.0, 0.0]], b=[1.0])


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0], A=[[1.0, 2.0]], b=[1.0])
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], A=[[1.0, 2.0]], b=[1.0], ranges=[1.0, 1.0])


@pytest.mark.parametrize("seed", range(60))
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    p = random_bounded_lp(rng)
    s = SimplexEngine(p).solve()
    ref = vertex_enumeration_max(p.c, p.A, p.b, p.lb, p.ub)
    assert s.status is LpStatus.OPTIMAL
    assert ref is not None
    assert s.objective == pytest.approx(ref, abs=1e-6)
    check_kkt(p, s)


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("seed", range(5))
def test_matches_vertex_enumeration_higher_dim(n, seed):
    rng = np.random.default_rng(7000 + 13 * n + seed)
    p = random_bounded_lp(rng, n=n, m=4)
    s = SimplexEngine(p).solve()
    ref = vertex_enumeration_max(p.c, p.A, p.b, p.lb, p.ub)
    assert s.objective == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("seed", range(30))
def test_simplex_agrees_with_highs(seed):
    rng = np.random.default_rng(2000 + seed)
    p = random_bounded_lp(rng, n=int(rng.integers(2, 7)), m=int(rng.integers(2, 9)))
    a = SimplexEngine(p).solve()
    h = solve_highs(p)
    assert a.status is h.status is LpStatus.OPTIMAL
    assert a.objective == pytest.approx(h.objective, abs=1e-7 * max(1, abs(h.objective)))


def test_equality_rows_against_highs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m_in, m_eq = 4, 3, 2
        A = rng.normal(size=(m_in + m_eq, n))
        x0 = rng.uniform(-1, 1, size=n)
        b = np.concatenate([A[:m_in] @ x0 + rng.uniform(0.1, 1.0, size=m_in), A[m_in:] @ x0])
        widths = np.r_[np.full(m_in, np.inf), np.zeros(m_eq)]
        p = LpProblem(c=rng.normal(size=n), A=A, b=b, lb=x0 - 2, ub=x0 + 2,
                      ranges=widths)
        a = SimplexEngine(p).solve()
        h = solve_highs(p)
        assert a.status is h.status is LpStatus.OPTIMAL
        assert a.objective == pytest.approx(h.objective, abs=1e-7)
        check_kkt(p, a)


@pytest.mark.parametrize("seed", range(40))
def test_zero_width_rows_against_highs(seed):
    """Random feasible LPs whose rows are one-sided, ranged or of width 0,
    in random places: the engine and HiGHS (which takes the width-0 rows
    as A_eq) reach the same optimum, the engine's answer meets KKT with
    each width-0 row as an equality, and stating each width-0 row as two
    one-sided rows gives the engine the same optimum."""
    rng = np.random.default_rng(9100 + seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(2, 8))
    A = rng.normal(size=(m, n))
    A[np.all(np.abs(A) < 0.3, axis=1), 0] += 1.0
    x0 = rng.uniform(-1, 1, size=n)
    kind = rng.integers(0, 3, size=m)  # one-sided, ranged, width 0
    b = A @ x0 + np.where(kind == 2, 0.0, rng.uniform(0.1, 1.0, size=m))
    ranges = np.select([kind == 0, kind == 1],
                       [np.inf, b - A @ x0 + rng.uniform(0.1, 1.0, size=m)],
                       0.0)
    p = LpProblem(c=rng.normal(size=n), A=A, b=b,
                  lb=x0 - rng.uniform(0.5, 2.0, size=n),
                  ub=x0 + rng.uniform(0.5, 2.0, size=n), ranges=ranges)
    a, h = SimplexEngine(p).solve(), solve_highs(p)
    assert a.status is h.status is LpStatus.OPTIMAL
    assert a.objective == pytest.approx(h.objective,
                                        abs=1e-7 * max(1, abs(h.objective)))
    check_kkt(p, a)
    eq = kind == 2
    pair = SimplexEngine(LpProblem(
        c=p.c, A=np.vstack([A, -A[eq]]), b=np.concatenate([b, -b[eq]]),
        lb=p.lb, ub=p.ub,
        ranges=np.concatenate([np.where(eq, np.inf, ranges),
                               np.full(eq.sum(), np.inf)]))).solve()
    assert pair.objective == pytest.approx(a.objective, abs=1e-7)


def test_determinism_bitwise():
    rng = np.random.default_rng(42)
    p = random_bounded_lp(rng, n=4, m=5)
    s1 = SimplexEngine(p).solve()
    s2 = SimplexEngine(p).solve()
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.duals, s2.duals)
    assert s1.objective == s2.objective


def test_resolve_objective_matches_cold():
    rng = np.random.default_rng(11)
    p = random_bounded_lp(rng, n=4, m=6)
    eng = SimplexEngine(p)
    eng.solve()
    for k in range(25):
        c_new = rng.normal(size=4)
        warm = eng.resolve_objective(c_new)
        cold = SimplexEngine(
            LpProblem(c=c_new, A=p.A, b=p.b, lb=p.lb, ub=p.ub)
        ).solve()
        assert warm.status is cold.status is LpStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
        # warm solve should be an optimal point of the same LP
        assert np.all(p.A @ warm.x <= p.b + 1e-7)


def test_resolve_rhs_matches_cold():
    rng = np.random.default_rng(12)
    base = random_bounded_lp(rng, n=4, m=6)
    eng = SimplexEngine(base)
    eng.solve()
    x0 = (base.lb + base.ub) / 2
    for k in range(25):
        b_new = base.A @ x0 + rng.uniform(0.05, 2.0, size=6)
        warm = eng.resolve_rhs(b_new)
        cold = SimplexEngine(
            LpProblem(c=base.c, A=base.A, b=b_new, lb=base.lb, ub=base.ub)
        ).solve()
        assert warm.status is cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


def test_resolve_rhs_can_turn_infeasible_and_back():
    p = LpProblem(c=[1.0], A=[[1.0], [-1.0]], b=[1.0, 0.0], lb=[-10], ub=[10])
    eng = SimplexEngine(p)
    assert eng.solve().status is LpStatus.OPTIMAL
    assert eng.resolve_rhs(np.array([1.0, -2.0])).status is LpStatus.INFEASIBLE
    s = eng.resolve_rhs(np.array([3.0, 0.0]))
    assert s.status is LpStatus.OPTIMAL
    assert s.objective == pytest.approx(3.0)


def test_reload_matrix_matches_cold():
    rng = np.random.default_rng(13)
    p = random_bounded_lp(rng, n=3, m=4)
    eng = SimplexEngine(p)
    eng.solve()
    for k in range(15):
        A_new = p.A + 0.05 * rng.normal(size=p.A.shape)
        warm = eng.reload(A=A_new)
        cold = SimplexEngine(
            LpProblem(c=p.c, A=A_new, b=p.b, lb=p.lb, ub=p.ub)
        ).solve()
        assert warm.status is cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)


def test_degenerate_duplicated_rows():
    rng = np.random.default_rng(77)
    for _ in range(10):
        p = random_bounded_lp(rng, n=3, m=3)
        A = np.vstack([p.A, p.A, p.A[0:1]])
        b = np.concatenate([p.b, p.b, p.b[0:1]])
        pp = LpProblem(c=p.c, A=A, b=b, lb=p.lb, ub=p.ub)
        s = SimplexEngine(pp).solve()
        ref = vertex_enumeration_max(p.c, p.A, p.b, p.lb, p.ub)
        assert s.objective == pytest.approx(ref, abs=1e-6)


# -- ranged rows ---------------------------------------------------------------

def ranged_lp(rng, side):
    """A feasible LP whose first row is ranged and binds on ``side``.

    x0 lies strictly inside every row, and the objective pushes a0 x
    toward the bound on ``side`` (up for "upper", down for "lower"); a
    one-sided last row checks that the two kinds mix.
    """
    n, m = 3, 4
    A = rng.normal(size=(m, n))
    A[np.all(np.abs(A) < 0.3, axis=1), 0] += 1.0
    x0 = rng.uniform(-1, 1, size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    ranges = b - A @ x0 + rng.uniform(0.1, 1.0, size=m)
    ranges[-1] = np.inf
    c = A[0] if side == "upper" else -A[0]
    return LpProblem(c=c + 0.05 * rng.normal(size=n), A=A, b=b,
                     lb=x0 - 3.0, ub=x0 + 3.0, ranges=ranges)


@pytest.mark.parametrize("side", ["upper", "lower"])
def test_ranged_rows_agree_across_backends(side):
    rng = np.random.default_rng(61)
    binding = 0
    for _ in range(30):
        p = ranged_lp(rng, side)
        a = SimplexEngine(p).solve()
        h = solve_highs(p)
        ref = SimplexEngine(paired_rows(p)).solve()
        assert a.status is h.status is ref.status is LpStatus.OPTIMAL
        for s in (a, h):
            assert abs(s.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
            assert np.all(p.A @ s.x <= p.b + 1e-9)
            assert np.all(p.A @ s.x >= p.b - p.ranges - 1e-9)
            # stationarity: the duals of both backends price the objective
            assert np.allclose(s.reduced_costs, p.c - p.A.T @ s.duals, atol=1e-7)
        bound = p.b[0] if side == "upper" else p.b[0] - p.ranges[0]
        if abs(p.A[0] @ a.x - bound) <= 1e-9:
            binding += 1
            for s in (a, h):
                if side == "upper":
                    assert s.duals[0] >= -TOL_FEAS
                else:
                    assert s.duals[0] <= TOL_FEAS
    assert binding >= 10


def test_ranged_row_duals_by_hand():
    # 1 <= x + y <= 3, -3 <= x - y <= 1, 0 <= x, y <= 5
    A = [[1.0, 1.0], [1.0, -1.0]]
    for c, dual0, obj in (([2.0, 1.0], 1.5, 5.0), ([-2.0, -1.0], -1.0, -1.0)):
        p = LpProblem(c=c, A=A, b=[3.0, 1.0], lb=[0, 0], ub=[5, 5],
                      ranges=[2.0, 4.0])
        for s in (SimplexEngine(p).solve(), solve_highs(p)):
            assert s.objective == pytest.approx(obj, abs=1e-9)
            assert s.duals[0] == pytest.approx(dual0, abs=1e-9)


def test_ranged_row_infeasible_on_every_backend():
    # 1 <= x + y <= 2 cannot hold with x, y <= 0.4
    p = LpProblem(c=[1.0, 0.0], A=[[1.0, 1.0]], b=[2.0], lb=[0, 0],
                  ub=[0.4, 0.4], ranges=[1.0])
    for q in (p, paired_rows(p)):
        for s in (SimplexEngine(q).solve(), solve_highs(q)):
            assert s.status is LpStatus.INFEASIBLE


def test_ranged_rhs_resolve_moves_both_sides():
    rng = np.random.default_rng(62)
    for side in ("upper", "lower"):
        p = ranged_lp(rng, side)
        eng = SimplexEngine(p)
        assert eng.solve()
        for _ in range(5):
            b = p.b + rng.normal(scale=0.3, size=p.n_rows)
            warm = eng.resolve_rhs(b)
            cold = solve(paired_rows(dataclasses.replace(p, b=b)))
            assert warm.status is cold.status
            if warm:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


@pytest.mark.parametrize("width", [-1.0, np.nan])
def test_rejects_bad_range_width(width):
    with pytest.raises(ValueError, match="nonnegative"):
        LpProblem(c=[1.0], A=[[1.0], [2.0]], b=[1.0, 3.0],
                  ranges=[np.inf, width])


def counting_inv(monkeypatch):
    """Patch np.linalg.inv to count its calls; returns the counter list."""
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def same_bytes(a: LpSolution, b: LpSolution):
    assert a.status is b.status
    assert a.x.tobytes() == b.x.tobytes()
    assert a.duals.tobytes() == b.duals.tobytes()
    assert a.reduced_costs.tobytes() == b.reduced_costs.tobytes()
    assert a.objective == b.objective


def test_zero_pivot_resolves_skip_inversion(monkeypatch):
    # two engines in the same state; reload(A=same A) forces the second one
    # to invert the unchanged basis, and must give the same bytes
    rng = np.random.default_rng(21)
    p = random_bounded_lp(rng, n=4, m=6)
    eng, forced = SimplexEngine(p), SimplexEngine(p)
    assert eng.solve().iterations > 0
    forced.solve()
    calls = counting_inv(monkeypatch)
    b_new = p.b + 1e-6
    warm = eng.resolve_rhs(b_new)
    assert warm.iterations == 0
    assert calls == []
    same_bytes(warm, forced.reload(A=p.A, b=b_new))
    assert len(calls) == 1
    c_new = p.c * (1 + 1e-6)
    calls.clear()
    warm = eng.resolve_objective(c_new)
    assert warm.iterations == 0
    assert calls == []
    same_bytes(warm, forced.reload(A=p.A, c=c_new))
    assert len(calls) == 1


def test_cold_solve_inverts_only_after_pivots(monkeypatch):
    calls = counting_inv(monkeypatch)
    # optimal at the slack basis: x at its lower bounds, no pivot
    p = LpProblem(c=[-1.0, -2.0], A=[[1.0, 1.0]], b=[1.0], lb=[0.0, 0.0],
                  ub=[1.0, 1.0])
    s = SimplexEngine(p).solve()
    assert s.status is LpStatus.OPTIMAL and s.iterations == 0
    assert calls == []
    # one pivot makes the product-form inverse inexact: the final polish
    # inverts once
    p = LpProblem(c=[1.0, 2.0], A=[[1.0, 1.0]], b=[1.0], lb=[0.0, 0.0],
                  ub=[5.0, 5.0])
    s = SimplexEngine(p).solve()
    assert s.iterations == 1 and s.objective == pytest.approx(2.0)
    assert len(calls) == 1


def test_cold_phase2_prices_the_start_basis_once(monkeypatch):
    """The slack basis is primal feasible and not optimal, so phase 2 runs
    without phase 1 from the pricing that chose the loop: one pricing for
    the start, one after each pivot and one for the polish."""
    calls = []
    original = SimplexEngine._price

    def counted(self, ceff):
        calls.append(1)
        return original(self, ceff)

    monkeypatch.setattr(SimplexEngine, "_price", counted)
    p = LpProblem(c=[1.0, 2.0, 1.5], A=[[1.0, 1.0, 1.0], [1.0, 0.0, 2.0]],
                  b=[2.0, 3.0], lb=[0.0, 0.0, 0.0], ub=[5.0, 5.0, 5.0])
    s = SimplexEngine(p).solve()
    assert s.status is LpStatus.OPTIMAL and s.iterations >= 1
    assert s.objective == pytest.approx(4.0)
    assert len(calls) == s.iterations + 2


def test_snapshot_restore_reproduces_solve():
    rng = np.random.default_rng(22)
    p = random_bounded_lp(rng, n=4, m=6)
    eng = SimplexEngine(p)
    first = eng.solve()
    snap = eng.snapshot()
    x0 = (p.lb + p.ub) / 2
    moved = 0
    for _ in range(10):
        moved += eng.resolve_rhs(p.A @ x0 + rng.uniform(0.05, 2.0, size=6)).iterations
    assert moved > 0, "the re-solves should leave the snapshot's basis"
    for _ in range(2):  # restoring leaves the snapshot intact
        eng.restore(snap)
        again = eng.resolve_rhs(p.b)
        assert again.iterations == 0
        same_bytes(again, first)
    eng.restore(snap)
    same_bytes(eng.solve(), first)


def test_snapshot_without_inverse_refactors_once(monkeypatch):
    # the restore contract: a snapshot holds no inverse; restoring another
    # basis inverts it once, restoring the current basis with its exact
    # inverse does not, and neither does a basis restored with its inverse
    rng = np.random.default_rng(24)
    p = random_bounded_lp(rng, n=4, m=6)
    eng = SimplexEngine(p)
    first = eng.solve()
    snap = eng.snapshot()
    assert not hasattr(snap, "B_inv")
    x0 = (p.lb + p.ub) / 2
    for _ in range(10):
        eng.resolve_rhs(p.A @ x0 + rng.uniform(0.05, 2.0, size=6))
    eng.resolve_rhs(p.b)
    assert not np.array_equal(eng.basis, snap.basis)

    calls = counting_inv(monkeypatch)
    before = eng.n_refactors
    eng.restore(snap)
    again = eng.resolve_objective(p.c)
    assert again.iterations == 0
    same_bytes(again, first)
    assert eng.n_refactors == before + 1 and len(calls) == 1
    eng.restore(eng.snapshot())
    same_bytes(eng.resolve_objective(p.c), first)
    assert eng.n_refactors == before + 1 and len(calls) == 1
    # with the inverse kept beside it, restoring inverts nothing
    eng.resolve_objective(-p.c)
    eng.restore(snap, eng._block_inverses(snap.basis[None])[0][0])
    calls.clear()
    same_bytes(eng.resolve_objective(p.c), first)
    assert calls == []


def dual_feasible(eng):
    """Whether the engine's basis prices every nonbasic column the way an
    optimum must, computed apart from the engine's own pricing."""
    from nkscreen.lp import _AT_LB, _AT_UB

    y = np.linalg.solve(eng.T[:, eng.basis].T, eng.c[eng.basis])
    rc = eng.c - y @ eng.T
    stat, fixed = eng.vstat, eng.L == eng.U
    return not np.any(~fixed & (((stat == _AT_LB) & (rc > 1e-9))
                                | ((stat == _AT_UB) & (rc < -1e-9))))


def loops_run(monkeypatch):
    """Patch both pivot loops to record their names as they run."""
    ran = []
    for name in ("_iterate", "_dual_iterate"):
        def recorded(self, *args, _loop=getattr(SimplexEngine, name),
                     _name=name, **kwargs):
            ran.append(_name)
            return _loop(self, *args, **kwargs)
        monkeypatch.setattr(SimplexEngine, name, recorded)
    return ran


def test_restore_after_matrix_reload_solves_new_matrix(monkeypatch):
    # a basis kept from before a change of data is refactorized under the
    # new data: the re-solve agrees with a fresh engine on them, and runs
    # the dual simplex exactly when that basis is dual feasible there,
    # whichever data changed
    ran = loops_run(monkeypatch)
    primal = {"A": 0, "b": 0, "c": 0}
    for seed in range(40):
        rng = np.random.default_rng(seed)
        p = random_bounded_lp(rng, n=4, m=6)
        eng = SimplexEngine(p)
        eng.solve()
        snap = eng.snapshot()
        A2 = p.A + 0.3 * rng.normal(size=p.A.shape)
        b2 = p.b + rng.uniform(0.0, 0.5, size=p.b.shape)
        c2 = p.c + 0.5 * rng.normal(size=p.c.shape)
        p2 = LpProblem(c=p.c, A=A2, b=b2, lb=p.lb, ub=p.ub)
        starts = (("A", p2, lambda: eng.reload(A=A2, b=b2)),
                  ("b", p2, lambda: eng.resolve_rhs(b2)),
                  ("c", dataclasses.replace(p2, c=c2),
                   lambda: eng.resolve_objective(c2)))
        for changed, q, resolve in starts:
            eng.restore(snap)
            probe = SimplexEngine(q)
            probe.restore(snap)
            start_dual = dual_feasible(probe)
            ran.clear()
            got = resolve()
            assert ("_dual_iterate" in ran) == start_dual, (seed, changed)
            assert ("_iterate" in ran) != start_dual, (seed, changed)
            primal[changed] += not start_dual
            want = SimplexEngine(q).solve()
            assert got.status is want.status, (seed, changed)
            if want:
                np.testing.assert_allclose(got.x, want.x, rtol=0, atol=1e-9)
                assert abs(got.objective - want.objective) <= 1e-9, seed
                check_kkt(q, got)
    assert all(0 < k < 40 for k in primal.values()), primal


def test_counters_track_work(monkeypatch):
    calls = counting_inv(monkeypatch)
    rng = np.random.default_rng(25)
    p = random_bounded_lp(rng, n=5, m=7)
    eng = SimplexEngine(p)
    total = eng.solve().iterations
    for _ in range(5):
        total += eng.resolve_objective(rng.normal(size=5)).iterations
    assert eng.n_pivots == total > 0
    assert eng.n_refactors == len(calls) > 0
    assert eng.n_slack_retries == 0 and eng.n_bland == 0
    # a singular basis restored makes the next solve restart from the
    # slack basis, and the counter says so
    snap = eng.snapshot()
    eng.restore(dataclasses.replace(snap, basis=np.full(eng.m, eng.n)))
    sol = eng.resolve_objective(p.c)
    assert eng.n_slack_retries == 1
    check_kkt(p, sol)


def _fail_next_pivot_loops(monkeypatch, count):
    """Make the next count pivot loops of every engine raise, primal and
    dual loops alike."""
    import nkscreen.lp as lp

    left = [count]

    def failing(loop):
        def run(self, *args, **kwargs):
            if left[0] > 0:
                left[0] -= 1
                raise lp.NumericalFailure("injected")
            return loop(self, *args, **kwargs)
        return run

    for name in ("_iterate", "_dual_iterate"):
        monkeypatch.setattr(SimplexEngine, name,
                            failing(getattr(SimplexEngine, name)))


def test_numerical_failure_retries_once_from_slack_basis(monkeypatch):
    from nkscreen.lp import NumericalFailure

    rng = np.random.default_rng(30)
    p = random_bounded_lp(rng, n=4, m=6)
    cold = SimplexEngine(p).solve()
    # the first solve starts from the slack basis: nothing to retry
    eng = SimplexEngine(p)
    _fail_next_pivot_loops(monkeypatch, 1)
    with pytest.raises(NumericalFailure):
        eng.solve()
    assert eng.n_slack_retries == 0
    # a warm solve that fails restarts once from the slack basis
    eng.solve()
    _fail_next_pivot_loops(monkeypatch, 1)
    same_bytes(eng.resolve_rhs(p.b), cold)
    assert eng.n_slack_retries == 1
    _fail_next_pivot_loops(monkeypatch, 2)
    with pytest.raises(NumericalFailure):
        eng.resolve_objective(p.c)
    assert eng.n_slack_retries == 2
    # a solved basis restored is a warm start, also on an engine that has
    # not solved yet
    eng.solve()
    fresh = SimplexEngine(p)
    fresh.restore(eng.snapshot())
    _fail_next_pivot_loops(monkeypatch, 1)
    same_bytes(fresh.resolve_rhs(p.b), cold)
    assert fresh.n_slack_retries == 1
    # a singular basis restarts from the slack basis; a failure there raises
    eng.restore(dataclasses.replace(eng.snapshot(),
                                    basis=np.full(eng.m, eng.n)))
    _fail_next_pivot_loops(monkeypatch, 1)
    with pytest.raises(NumericalFailure):
        eng.resolve_rhs(p.b)
    assert eng.n_slack_retries == 3


def test_reload_checks_shapes_before_any_change():
    rng = np.random.default_rng(31)
    p = random_bounded_lp(rng, n=4, m=3)
    eng = SimplexEngine(p)
    first = eng.solve()
    state = [eng.T.copy(), eng.b.copy(), eng.c.copy(), eng.basis.copy(),
             eng.B_inv.copy(), eng.data_version]
    bad = [{"A": p.A[:2]}, {"A": p.A.T}, {"b": np.array([1.0])},
           {"b": np.ones((3, 1))}, {"c": np.ones(3)},
           {"b": p.b, "c": np.ones(5)}, {"A": p.A, "b": p.b[:2]}]
    for kwargs in bad:
        with pytest.raises(ValueError):
            eng.reload(**kwargs)
        after = [eng.T, eng.b, eng.c, eng.basis, eng.B_inv, eng.data_version]
        for was, now in zip(state, after):
            assert np.array_equal(was, now), kwargs
    with pytest.raises(ValueError):
        eng.resolve_rhs(np.ones(4))
    with pytest.raises(ValueError):
        eng.resolve_objective(np.ones(3))
    same_bytes(eng.solve(), first)


def _two_by_two():
    # max x1 + x2  s.t.  x1 + 2 x2 <= 4,  3 x1 + x2 <= 6,  x >= 0
    return LpProblem(c=np.ones(2), A=np.array([[1.0, 2.0], [3.0, 1.0]]),
                     b=np.array([4.0, 6.0]), lb=np.zeros(2))


NON_FINITE_ENTRIES = {
    "reload_A": lambda eng, v: eng.reload(A=np.array([[1.0, v], [3.0, 1.0]])),
    "reload_b": lambda eng, v: eng.reload(b=np.array([4.0, v])),
    "reload_c": lambda eng, v: eng.reload(c=np.array([v, 1.0])),
    "resolve_rhs": lambda eng, v: eng.resolve_rhs(np.array([v, 6.0])),
    "resolve_objective": lambda eng, v: eng.resolve_objective(
        np.array([1.0, v])),
    "solve_each": lambda eng, v: eng.solve_each(
        np.array([[1.0, 1.0], [v, 1.0]]), [eng.snapshot()] * 2),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRIES))
def test_non_finite_data_is_rejected_before_any_change(entry, value):
    # LpProblem rejects these at construction; before this check a NaN in
    # the matrix gave a wrong finite optimum, in b or c an "optimal" NaN
    eng = SimplexEngine(_two_by_two())
    first = eng.solve()
    state = [eng.T.copy(), eng.b.copy(), eng.c.copy(), eng.basis.copy(),
             eng.B_inv.copy(), eng.data_version, eng.counters()]
    with pytest.raises(ValueError, match="must be finite"):
        NON_FINITE_ENTRIES[entry](eng, value)
    after = [eng.T, eng.b, eng.c, eng.basis, eng.B_inv, eng.data_version,
             eng.counters()]
    for was, now in zip(state, after):
        assert np.array_equal(was, now) if isinstance(was, np.ndarray) \
            else was == now
    same_bytes(eng.solve(), first)


def test_bland_switch_counted(monkeypatch):
    import nkscreen.lp as lp

    # max x1 + x2 s.t. a x1 - x2 <= 0, x1 + x2 <= 2, x >= 0: the first
    # pivot, x1 into the basis, is degenerate (the first row's slack is 0).
    # It steps only the ratio tolerance over the rate, so no variable moves
    # beyond the tolerance, with a steep row (a = 1e4) as with O(1)
    # coefficients (a = 1)
    for a in (1e4, 1.0):
        p = LpProblem(c=np.array([1.0, 1.0]), A=np.array([[a, -1.0],
                                                          [1.0, 1.0]]),
                      b=np.array([0.0, 2.0]), lb=np.zeros(2))
        monkeypatch.setattr(lp, "_STALL_LIMIT", 60)
        eng = SimplexEngine(p)
        assert eng.solve().objective == pytest.approx(2.0)
        assert eng.n_bland == 0
        monkeypatch.setattr(lp, "_STALL_LIMIT", 0)
        eng = SimplexEngine(p)
        sol = eng.solve()
        assert sol.objective == pytest.approx(2.0)
        assert eng.n_bland == 1, a
        check_kkt(p, sol)
    # a pivot that moves a variable by a unit is no stall
    eng = SimplexEngine(LpProblem(c=[1.0], A=[[1.0]], b=[1.0], lb=[0.0]))
    assert eng.solve().iterations == 1 and eng.n_bland == 0


def test_bland_switch_counted_on_rhs_path(monkeypatch):
    import nkscreen.lp as lp

    # max x1 + x2 s.t. x1 + x2 <= b, 0 <= x <= 2: at b = 3 the optimum has
    # x2 basic and x1 at its upper bound with reduced cost 0, so the dual
    # pivot that lowers b to 1 takes x1 in without moving the objective
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[3.0], lb=[0.0, 0.0],
                  ub=[2.0, 2.0])
    b = np.array([1.0])
    want = SimplexEngine(dataclasses.replace(p, b=b)).solve()
    for limit, switches in ((lp._STALL_LIMIT, 0), (0, 1)):
        monkeypatch.setattr(lp, "_STALL_LIMIT", limit)
        eng = SimplexEngine(p)
        eng.solve()
        before = eng.n_bland
        sol = eng.resolve_rhs(b)
        assert sol.iterations > 0
        assert eng.n_bland - before == switches
        assert sol.objective == want.objective == 1.0
        check_kkt(dataclasses.replace(p, b=b), sol)


def test_infeasible_rhs_names_the_blocking_row():
    # max x + y, 0 <= x, y <= 1, x + y <= 5 and -x <= b1: at b1 = -2 row 1
    # asks for x >= 2, and neither column can lift its slack
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0], [-1.0, 0.0]], b=[5.0, 0.0],
                  lb=[0.0, 0.0], ub=[1.0, 1.0])
    eng = SimplexEngine(p)
    assert eng.solve().blocking is None
    sol = eng.resolve_rhs(np.array([5.0, -2.0]))
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.blocking == p.n_vars + 1
    # a cold solve's verdict comes from phase 1, which names nothing
    cold = solve(dataclasses.replace(p, b=np.array([5.0, -2.0])))
    assert cold.status is LpStatus.INFEASIBLE and cold.blocking is None


def mixed_lp(rng):
    """A feasible bounded LP with every kind of row and column: one-sided,
    ranged and width-0 rows; boxed, fixed and half-bounded columns (column
    1's one bound lies 10 away, and the width-0 row pins it down)."""
    n, m = 6, 7
    A = rng.normal(size=(m, n))
    A[np.all(np.abs(A) < 0.3, axis=1), 0] += 1.0
    A[5, 1] = 1.0 + abs(A[5, 1])
    x0 = rng.uniform(-1, 1, size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    b[5] = A[5] @ x0
    ranges = np.full(m, np.inf)
    ranges[[2, 3]] = b[[2, 3]] - A[[2, 3]] @ x0 + rng.uniform(0.1, 1.0, size=2)
    ranges[5] = 0.0
    lb, ub = x0 - rng.uniform(0.5, 2.0, size=n), x0 + rng.uniform(0.5, 2.0, size=n)
    lb[0] = ub[0] = x0[0]       # fixed
    lb[1], ub[1] = x0[1] - 10.0, np.inf  # far from its one bound
    ub[2] = np.inf              # bounded below only
    lb[3] = -np.inf             # bounded above only
    return LpProblem(c=rng.normal(size=n), A=A, b=b, lb=lb, ub=ub,
                     ranges=ranges)


@pytest.mark.parametrize("seed", range(12))
def test_rhs_path_matches_cold_primal(seed, monkeypatch):
    # right-hand sides walked ever further from a feasible one, until some
    # are infeasible: the warm re-solves (dual simplex) agree with HiGHS,
    # status for status (a cold engine solve from a dual feasible slack
    # basis runs the same dual loop, so it is no independent reference)
    ran = loops_run(monkeypatch)
    rng = np.random.default_rng(300 + seed)
    p = mixed_lp(rng)
    eng = SimplexEngine(p)
    assert eng.solve()
    statuses = []
    for k in range(30):
        q = dataclasses.replace(p, b=p.b + 0.1 * k * rng.normal(size=p.n_rows))
        ran.clear()
        warm = eng.resolve_rhs(q.b)
        assert ran == ["_dual_iterate"]
        ref = solve_highs(q)
        assert warm.status is ref.status, k
        statuses.append(warm.status)
        if warm:
            assert abs(warm.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))
            check_kkt(q, warm)
        else:
            assert 0 <= warm.blocking < eng.nt
    assert LpStatus.INFEASIBLE in statuses and LpStatus.OPTIMAL in statuses


def test_permuted_basis_gives_the_same_x_bytes():
    # each basic column's row of the refactorization, and so x, depends on
    # the set of basic columns, not on the positions the simplex put them
    # in; the duals c_B B^-1 sum over the positions in order, so they agree
    # to rounding only
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        p = mixed_lp(rng)
        eng = SimplexEngine(p)
        first = eng.solve()
        assert first
        snap = eng.snapshot()
        eng.restore(dataclasses.replace(
            snap, basis=snap.basis[rng.permutation(eng.m)]))
        again = eng.solve()
        assert again.iterations == 0
        assert again.x.tobytes() == first.x.tobytes()
        assert again.objective == first.objective
        np.testing.assert_allclose(again.duals, first.duals, rtol=0, atol=1e-12)


def test_restore_rejects_foreign_snapshot():
    rng = np.random.default_rng(23)
    eng = SimplexEngine(random_bounded_lp(rng, n=3, m=2))
    other = SimplexEngine(random_bounded_lp(rng, n=3, m=4))
    with pytest.raises(ValueError):
        eng.restore(other.snapshot())


# -- tree of optimal bases ----------------------------------------------------

def assert_tree_exact(tree):
    """Every node holds, byte for byte, the refactorization a right-hand-side
    re-solve computes afresh for its basis under the engine's present matrix,
    and T x_N of its nonbasic values."""
    eng = tree.engine
    for e in tree_nodes(tree):
        fresh = eng._block_inverses(e.snap.basis[None])[0][0]
        assert e.B_inv.tobytes() == fresh.tobytes()
        assert e.T_xN.tobytes() == (eng.T @ e.x_N).tobytes()


def _tree_and_far_rhs(seed):
    """A tree rooted at a random LP's optimal basis; returns the tree, its
    problem, the root's solution, a snapshot of the root's basis and a
    right-hand side whose re-solve from the root pivots."""
    rng = np.random.default_rng(seed)
    p = random_bounded_lp(rng, n=4, m=6)
    eng = SimplexEngine(p)
    tree = OptimalBases(eng)
    assert tree.root is not None and eng.n_pivots > 0
    snap = eng.snapshot()
    first = tree.resolve(p.b)
    assert first.iterations == 0
    x0 = (p.lb + p.ub) / 2
    for _ in range(50):
        b_away = p.A @ x0 + rng.uniform(0.05, 2.0, size=6)
        if tree.resolve(b_away).iterations > 0:
            break
    assert not np.array_equal(eng.basis, snap.basis)
    return tree, p, first, snap, b_away


def test_cache_hit_equals_fresh_inverse(monkeypatch):
    # an answer from the root returns the bytes of an engine re-solve from
    # the root's basis, and inverts nothing
    tree, p, first, snap, b_away = _tree_and_far_rhs(26)
    eng = tree.engine
    calls = counting_inv(monkeypatch)
    assert tree.lookup(p.b).tobytes() == first.x.tobytes()
    assert calls == [] and tree.counters()["answers_by_hops"][0] == 1
    rng = np.random.default_rng(26)
    hits = 0
    for _ in range(20):
        b = p.b + rng.uniform(-0.05, 0.05, size=p.n_rows)
        at_root = tree.n_answers[0]
        x = tree.lookup(b)
        tree.install()
        want = eng.resolve_rhs(b)
        assert (tree.n_answers[0] > at_root) == (want.iterations == 0)
        if want.iterations == 0:
            hits += 1
            assert x.tobytes() == want.x.tobytes()
    assert hits > 10
    assert_tree_exact(tree)


def test_miss_beyond_tolerance_goes_to_engine():
    # max x s.t. x = b, 0 <= x <= 10: the root, x basic, is optimal while
    # b <= 10, and the engine accepts it up to TOL_FEAS beyond; further on
    # no column can repair x, so the walk ends there and the engine
    # re-solves from the root
    p = LpProblem(c=[1.0], A=[[1.0]], b=[5.0], lb=[0.0], ub=[10.0],
                  ranges=[0.0])
    eng = SimplexEngine(p)
    tree = OptimalBases(eng)
    inside = np.array([10.0 + TOL_FEAS / 2])
    x = tree.lookup(inside)
    same = tree.resolve(inside)
    assert same.iterations == 0 and x.tobytes() == same.x.tobytes()
    beyond = np.array([10.0 + 2 * TOL_FEAS])
    assert tree.lookup(beyond) is None
    assert tree.resolve(beyond).status is LpStatus.INFEASIBLE
    assert tree.counters() == {"answers_by_hops": [1] + [0] * 8,
                               "nodes_derived": 0, "resolves": 2}
    # the dead end is kept, and derives nothing again
    (key, child), = tree.root.children.items()
    assert key == (0, False) and child is None


def test_violation_of_exactly_tol_feas_is_a_hit():
    # max x s.t. x <= b, 0 <= x <= 10 with x basic: x = b exactly, so at
    # b = -TOL_FEAS the one scan reads a violation of exactly TOL_FEAS,
    # which the rule allows, as the engine's dual simplex does
    p = LpProblem(c=[1.0], A=[[1.0]], b=[5.0], lb=[0.0], ub=[10.0])
    eng = SimplexEngine(p)
    tree = OptimalBases(eng)
    edge = np.array([-TOL_FEAS])
    x = tree.lookup(edge)
    same = tree.resolve(edge)
    assert same.iterations == 0 and x.tobytes() == same.x.tobytes()
    assert x[0] == -TOL_FEAS
    assert tree.lookup(np.nextafter(edge, -np.inf)) is None
    assert tree.n_answers[0] == 1


def test_pivot_after_hit_keeps_cached_inverse():
    # a right-hand side the root does not keep feasible misses while its
    # walk derives the nodes the dual simplex pivots through, one per
    # miss, then is answered from the last with the bytes of the engine's
    # re-solve from the root; the engine pivoting from the root leaves
    # every node's inverse exact
    tree, p, first, snap, b_away = _tree_and_far_rhs(27)
    eng = tree.engine
    pivots = tree.resolve(b_away).iterations
    misses = 0
    while tree.lookup(b_away) is None:
        misses += 1
        assert tree.n_derived == misses
    assert misses == pivots
    for _ in range(3):
        assert tree.lookup(p.b).tobytes() == first.x.tobytes()
        x = tree.lookup(b_away)
        sol = tree.resolve(b_away)
        assert sol.iterations == pivots and x.tobytes() == sol.x.tobytes()
        assert_tree_exact(tree)
        tree.install()
        assert np.array_equal(eng.basis, snap.basis)
    hops = tree.counters()["answers_by_hops"]
    assert hops[0] == 3 and hops[pivots] == 4 and tree.n_derived == pivots


def test_reload_matrix_drops_cached_inverses():
    # a new matrix or objective can make a kept basis suboptimal, so it
    # drops the tree, root included; a right-hand side does not
    rng = np.random.default_rng(28)
    tree, p, first, snap, b_away = _tree_and_far_rhs(28)
    eng = tree.engine
    assert any(tree.lookup(b_away) is not None for _ in range(4))
    nodes = tree_nodes(tree)
    assert len(nodes) > 1
    eng.resolve_rhs(p.b)
    assert tree_nodes(tree) == nodes
    eng.reload(A=p.A + 0.05 * rng.normal(size=p.A.shape))
    assert tree.lookup(p.b) is None and tree.root is None
    eng.reload(c=-p.c)
    assert tree.lookup(p.b) is None and tree.root is None
    # with no root, a miss re-solves from the basis the engine had before
    # the root's solve: the slack basis here
    tree.install()
    assert np.array_equal(eng.basis, np.arange(eng.n, eng.nt))


def test_no_root_solves_every_rhs_from_the_start_basis():
    # an infeasible right-hand side at construction gives no root: every
    # lookup misses and each re-solve starts from the slack basis
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[5.0], lb=[0.0, 0.0],
                  ub=[1.0, 1.0], ranges=[0.0])
    tree = OptimalBases(SimplexEngine(p))
    assert tree.root is None
    for b in ([1.5], [0.5], [7.0]):
        assert tree.lookup(np.array(b)) is None
        sol = tree.resolve(np.array(b))
        cold = SimplexEngine(dataclasses.replace(p, b=np.array(b))).solve()
        assert sol.status is cold.status
        if sol:
            assert sol.x.tobytes() == cold.x.tobytes()
    assert tree.counters() == {"answers_by_hops": [0] * 9,
                               "nodes_derived": 0, "resolves": 3}


def _root_resolve(p):
    """An engine solved at p, a function that re-solves it at a right-hand
    side from that optimal basis and inverse, and the list of the basis
    and statuses after each pivot of the last re-solve."""
    eng = SimplexEngine(p)
    assert eng.solve()
    start = (eng.snapshot(), eng.B_inv.copy())
    states = record_pivots(eng)

    def resolve(b):
        states.clear()
        eng.restore(*start)
        return eng.resolve_rhs(b)

    return resolve, states


def _check_walks(p, rhs):
    """``lookup`` of a tree rooted at p's optimal basis for each
    right-hand side, twice over, against the engine's re-solve from that
    basis: an answer after h hops has the bytes of the engine's re-solve,
    which took h pivots, and every node of the tree is a basis and
    statuses the engine's pivots reach.  Returns the tree and the engine's
    pivots per right-hand side."""
    tree = OptimalBases(SimplexEngine(p))
    resolve, states = _root_resolve(p)
    reached, pivots = set(), []
    for b in [*rhs, *rhs]:
        before = list(tree.n_answers)
        x = tree.lookup(b)
        sol = resolve(b)
        pivots.append(sol.iterations)
        if x is not None:
            hops = [a - w for a, w in zip(tree.n_answers, before)]
            assert hops[sol.iterations] == 1
            assert x.tobytes() == sol.x.tobytes()
        reached.update(states)
    nodes = tree_nodes(tree)[1:]
    assert len(nodes) == tree.n_derived
    # two walks may reach one basis by different pivots: a node per walk
    assert {(e.snap.basis.tobytes(), e.snap.vstat.tobytes())
            for e in nodes} <= reached
    return tree, pivots[:len(rhs)]


def _merit_order(d, costs=(0.5, 1.0, 2.0, 2.0, 3.0)):
    """max -cost x s.t. sum x = d, 0 <= x <= 1: one generator per cost, by
    default five, generators 2 and 3 at equal cost."""
    k = len(costs)
    return LpProblem(c=-np.array(costs), A=np.ones((1, k)), b=[d],
                     lb=np.zeros(k), ub=np.ones(k), ranges=[0.0])


def test_neighbour_is_the_engine_basis_after_one_dual_pivot():
    # at d = 1.5 generator 0 sits at its upper bound and generator 1 is
    # marginal.  Past d = 2 it leaves at its upper bound and generator 2
    # enters, not 3 (equal ratios, lowest index); past d = 3 generator 3
    # follows, a second pivot, and past d = 4 generator 4.  Below d = 1
    # generator 1 leaves at its lower bound and generator 0 enters; below
    # d = 0 that fails.  Each walk that derives a node misses; the second
    # pass answers every demand but the two infeasible ones.
    demands = [3.5, 2.5, 0.8, 1.7, 6.0, -0.5]
    tree, pivots = _check_walks(_merit_order(1.5),
                                [np.array([d]) for d in demands])
    assert pivots[:4] == [2, 1, 1, 0]
    assert tree.counters() == {"answers_by_hops": [2, 3, 1] + [0] * 6,
                               "nodes_derived": 4, "resolves": 0}
    assert tree.lookup(np.array([2.5])).tolist() == [1, 1, 0.5, 0, 0]
    # d = 6 reaches generator 4's node, which nothing can repair: a dead
    # end, kept, and below d = 0 generator 0's node is one
    assert tree.lookup(np.array([6.0])) is None
    up = tree.root.children[(0, False)]
    fourth = up.children[(0, False)].children[(0, False)]
    assert fourth.children == {(0, False): None}
    assert tree.root.children[(0, True)].children == {(0, True): None}


@pytest.mark.parametrize("seed", range(4))
def test_neighbours_of_random_lps_answer_with_the_engine_bytes(seed):
    rng = np.random.default_rng(40 + seed)
    p = random_bounded_lp(rng, n=6, m=8)
    rhs = [p.b + rng.normal(scale=1.0, size=8) for _ in range(60)]
    tree, pivots = _check_walks(p, rhs)
    hops = tree.counters()["answers_by_hops"]
    assert sum(hops[1:]) > 0 and max(pivots) > 1
    assert sum(hops) <= 2 * len(rhs)


def test_walks_past_the_caps_fall_back_to_the_engine():
    # 40 generators in merit order, generator 20 marginal at the root:
    # demand 20.5 + k takes k pivots up the merit order, 20.5 - k k pivots
    # down.  Walking k = 1, 2, ... up and down derives one node per walk,
    # which that walk misses and the next takes, until the node cap.  A
    # walk longer than the hop cap, or one that would derive a node beyond
    # the node cap, misses, and the engine's re-solve from the root gives
    # the merit-order dispatch; the tree never outgrows its cap.
    from nkscreen.lp import _TREE_HOPS, _TREE_NODES

    tree = OptimalBases(SimplexEngine(_merit_order(20.5,
                                                   np.arange(1.0, 41.0))))
    eng = tree.engine
    capped = 0
    for k in range(1, _TREE_HOPS + 4):
        for d in (np.array([20.5 + k]), np.array([20.5 - k])):
            tree.install()
            want = eng.resolve_rhs(d)
            assert want.iterations == k
            assert tree.lookup(d) is None
            x = tree.lookup(d)
            if x is None:
                capped += k <= _TREE_HOPS
                got = tree.resolve(d)
                assert got.x.tobytes() == want.x.tobytes()
                assert np.allclose(got.x, np.clip(d - np.arange(40), 0, 1),
                                   rtol=0, atol=1e-12)
            else:
                assert k <= _TREE_HOPS and x.tobytes() == want.x.tobytes()
            assert len(tree_nodes(tree)) == tree.n_nodes <= _TREE_NODES
    counts = tree.counters()
    assert tree.n_nodes == _TREE_NODES and capped > 0
    assert counts["answers_by_hops"][_TREE_HOPS] == 1
    assert counts["resolves"] == capped + 6


def test_dcopf_draws_invert_few_bases(monkeypatch):
    from nkscreen.cli import resolve_case
    from nkscreen.datagen import DemandSampler, sample_demands
    from nkscreen.grid import DcopfSolver, load_network

    net = load_network(resolve_case("case39"))
    calls = counting_inv(monkeypatch)
    dcopf = DcopfSolver(net)
    # the nominal solve, polished once
    assert len(calls) == dcopf.counters()["refactorizations"] == 1
    for d in sample_demands(DemandSampler(net.demand, rel_std=0.15, seed=0),
                            600):
        dcopf.solve(d)
    work = dcopf.counters()
    assert work["draws"] == 600 == sum(work["answers_by_hops"]) + \
        work["resolves"]
    # a handful of bases a few pivots from the nominal one covers the
    # demand distribution
    assert work["resolves"] <= 10 and work["answers_by_hops"][4:] == [0] * 5
    assert len(calls) == work["refactorizations"] + work["nodes_derived"]
    assert len(calls) <= 10


# -- byte-identity guard ------------------------------------------------------

def _hash_solution(h, sol: LpSolution):
    h.update(f"{sol.status.value}:{sol.iterations};".encode())
    if sol:
        h.update(sol.x.tobytes())
        h.update(sol.duals.tobytes())


def _support_sweep_digest(h):
    """Support LPs over a classifier's epigraph rows, a weight reload between
    two sweeps: the training hot path, with each row's objective re-solve."""
    from nkscreen.icnn import init_params, project_convex
    from nkscreen.oracle import epigraph_constraints

    rng = np.random.default_rng(31)
    params = init_params(6, 2, 10, -np.ones(6), np.ones(6), seed=5)
    rows = rng.normal(size=(40, 6))
    A, b, lb, ub = epigraph_constraints(params)
    eng = SimplexEngine(LpProblem(c=np.zeros(A.shape[1]), A=A, b=b,
                                  lb=lb, ub=ub))
    for sweep in range(2):
        if sweep:
            for arr in params.W + params.D + params.b:
                arr += 0.05 * rng.normal(size=arr.shape)
            project_convex(params)
            A, b, _, _ = epigraph_constraints(params)
            _hash_solution(h, eng.reload(A=A, b=b))
        for row in rows:
            c = np.zeros(A.shape[1])
            c[:6] = row
            _hash_solution(h, eng.resolve_objective(c))


def _mesh10():
    """A 10-bus meshed network: its classifier SC-OPF has 42 rows (66 when
    each two-sided limit took two rows), few enough that no LAPACK call in
    the engine depends on the BLAS threads."""
    from nkscreen.grid import Network

    rng = np.random.default_rng(12)
    lines = np.array([(i, (i + 1) % 10) for i in range(10)]
                     + [(0, 4), (2, 7), (3, 8), (1, 6), (5, 9)])
    limits = rng.uniform(0.8, 1.6, size=len(lines))
    pmax = np.zeros(10)
    pmax[[0, 3, 6, 8]] = [4.0, 2.0, 2.5, 1.5]
    cost = np.zeros(10)
    cost[[0, 3, 6, 8]] = [1.0, 1.7, 1.3, 2.2]
    demand = np.zeros(10)
    demand[[1, 2, 4, 5, 7, 9]] = rng.uniform(0.4, 1.0, size=6)
    return Network(name="mesh10", n=10, lines=lines,
                   susceptance=rng.uniform(0.5, 2.0, size=len(lines)),
                   f_lower=-limits, f_upper=limits, pmin=np.zeros(10),
                   pmax=pmax, cost=cost, demand=demand, slack=0).validate()


def _dcopf_digest(h):
    """DC-OPF right-hand-side re-solves on case39 and on a meshed 10-bus
    network, a chain of warm re-solves from the slack basis; returns the
    latter with its demands and feasible injections."""
    from nkscreen.cli import resolve_case
    from nkscreen.datagen import DemandSampler, sample_demands
    from nkscreen.grid import DispatchLp, load_network

    for net in (load_network(resolve_case("case39")), _mesh10()):
        lp = DispatchLp(net)
        eng = SimplexEngine(lp.problem(net.demand))
        demands = sample_demands(DemandSampler(net.demand, rel_std=0.15,
                                               seed=9), 40)
        X = []
        for d in demands:
            sol = eng.resolve_rhs(lp.rhs(d))
            _hash_solution(h, sol)
            if sol:
                X.append(sol.x - d)
    return net, demands, np.array(X)


def _dcopf_solver_draws(net, scale, rel_std):
    """800 seeded draws around scale times the network's nominal demand."""
    from nkscreen.datagen import DemandSampler, sample_demands

    return sample_demands(DemandSampler(net.demand * scale, rel_std=rel_std,
                                        seed=4), 800)


def _dcopf_solver_digest(h):
    """``DcopfSolver.solve`` over seeded case39 draws, infeasible ones
    included: at 1.00 and (with twice the spread) 1.04 times the nominal
    demand.  Hashes what callers see (status, dispatch, flows, cost), not
    the engine's pivot counts."""
    from nkscreen.cli import resolve_case
    from nkscreen.grid import DcopfSolver, load_network

    net = load_network(resolve_case("case39"))
    statuses = []
    for scale, rel_std in ((1.00, 0.15), (1.04, 0.3)):
        dcopf = DcopfSolver(net)
        for d in _dcopf_solver_draws(net, scale, rel_std):
            res = dcopf.solve(d)
            statuses.append(res.status)
            h.update(f"{res.status.value};".encode())
            if res:
                h.update(res.p.tobytes())
                h.update((dcopf.H @ res.injection).tobytes())
                h.update(repr(res.cost).encode())
    return statuses


def _mesh10_classifier(X):
    """A classifier over the injections X of the 10-bus network, cut at the
    median of its values on them."""
    from nkscreen.icnn import ScaledClassifier, forward, init_params

    keep = np.nonzero(X.std(axis=0) > 1e-9)[0]
    mu, sigma = X[:, keep].mean(axis=0), X[:, keep].std(axis=0)
    U = (X[:, keep] - mu) / sigma
    params = init_params(len(keep), 1, 16, U.min(axis=0) - 1.0,
                         U.max(axis=0) + 1.0, seed=3)
    params.b[-1] -= np.median(forward(params, U))
    return ScaledClassifier(params=params, r=1.5, mu=mu, sigma=sigma,
                            dim_map=keep)


def _scopf_digest(h, net, demands, X):
    """Classifier SC-OPF re-solves on the 10-bus network, each from the
    nominal optimal basis as solve_scopf_icnn does."""
    from nkscreen.scopf import icnn_dispatch_problem

    clf = _mesh10_classifier(X)
    eng = SimplexEngine(icnn_dispatch_problem(net, net.demand, clf))
    _hash_solution(h, eng.solve())
    start = eng.snapshot()
    for d in demands:
        eng.restore(start)
        _hash_solution(h, eng.resolve_rhs(icnn_dispatch_problem(net, d, clf).b))


# sha256 of the support sweeps above, recorded when the structural-block
# refactorization became the engine's only one and every solve from a dual
# feasible basis ran the dual simplex: other last bits and, from such
# starts, other pivot sequences.  numpy 2.4 with OpenBLAS on x86-64; another
# BLAS may round the matrix products differently and so give other bytes
# with no change here.
GOLDEN_SWEEP_DIGEST = "ab19765662e0422507406278388604fb8c87f4da21d5d087f9b99c63a19237c6"
# sha256 of the DC-OPF re-solves, recorded at the same change: the block
# takes the structural columns in ascending order, which moves last bits
# (same BLAS caveat)
GOLDEN_DCOPF_DIGEST = "b3b1113f4edb50e0b1b5359a5c8f9ee3a6336fed1a95fdc5ad3a0bed6b162d11"
# sha256 of the classifier SC-OPF re-solves, recorded at the same change and
# for the same reasons (same BLAS caveat)
GOLDEN_SCOPF_DIGEST = "a1f9881b2d4d3bfd23bb0c849e62c7f1467210c0a3bf140de1a9a6f79f5dd864"
# sha256 of what DcopfSolver.solve returns on case39, recorded while every
# draw was still a warm engine re-solve, before draws were answered from a
# table of optimal bases (same BLAS caveat)
GOLDEN_DCOPF_SOLVER_DIGEST = "b264f0afa10837efc43a21358d0c24a917867df1542112eb592382c0b47f04eb"


def test_pivot_sequences_and_bytes_unchanged():
    import hashlib

    h = hashlib.sha256()
    _support_sweep_digest(h)
    assert h.hexdigest() == GOLDEN_SWEEP_DIGEST
    h = hashlib.sha256()
    mesh = _dcopf_digest(h)
    assert h.hexdigest() == GOLDEN_DCOPF_DIGEST
    h = hashlib.sha256()
    _scopf_digest(h, *mesh)
    assert h.hexdigest() == GOLDEN_SCOPF_DIGEST


def recorded_inversions(monkeypatch, engines):
    """Patch np.linalg.inv to record each call's shape with the number of
    structural columns in the basis of the last engine in ``engines``."""
    inv, seen = np.linalg.inv, []

    def recorded(a):
        eng = engines[-1]
        seen.append((a.shape, int(np.count_nonzero(eng.basis < eng.n))))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    return seen


def test_no_row_sized_inversion_while_a_slack_is_basic(monkeypatch):
    # every refactorization inverts k x k, k the structural columns of the
    # basis: a cold solve, then a support sweep with a weight reload
    from nkscreen.icnn import init_params, project_convex
    from nkscreen.oracle import SublevelSolver

    rng = np.random.default_rng(41)
    p = random_bounded_lp(rng, n=8, m=12)
    engines = [SimplexEngine(p)]
    seen = recorded_inversions(monkeypatch, engines)
    assert engines[0].solve().iterations > 0
    params = init_params(6, 2, 10, -np.ones(6), np.ones(6), seed=5)
    solver = SublevelSolver(params)
    engines.append(solver.engine)
    for sweep in range(2):
        if sweep:
            for arr in params.W + params.D + params.b:
                arr += 0.05 * rng.normal(size=arr.shape)
            project_convex(params)
            solver.reload(params)
        for row in rng.normal(size=(20, 6)):
            solver.support(row)
    assert len(seen) > 20
    assert all(shape == (1, k, k) for shape, k in seen)


def test_batched_sweep_inverts_only_structural_blocks(monkeypatch):
    # a batched sweep inverts one (g, k, k) stack per structural count k
    # of its members' kept bases, g the members with that k; later stacks
    # are the bases that pivots reached, and an engine solve of a member it
    # hands back inverts k x k as ever
    from collections import Counter

    from nkscreen.icnn import init_params, project_convex, raw_forward
    from nkscreen.oracle import SublevelSolver

    rng = np.random.default_rng(43)
    params = init_params(6, 2, 10, -np.ones(6), np.ones(6), seed=6)
    params.b[-1] = params.b[-1] - raw_forward(params, np.zeros(6)) - 0.5
    solver = SublevelSolver(params)
    eng = solver.engine
    D = rng.normal(size=(30, 6))
    solver.sweep(D)
    for arr in params.W + params.D + params.b:
        arr += 0.05 * rng.normal(size=arr.shape)
    project_convex(params)
    solver.reload(params)
    ks = Counter(int(np.count_nonzero(solver._bases[d.tobytes()].basis
                                      < eng.n)) for d in D)
    inv, seen = np.linalg.inv, []

    def recorded(a):
        seen.append((a.shape, int(np.count_nonzero(eng.basis < eng.n))))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    solver.sweep(D)
    assert solver.counters()["batched"] > 0 and eng.n_pivots > 0
    shapes = [shape for shape, _ in seen]
    assert shapes[:len(ks)] == [(g, k, k) for k, g in sorted(ks.items())]
    assert all(shape[1] == shape[2] < eng.m for shape in shapes)


def test_zero_pivot_solve_reports_its_start(monkeypatch):
    # a solve that takes no pivot from an exact inverse prices once and
    # computes x once, and reports what a polish would give
    from collections import Counter

    rng = np.random.default_rng(7)
    eng = SimplexEngine(random_bounded_lp(rng, n=8, m=12))
    first = eng.solve()
    assert first.status is LpStatus.OPTIMAL and first.iterations > 0
    calls = Counter()
    for name in ("_price", "_values", "_refactor"):
        original = getattr(SimplexEngine, name)

        def counted(self, *args, _f=original, _name=name):
            calls[_name] += 1
            return _f(self, *args)

        monkeypatch.setattr(SimplexEngine, name, counted)
    again = eng.solve()
    assert again.iterations == 0
    assert calls == {"_price": 1, "_values": 1, "_refactor": 1}
    for field in ("x", "duals", "reduced_costs"):
        assert getattr(again, field).tobytes() == \
            getattr(first, field).tobytes()
    assert again.objective == first.objective


def test_classifier_resolves_invert_only_the_structural_block(monkeypatch):
    # every inversion of the classifier SC-OPF's re-solves is k x k, k the
    # structural columns of the basis inverted, far below the row count
    import hashlib

    from nkscreen import scopf
    from nkscreen.grid import DcopfSolver

    net, demands, X = _dcopf_digest(hashlib.sha256())
    clf = _mesh10_classifier(X)
    # the classifier LP's own re-solves, for every demand: solve_scopf_icnn
    # answers most of these demands from the screened DC-OPF dispatch
    lp = scopf.Dispatcher(DcopfSolver(net), clf)
    classifier_lp = lp.bases
    eng = classifier_lp.engine
    shapes = recorded_inversions(monkeypatch, [eng])
    solved = [classifier_lp.resolve(lp.constraints.rhs(d)) for d in demands]
    assert any(solved) and eng.n_pivots > 0 and len(shapes) > 10
    assert all(shape == (1, k, k) and k < eng.m for shape, k in shapes)
    assert max(k for _, k in shapes) <= eng.m // 2


def test_dcopf_solver_bytes_unchanged():
    import hashlib

    h = hashlib.sha256()
    statuses = _dcopf_solver_digest(h)
    assert LpStatus.INFEASIBLE in statuses
    assert h.hexdigest() == GOLDEN_DCOPF_SOLVER_DIGEST


def test_dcopf_solver_matches_warm_engine_mesh10():
    """On the 10-bus network the tree's answers are the warm engine's, byte
    for byte: the engine reaches some optimal bases with their columns in
    another order than the tree's node, and the refactorization takes the
    structural columns in ascending order, so the order does not show."""
    from nkscreen.grid import DcopfSolver

    net = _mesh10()
    dcopf, warm = DcopfSolver(net), DcopfSolver(net)
    statuses = set()
    for d in _dcopf_solver_draws(net, 1.00, 0.3):
        got = dcopf.solve(d)
        want = warm.engine.resolve_rhs(warm.rhs(d))
        assert got.status is want.status
        statuses.add(got.status)
        if want:
            assert got.p.tobytes() == want.x.tobytes()
            assert got.cost == float(net.cost @ want.x)
    assert statuses == {LpStatus.OPTIMAL}
    assert dcopf.counters()["resolves"] < 40


@functools.lru_cache(maxsize=None)
def _mesh10_tree():
    """The 10-bus DC-OPF after 100 draws, the nodes of its tree that answer
    some later draw as the root of a tree of their own, and for each such
    node those draws' right-hand sides."""
    from nkscreen.grid import DcopfSolver

    net = _mesh10()
    dcopf = DcopfSolver(net)
    draws = _dcopf_solver_draws(net, 1.00, 0.3)
    for d in draws[:100]:
        dcopf.solve(d)
    nodes, answered = [], []
    for e in tree_nodes(dcopf.bases):
        rhs = [b for b in map(dcopf.rhs, draws[100:])
               if _root_answer(dcopf.engine, e, b) is not None]
        if rhs:
            nodes.append(e)
            answered.append(rhs)
    assert len(answered) > 1
    return dcopf, nodes, answered


def _rooted_at(eng, e):
    """A tree built on the engine whose root is node e's basis: the engine
    restored to it and re-solved, in zero pivots, at a right-hand side
    that puts every basic value inside its bounds."""
    L, U = e.L_B, e.U_B
    inside = np.where(np.isfinite(L) & np.isfinite(U), (L + U) / 2,
                      np.where(np.isfinite(L), L + 1.0, U - 1.0))
    eng.restore(e.snap, e.B_inv)
    assert eng.resolve_rhs(eng.T[:, e.snap.basis] @ inside
                           + e.T_xN).iterations == 0
    tree = OptimalBases(eng)
    assert tree.root.snap.basis.tobytes() == e.snap.basis.tobytes()
    assert tree.root.B_inv.tobytes() == e.B_inv.tobytes()
    return tree


def _root_answer(eng, e, b):
    """The answer to b of a tree rooted at node e's basis when its root
    gives it; None otherwise."""
    tree = _rooted_at(eng, e)
    x = tree.lookup(b)
    return x if tree.n_answers[0] else None


def _move_basic_value(e, b, j, target):
    """b with one entry changed so that node e's basic value j, as the
    node computes it, is exactly target; None when no nearby b gives it.
    Rows that only j's value depends on are tried first, then the others,
    each by a Newton step and a walk of single ulps."""
    own = np.count_nonzero(e.B_inv, axis=0) == 1
    rows = [r for r in np.argsort(~own, kind="stable")
            if abs(e.B_inv[j, r]) > 1e-3]
    for r in rows[:4]:
        moved = b.copy()
        for _ in range(3):
            value = (e.B_inv @ (moved - e.T_xN))[j]
            moved[r] += (target - value) / e.B_inv[j, r]
        for _ in range(64):
            value = (e.B_inv @ (moved - e.T_xN))[j]
            if value == target:
                return moved
            up = (target - value) * e.B_inv[j, r] > 0
            moved[r] = np.nextafter(moved[r], np.inf if up else -np.inf)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lookup_answers_exactly_when_zero_pivots_suffice(data):
    """One scan per node: a right-hand side puts one basic value at its
    bound, at TOL_FEAS beyond it or one ulp further.  A tree rooted at the
    node answers from its root exactly when a re-solve from its basis is
    optimal in zero pivots, with that re-solve's bytes, which are also
    those of the full-length copy-and-scatter assembly."""
    dcopf, nodes, answered = _mesh10_tree()
    eng = dcopf.engine
    i = data.draw(st.integers(0, len(answered) - 1), label="node")
    e = nodes[i]
    b = data.draw(st.sampled_from(answered[i]), label="draw")
    j = data.draw(st.integers(0, eng.m - 1), label="basic position")
    side = data.draw(st.sampled_from(["lower", "upper"]))
    bound, away = ((e.L_B[j], -np.inf) if side == "lower"
                   else (e.U_B[j], np.inf))
    assume(np.isfinite(bound))
    beyond = bound + (TOL_FEAS if side == "upper" else -TOL_FEAS)
    target = data.draw(st.sampled_from(
        [bound, beyond, np.nextafter(beyond, away)]), label="target")
    b = _move_basic_value(e, b, j, target)
    assume(b is not None)
    x = _root_answer(eng, e, b)
    eng.restore(e.snap, e.B_inv)
    want = eng.resolve_rhs(b)
    assert (x is not None) == (want.status is LpStatus.OPTIMAL
                               and want.iterations == 0)
    if x is not None:
        assert x.tobytes() == want.x.tobytes()
        x_B = e.B_inv @ (b - e.T_xN)
        full = e.x_N.copy()
        full[e.snap.basis] = x_B
        assert x.tobytes() == full[:eng.n].tobytes()


def test_lookup_boundary_cases_go_both_ways():
    """The targets of the property above are reached exactly, and put a
    value at TOL_FEAS beyond its bound on both sides of the test: the
    root's one scan and the engine's dual simplex decide alike there."""
    dcopf, nodes, answered = _mesh10_tree()
    eng = dcopf.engine
    seen = set()
    for e, rhs in zip(nodes, answered):
        for j in range(eng.m):
            for bound, sign in ((e.L_B[j], -1.0), (e.U_B[j], 1.0)):
                if not np.isfinite(bound):
                    continue
                b = _move_basic_value(e, rhs[0], j, bound + sign * TOL_FEAS)
                if b is None:
                    continue
                x = _root_answer(eng, e, b)
                eng.restore(e.snap, e.B_inv)
                want = eng.resolve_rhs(b)
                assert (x is not None) == (want.status is LpStatus.OPTIMAL
                                           and want.iterations == 0)
                seen.add(x is not None)
    assert seen == {True, False}


def _one_start(seed=11, q=8):
    """An engine at an optimal basis, its snapshot, and q objectives:
    the first the engine's own, the others random."""
    rng = np.random.default_rng(seed)
    p = random_bounded_lp(rng, n=8, m=12)
    eng = SimplexEngine(p)
    assert eng.solve()
    C = rng.normal(size=(q, 8))
    C[0] = p.c
    return eng, eng.snapshot(), C


def test_shared_start_is_inverted_once(monkeypatch):
    # members that share one snapshot object share its refactorization and
    # x, then pivot on inverses of their own: each gives the bytes of its
    # solve one by one, and refactorizations count the inversions done
    import copy

    from nkscreen.lp import _Batch

    eng, snap, C = _one_start()
    ref = copy.deepcopy(eng)
    want = []
    for c in C:
        ref.restore(snap)
        want.append(ref.resolve_objective(c))
    shapes = recorded_inversions(monkeypatch, [eng])
    before = eng.n_refactors
    got = eng.solve_each(C, [snap] * len(C))
    stacks = [shape for shape, _ in shapes]
    k = int(np.count_nonzero(snap.basis < eng.n))
    assert stacks[0] == (1, k, k)
    assert eng.n_batched == len(C)
    assert eng.n_refactors - before == sum(s[0] for s in stacks)
    for (sol, _), w in zip(got, want):
        for field in ("x", "duals", "reduced_costs"):
            assert getattr(sol, field).tobytes() == getattr(w, field).tobytes()
        assert sol.objective == w.objective
        assert sol.iterations == w.iterations
    assert got[0][0].iterations == 0 and max(s.iterations for s, _ in got) > 0
    # a pivot in one member leaves the others' inverses as they were: the
    # member that takes none keeps the exact inverse of the start
    batch = _Batch(eng, C, [snap] * len(C))
    assert batch.pivots[1:].any() and batch.pivots[0] == 0
    assert batch.B[0].tobytes() == \
        eng._block_inverses(snap.basis[None])[0][0].tobytes()


def test_bound_flips_alone_give_the_bytes_of_the_solve_one_by_one():
    # max c.x  s.t.  x1 + x2 + x3 <= 10,  x1 - x3 <= 0.5,  0 <= x <= 1:
    # the optimum of c = (1, 1, 1) has every x at its upper bound; from it,
    # flipping the signs of c's first two entries moves x1 and x2 to their
    # lower bounds by bound flips alone, which keep the basis
    import copy

    from nkscreen.lp import _Batch

    p = LpProblem(c=np.ones(3), A=np.array([[1.0, 1.0, 1.0],
                                            [1.0, 0.0, -1.0]]),
                  b=np.array([10.0, 0.5]), lb=np.zeros(3), ub=np.ones(3))
    eng = SimplexEngine(p)
    assert eng.solve()
    snap = eng.snapshot()
    C = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [-1.0, -1.0, 1.0]])
    ref = copy.deepcopy(eng)
    want = []
    for c in C:
        ref.restore(snap)
        want.append(ref.resolve_objective(c))
    assert [w.iterations for w in want] == [0, 1, 2]
    batch = _Batch(eng, C, [snap] * len(C))
    assert batch.done.all() and batch.pivots.tolist() == [0, 1, 2]
    assert all(np.array_equal(basis, snap.basis) for basis in batch.basis)
    # the shared start is inverted once, and each member that pivoted once
    # more by its polish, to the bytes it had
    assert batch.inverted.tolist() == [1, 1, 1]
    assert batch.B[2].tobytes() == batch.B[0].tobytes()
    for (sol, _), w in zip(eng.solve_each(C, [snap] * len(C)), want):
        same_bytes(sol, w)
        assert sol.iterations == w.iterations


def test_distinct_starts_are_inverted_as_they_come(monkeypatch):
    # snapshots are grouped by object, not by content: equal copies are
    # inverted each, as one stack, into the batch's own array
    from nkscreen.lp import BasisSnapshot, _Batch

    eng, snap, C = _one_start()
    snaps = [BasisSnapshot(snap.basis.copy(), snap.vstat.copy()) for _ in C]
    seen, block_inverses = [], SimplexEngine._block_inverses

    def spy(self, basis):
        out = block_inverses(self, basis)
        seen.append((len(basis), out[0]))
        return out

    monkeypatch.setattr(SimplexEngine, "_block_inverses", spy)
    batch = _Batch(eng, C, snaps)
    assert seen[0][0] == len(C) and batch.B is seen[0][1]
    first = len(seen)
    shared = _Batch(eng, C, [snap] * len(C))
    assert seen[first][0] == 1 and shared.B is not seen[first][1]
