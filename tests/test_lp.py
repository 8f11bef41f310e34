import itertools

import numpy as np
import pytest

from nkscreen.lp import (
    TOL_COMP,
    TOL_FEAS,
    LpProblem,
    LpSolution,
    LpStatus,
    SimplexEngine,
    solve,
)


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
    for i, r in enumerate(p.rel):
        if r == "=":
            assert abs(resid[i]) <= 1e-6
        else:
            assert resid[i] <= TOL_FEAS * max(1.0, abs(p.b[i]))
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
    p = LpProblem(c=[1.0], A=[[-1.0]], b=[0.0])
    assert solve(p).status is LpStatus.UNBOUNDED


def test_infeasible():
    p = LpProblem(c=[0.0], A=[[1.0], [-1.0]], b=[1.0, -2.0])
    assert solve(p).status is LpStatus.INFEASIBLE


def test_equality_row():
    # max x + y s.t. x + y = 1, x,y in [0, 1]
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0], rel=["="], lb=[0, 0], ub=[1, 1])
    s = solve(p)
    assert s.objective == pytest.approx(1.0)


def test_fixed_variable_respected():
    p = LpProblem(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[10.0], lb=[2.0, 0.0], ub=[2.0, 3.0])
    s = solve(p)
    assert s.x[0] == pytest.approx(2.0)
    assert s.x[1] == pytest.approx(3.0)


def test_free_variable_interior_optimum():
    # max -|x| style: min distance encoded via two rows; optimum at x = 0.5 interior
    p = LpProblem(c=[0.0, -1.0], A=[[1.0, -1.0], [-1.0, -1.0]], b=[0.5, -0.5])
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
        LpProblem(c=[1.0, 2.0], A=[[1.0, 2.0]], b=[1.0], rel=["<=", "<="])


@pytest.mark.parametrize("seed", range(60))
def test_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(1000 + seed)
    p = random_bounded_lp(rng)
    s = solve(p, backend="simplex")
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
    s = solve(p, backend="simplex")
    ref = vertex_enumeration_max(p.c, p.A, p.b, p.lb, p.ub)
    assert s.objective == pytest.approx(ref, abs=1e-6)


@pytest.mark.parametrize("seed", range(30))
def test_simplex_agrees_with_highs(seed):
    rng = np.random.default_rng(2000 + seed)
    p = random_bounded_lp(rng, n=int(rng.integers(2, 7)), m=int(rng.integers(2, 9)))
    a = solve(p, backend="simplex")
    h = solve(p, backend="highs")
    assert a.status is h.status is LpStatus.OPTIMAL
    assert a.objective == pytest.approx(h.objective, abs=1e-7 * max(1, abs(h.objective)))


def test_equality_rows_against_highs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m_in, m_eq = 4, 3, 2
        A = rng.normal(size=(m_in + m_eq, n))
        x0 = rng.uniform(-1, 1, size=n)
        b = np.concatenate([A[:m_in] @ x0 + rng.uniform(0.1, 1.0, size=m_in), A[m_in:] @ x0])
        rel = ["<="] * m_in + ["="] * m_eq
        p = LpProblem(c=rng.normal(size=n), A=A, b=b, rel=rel, lb=x0 - 2, ub=x0 + 2)
        a = solve(p, backend="simplex")
        h = solve(p, backend="highs")
        assert a.status is h.status is LpStatus.OPTIMAL
        assert a.objective == pytest.approx(h.objective, abs=1e-7)
        check_kkt(p, a)


def test_determinism_bitwise():
    rng = np.random.default_rng(42)
    p = random_bounded_lp(rng, n=4, m=5)
    s1 = solve(p, backend="simplex")
    s2 = solve(p, backend="simplex")
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
        cold = solve(
            LpProblem(c=c_new, A=p.A, b=p.b, rel=p.rel, lb=p.lb, ub=p.ub),
            backend="simplex",
        )
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
        cold = solve(
            LpProblem(c=base.c, A=base.A, b=b_new, rel=base.rel, lb=base.lb, ub=base.ub),
            backend="simplex",
        )
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
        cold = solve(
            LpProblem(c=p.c, A=A_new, b=p.b, rel=p.rel, lb=p.lb, ub=p.ub),
            backend="simplex",
        )
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
        s = solve(pp, backend="simplex")
        ref = vertex_enumeration_max(p.c, p.A, p.b, p.lb, p.ub)
        assert s.objective == pytest.approx(ref, abs=1e-6)


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


def test_restore_rejects_foreign_snapshot():
    rng = np.random.default_rng(23)
    eng = SimplexEngine(random_bounded_lp(rng, n=3, m=2))
    other = SimplexEngine(random_bounded_lp(rng, n=3, m=4))
    with pytest.raises(ValueError):
        eng.restore(other.snapshot())
