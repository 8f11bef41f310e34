import itertools
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nkscreen.grid import (
    DcopfSolver,
    IslandingError,
    Network,
    is_islanding,
    load_network,
    ptdf,
)
from nkscreen.lp import LpStatus, SimplexEngine, solve_highs

from helpers import (PairedRowsDcopf, incidence_matrix, is_islanding_bfs,
                     mesh5, ptdf_by_products, ring3, two_bus)

CASE39 = Path(__file__).resolve().parent.parent / "src" / "nkscreen" / "cases" / "case39.json"


def test_incidence_two_bus():
    C = incidence_matrix(two_bus())
    assert C.shape == (2, 1)
    assert C[0, 0] == 1.0 and C[1, 0] == -1.0


def test_incidence_columns_sum_to_zero():
    C = incidence_matrix(ring3())
    assert np.all(C.sum(axis=0) == 0)
    assert np.count_nonzero(C) == 2 * 3


def test_ptdf_ring_split():
    # unit injection at bus 0, withdrawal at bus 2: direct line carries 2/3,
    # the two-hop path 0-1-2 carries 1/3
    net = ring3()
    keep, H = ptdf(net)
    x = np.array([1.0, 0.0, -1.0])
    f = H @ x
    assert f[2] == pytest.approx(2.0 / 3.0)
    assert f[0] == pytest.approx(1.0 / 3.0)
    assert f[1] == pytest.approx(1.0 / 3.0)


def test_ptdf_two_bus():
    keep, H = ptdf(two_bus())
    f = H @ np.array([1.0, -1.0])
    assert f[0] == pytest.approx(1.0)


def test_ptdf_annihilates_constants():
    net = ring3()
    _, H = ptdf(net)
    for kappa in (1.0, -3.7, 100.0):
        assert np.abs(H @ (kappa * np.ones(net.n))).max() < 1e-12


def test_ptdf_matches_angle_flows():
    # flows from PTDF equal flows from solving the angle equations directly
    rng = np.random.default_rng(3)
    net = ring3()
    keep, H = ptdf(net)
    C = incidence_matrix(net)
    L = (C * net.susceptance) @ C.T
    for _ in range(50):
        x = rng.normal(size=3)
        x -= x.mean()  # balanced injection
        theta = np.zeros(3)
        idx = np.arange(3) != net.slack
        theta[idx] = np.linalg.solve(L[np.ix_(idx, idx)], x[idx])
        f_angle = net.susceptance * (C.T @ theta)
        assert np.abs(H @ x - f_angle).max() < 1e-8


def test_ptdf_with_outage():
    net = ring3()
    keep, H = ptdf(net, outages=(0,))
    assert list(keep) == [1, 2]
    # without line 0-1, injection at 0 withdrawn at 2 all flows on the direct line
    f = H @ np.array([1.0, 0.0, -1.0])
    assert f[1] == pytest.approx(1.0)  # line 0-2


def test_ptdf_islanding_raises():
    with pytest.raises(IslandingError):
        ptdf(ring3(), outages=(0, 2))


def test_is_islanding():
    net = ring3()
    assert not is_islanding(net, (0,))
    assert not is_islanding(net, (1,))
    assert is_islanding(net, (0, 2))
    assert not is_islanding(net, ())


def _all_sets(net, k):
    return [np.array(list(itertools.combinations(range(net.m), size)),
                     dtype=np.intp).reshape(-1, size)
            for size in range(1, k + 1)]


@pytest.mark.parametrize("name,k", [("two_bus", 1), ("ring3", 3), ("mesh5", 3),
                                    ("case39", 2)])
def test_batched_islanding_matches_bfs(name, k):
    net = load_network(CASE39) if name == "case39" else {
        "two_bus": two_bus, "ring3": ring3, "mesh5": mesh5}[name]()
    n_split = 0
    for sets in _all_sets(net, k):
        got = is_islanding(net, sets)
        want = np.array([is_islanding_bfs(net, c) for c in sets])
        assert got.dtype == bool and got.shape == (len(sets),)
        assert np.array_equal(got, want)
        assert [is_islanding(net, c) for c in sets[:5]] == list(want[:5])
        n_split += int(want.sum())
    # the networks have sets of both kinds
    assert n_split > 0


def _random_graph(n, seed):
    """A random tree over all buses but the isolated one, plus chords and
    parallel copies of its lines; one bus goes unconnected in every fourth
    graph.  Not validated: a graph with an isolated bus is not connected."""
    rng = np.random.default_rng(seed)
    tree = rng.permutation(n)[1 if seed % 4 == 3 else 0:]
    lines = [(tree[i], tree[int(rng.integers(i))]) for i in range(1, len(tree))]
    for _ in range(n // 3):
        f, t = rng.choice(tree, size=2, replace=False)
        lines.append((f, t))
    lines += [lines[i] for i in rng.integers(len(lines), size=max(1, n // 10))]
    lines = np.array(lines)[rng.permutation(len(lines))]
    m = len(lines)
    return Network(name=f"random{n}", n=n, lines=lines,
                   susceptance=np.ones(m), f_lower=-np.ones(m),
                   f_upper=np.ones(m), pmin=np.zeros(n), pmax=np.zeros(n),
                   cost=np.zeros(n), demand=np.zeros(n), slack=0)


@pytest.mark.parametrize("n", [3, 39, 64, 65, 150])
@pytest.mark.parametrize("seed", range(4))
def test_islanding_matches_bfs_on_random_graphs(n, seed):
    """One word per 64 buses: 64 buses fill one word, 65 and 150 spill into
    a second and a third."""
    net = _random_graph(n, seed)
    rng = np.random.default_rng(seed)
    split = 0
    for k in (1, 2, 3):
        sets = np.array([rng.choice(net.m, size=k, replace=False)
                         for _ in range(300)])
        got = is_islanding(net, sets)
        want = np.array([is_islanding_bfs(net, c) for c in sets])
        assert np.array_equal(got, want)
        split += int(want.sum())
    assert is_islanding(net, ()) == is_islanding_bfs(net, ())
    assert 0 < split < 900 or seed % 4 == 3


def test_case39_islanding_sets_per_size():
    net = load_network(CASE39)
    assert [int(is_islanding(net, sets).sum())
            for sets in _all_sets(net, 3)] == [11, 473, 9774]


def test_islanding_of_every_line_out():
    net = mesh5()
    assert is_islanding(net, np.arange(net.m))
    assert is_islanding(net, np.arange(net.m)[None, :]).tolist() == [True]


@pytest.mark.parametrize("name", ["mesh5", "case39"])
def test_single_ptdf_equals_its_slice_of_the_stack(name):
    net = load_network(CASE39) if name == "case39" else mesh5()
    for sets in _all_sets(net, 2):
        sets = sets[~is_islanding(net, sets)]
        keep, H = ptdf(net, sets)
        assert keep.shape == (len(sets), net.m - sets.shape[1])
        assert H.shape == keep.shape + (net.n,)
        for c, kc, Hc in zip(sets.tolist(), keep, H):
            k1, H1 = ptdf(net, tuple(c))
            assert np.array_equal(k1, kc)
            assert H1.tobytes() == Hc.tobytes()


def _assert_ptdf_equals_products(net, sets, ascending=False):
    keep, H = ptdf(net, sets)
    keep_ref, H_ref = ptdf_by_products(net, sets, ascending)
    assert np.array_equal(keep, keep_ref)
    assert H.tobytes() == H_ref.tobytes()
    return H


def test_assembled_ptdf_equals_products_on_case39():
    # every stack of case39 at k = 2 (35 + 562 sets), and the base topology
    net = load_network(CASE39)
    n_sets = 0
    for sets in _all_sets(net, 2):
        sets = sets[~is_islanding(net, sets)]
        n_sets += len(sets)
        _assert_ptdf_equals_products(net, sets)
    assert n_sets == 597
    _assert_ptdf_equals_products(net, ())
    assert DcopfSolver(net).H.tobytes() == ptdf_by_products(net)[1].tobytes()


@pytest.mark.parametrize("n", [6, 17, 40])
@pytest.mark.parametrize("seed", range(3))
def test_assembled_ptdf_equals_products_on_random_meshes(n, seed):
    # parallel lines and buses of degree >= 4 make sums of several rounded
    # terms, whose order decides the bytes: the assembly sums in ascending
    # line order.  The dense products sum in the BLAS kernel's order, which
    # at some sizes is another (OpenBLAS's at 17 buses), so against them
    # the stack is only close
    rng = np.random.default_rng(seed)
    net = _random_graph(n, seed)      # connected: seed % 4 != 3
    net = replace(net, susceptance=rng.uniform(0.3, 30.0, size=net.m),
                  slack=int(rng.integers(n))).validate()
    degree = np.bincount(net.lines.ravel(), minlength=n)
    assert degree.max() >= 4
    assert len(np.unique(np.sort(net.lines, axis=1), axis=0)) < net.m
    stacks = [()] + [np.array([rng.choice(net.m, size=k, replace=False)
                               for _ in range(80)]) for k in (1, 2, 3)]
    for sets in stacks:
        if len(sets):
            sets = sets[~is_islanding(net, sets)]
        H = _assert_ptdf_equals_products(net, sets, ascending=True)
        assert np.allclose(H, ptdf_by_products(net, sets)[1], rtol=0.0,
                           atol=1e-12)


def test_ptdf_stack_checks_every_member():
    net = mesh5()
    with pytest.raises(IslandingError):
        ptdf(net, [[0, 1], [3, 4]])   # lines 3 and 4 are bus 4's only ones
    with pytest.raises(ValueError):
        ptdf(net, [[0, 0], [0, 1]])   # removes one line, then two


def test_incidence_matrix_batched():
    net = mesh5()
    subsets = np.array([[0, 2, 4], [1, 5, 6]])
    C = incidence_matrix(net, subsets)
    assert C.shape == (2, net.n, 3)
    for Cs, s in zip(C, subsets):
        assert np.array_equal(Cs, incidence_matrix(net, s))
        assert np.array_equal(Cs, incidence_matrix(net)[:, s])


def test_dcopf_two_bus():
    solver = DcopfSolver(two_bus())
    r = solver.solve()
    assert r.status is LpStatus.OPTIMAL
    assert r.p[0] == pytest.approx(100.0)
    assert r.p[1] == pytest.approx(0.0)
    assert r.cost == pytest.approx(1000.0)
    assert (solver.H @ r.injection)[0] == pytest.approx(100.0)


def test_dcopf_zero_demand():
    net = two_bus()
    r = DcopfSolver(net).solve(np.zeros(2))
    assert r.cost == pytest.approx(0.0)
    assert np.abs(r.p).max() == pytest.approx(0.0)


def test_dcopf_infeasible_when_line_too_small():
    net = two_bus(limit=50.0)
    r = DcopfSolver(net).solve()
    assert r.status is LpStatus.INFEASIBLE


def test_dcopf_prefers_cheap_generator():
    net = ring3(demand=(0.0, 0.0, 3.0))
    r = DcopfSolver(net).solve()
    assert r.p[0] == pytest.approx(3.0)  # bus 0 is cheaper
    assert r.cost == pytest.approx(3.0)


def test_dcopf_respects_constraints_on_random_instances():
    net = ring3(limits=(2.0, 2.0, 2.0))
    rng = np.random.default_rng(7)
    solver = DcopfSolver(net)
    n_ok = 0
    for _ in range(100):
        d = np.abs(rng.normal(scale=2.0, size=3))
        r = solver.solve(d)
        if r.status is not LpStatus.OPTIMAL:
            continue
        n_ok += 1
        assert np.sum(r.p - d) == pytest.approx(0.0, abs=1e-7)
        assert np.all(r.p >= net.pmin - 1e-7)
        assert np.all(r.p <= net.pmax + 1e-7)
        flows = solver.H @ r.injection
        assert np.all(flows <= net.f_upper + 1e-6)
        assert np.all(flows >= net.f_lower - 1e-6)
    assert n_ok > 50


def test_dcopf_balance_dual_is_the_highs_equality_marginal(monkeypatch):
    """The power balance is a row of width 0: HiGHS takes it as its one
    equality row, and the engine's dual of it is HiGHS's marginal of that
    row, the system price, over case39 draws."""
    import scipy.optimize

    net = load_network(CASE39)
    lp = DcopfSolver(net)
    linprog, seen = scipy.optimize.linprog, []

    def recording(*args, **kwargs):
        seen.append(kwargs["A_eq"])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", recording)
    rng = np.random.default_rng(3)
    for scale in rng.uniform(0.8, 1.05, size=8):
        p = lp.problem(net.demand * scale)
        a, h = SimplexEngine(p).solve(), solve_highs(p)
        assert a.status is h.status is LpStatus.OPTIMAL
        assert np.array_equal(seen[-1], np.ones((1, net.n)))
        assert a.duals[-1] == pytest.approx(h.duals[-1], rel=1e-9, abs=1e-9)
        assert a.objective == pytest.approx(h.objective, rel=1e-9)


def test_dcopf_warm_solver_matches_one_shot():
    net = ring3(limits=(1.5, 1.5, 1.5))
    rng = np.random.default_rng(11)
    solver = DcopfSolver(net)
    for _ in range(30):
        d = np.abs(rng.normal(scale=1.5, size=3))
        a = solver.solve(d)
        b = DcopfSolver(net).solve(d)
        assert a.status is b.status
        if a.status is LpStatus.OPTIMAL:
            assert a.cost == pytest.approx(b.cost, abs=1e-7)


def test_dcopf_flows_are_those_of_the_solved_demand():
    """Flows from the injection stored at the solve have the bytes of
    H @ (p - d), also after the caller overwrites its demand in place;
    answers from the tree of bases and engine re-solves alike (the latter
    from a solver whose nominal demand is infeasible, so that its tree has
    no root)."""
    from dataclasses import replace

    from nkscreen.datagen import DemandSampler, sample_demands

    net = load_network(CASE39)
    tree, rootless = (DcopfSolver(net),
                      DcopfSolver(replace(net, demand=3.0 * net.demand)))
    for solver in (tree, rootless):
        demands = sample_demands(DemandSampler(net.demand, rel_std=0.15,
                                               seed=3), 200)
        for d in demands:
            r = solver.solve(d)
            want = solver.H @ (r.p - d)
            d[:] = 0.0
            assert (solver.H @ r.injection).tobytes() == want.tobytes()
    assert sum(tree.counters()["answers_by_hops"]) > 0
    assert rootless.bases.root is None
    assert rootless.counters()["resolves"] == 200


@pytest.mark.parametrize("scale, rel_std", [(0.9, 0.15), (1.0, 0.15),
                                            (1.04, 0.15), (1.1, 0.15),
                                            (1.0, 0.3)])
def test_dcopf_answers_do_not_depend_on_draw_order(scale, rel_std):
    """Seeded case39 draws, in order and shuffled, each on a fresh solver,
    give the same status and dispatch bytes, and so does the engine's
    re-solve of each from the nominal basis and its inverse."""
    from nkscreen.datagen import DemandSampler, sample_demands

    net = load_network(CASE39)
    demands = sample_demands(DemandSampler(net.demand * scale,
                                           rel_std=rel_std, seed=5), 400)
    ref = DcopfSolver(net)
    want = []
    for d in demands:
        ref.bases.install()
        sol = ref.engine.resolve_rhs(ref.rhs(d))
        want.append((sol.status, sol.x.tobytes() if sol else None))
    rng = np.random.default_rng(int(100 * scale + 10 * rel_std))
    for order in (np.arange(len(demands)), rng.permutation(len(demands)),
                  rng.permutation(len(demands))):
        solver = DcopfSolver(net)
        got = [None] * len(demands)
        for i in order:
            r = solver.solve(demands[i])
            got[i] = (r.status, r.p.tobytes() if r else None)
        assert got == want
        hops = solver.counters()["answers_by_hops"]
        assert sum(hops[1:]) > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("warm", [False, True])
def test_dcopf_rejects_non_finite_demand(bad, warm):
    """A demand with a NaN or infinite entry raises ValueError, from a fresh
    solver and from one that has answered a draw, and counts no draw."""
    net = load_network(CASE39)
    solver = DcopfSolver(net)
    if warm:
        assert solver.solve()
    d = net.demand.copy()
    d[7] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        solver.solve(d)
    assert solver.counters()["draws"] == int(warm)
    assert solver.solve().p.tobytes() == DcopfSolver(net).solve().p.tobytes()


@pytest.mark.parametrize("rel_std", [0.15, 0.3])
def test_dcopf_dispatch_bytes_equal_two_row_formulation(rel_std):
    """One ranged row per line gives the dispatches of the 93-row LP, the
    dataset's bytes, bit for bit on 2,000 warm case39 draws."""
    from nkscreen.datagen import DemandSampler, sample_demands

    net = load_network(CASE39)
    ranged, paired = DcopfSolver(net), PairedRowsDcopf(net)
    assert (ranged.engine.m, paired.engine.m) == (47, 93)
    demands = sample_demands(DemandSampler(net.demand, rel_std=rel_std,
                                           seed=0), 2000)
    for d in demands:
        a, b = ranged.solve(d), paired.solve(d)
        assert a.status is b.status
        if a:
            assert a.p.tobytes() == b.x.tobytes()


def test_load_case39():
    net = load_network(CASE39)
    assert net.n == 39
    assert net.m == 46
    assert len(net.gen_buses) == 10
    assert net.demand.sum() == pytest.approx(6254.23)
    assert net.pmax.sum() == pytest.approx(7367.0)
    assert net.slack == 30
    assert np.all(net.f_upper == 1600.0)
    assert np.all(net.cost[net.gen_buses] >= 10.0)
    assert np.all(net.cost[net.gen_buses] <= 50.0)
    # nominal case is feasible
    assert DcopfSolver(net).solve().status is LpStatus.OPTIMAL


def test_load_network_validation_errors():
    net = load_network(CASE39)
    raw = json.loads(CASE39.read_text())
    bad = dict(raw)
    bad["slack_bus"] = 99
    with pytest.raises(ValueError):
        load_network(bad)
    bad = json.loads(CASE39.read_text())
    bad["lines"][0]["susceptance"] = -1.0
    with pytest.raises(ValueError):
        load_network(bad)
    bad = json.loads(CASE39.read_text())
    del bad["generators"]
    with pytest.raises(ValueError):
        load_network(bad)
    bad = json.loads(CASE39.read_text())
    bad["lines"][0]["limit_mw"] = -5.0
    with pytest.raises(ValueError):
        load_network(bad)
    assert net.validate() is net


@pytest.mark.parametrize("entries, index, key", [
    ("lines", 3, "limit_mw"), ("lines", 0, "susceptance"),
    ("generators", 2, "cost_per_mw"), ("generators", 0, "pmax_mw")])
def test_load_network_names_a_missing_key(entries, index, key):
    raw = json.loads(CASE39.read_text())
    del raw[entries][index][key]
    what = {"lines": "line", "generators": "generator"}[entries]
    with pytest.raises(ValueError, match=f"{what} {index} is missing .*{key}"):
        load_network(raw)


def test_disconnected_network_rejected():
    with pytest.raises(ValueError):
        Network(
            name="broken",
            n=4,
            lines=np.array([[0, 1], [2, 3]]),
            susceptance=np.ones(2),
            f_lower=-np.ones(2),
            f_upper=np.ones(2),
            pmin=np.zeros(4),
            pmax=np.ones(4),
            cost=np.ones(4),
            demand=np.zeros(4),
            slack=0,
        ).validate()
