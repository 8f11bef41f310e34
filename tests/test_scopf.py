"""Security-constrained dispatch tests, both formulations."""

import copy
import csv
import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from nkscreen.artifacts import canonical_json
from nkscreen.cli import resolve_case
from nkscreen.datagen import DemandSampler, sample_demands, sample_injections
from nkscreen.grid import DcopfSolver, DispatchLp, load_network
from nkscreen.icnn import (IcnnParams, ScaledClassifier, forward, init_params,
                           raw_forward)
from nkscreen.lp import LpProblem, LpStatus, SimplexEngine, solve, solve_highs
from nkscreen.oracle import scale_fast
from nkscreen.region import (build_region, drop_constant_dims,
                             eliminate_redundant, filter_contingencies,
                             standardize, standardize_points, with_box)
from nkscreen.scopf import (
    Dispatcher,
    benchmark_scopf,
    icnn_dispatch_problem,
    region_inequalities,
    save_benchmark,
    solve_scopf_full,
    solve_scopf_icnn,
)

from helpers import (fixed_start_dcopf, paired_rows, record_pivots, ring3,
                     tree_nodes)


def l1_ball_net3(radius=1.0, box=5.0):
    """Depth-1 network with raw(x) = |x0| + |x1| + |x2| - radius."""
    D0 = np.vstack([np.eye(3), -np.eye(3)])
    return IcnnParams(
        W=[np.ones((1, 6))],
        D=[D0, np.zeros((1, 3))],
        b=[np.zeros(6), np.array([-radius])],
        box_lower=np.full(3, -box),
        box_upper=np.full(3, box),
    )


def l1_ball_net2(radius=1.0, box=5.0):
    """Same shape in two dimensions (width 4)."""
    D0 = np.vstack([np.eye(2), -np.eye(2)])
    return IcnnParams(
        W=[np.ones((1, 4))],
        D=[D0, np.zeros((1, 2))],
        b=[np.zeros(4), np.array([-radius])],
        box_lower=np.full(2, -box),
        box_upper=np.full(2, box),
    )


def redispatch_net():
    """Ring where the security rows force generation onto the pricier bus.

    Demand (0, 0.5, 0.7) with all limits 0.8: losing a line makes bus 0
    export its entire output over one path, so p0 <= 0.8 and the optimum is
    p = (0.8, 0.4, 0) at cost 1.6 versus the unconstrained dispatch cost 1.2.
    """
    return ring3(limits=(0.8, 0.8, 0.8), demand=(0.0, 0.5, 0.7))


class TestFullScopf:
    def test_no_region_reduces_to_dcopf(self):
        net = redispatch_net()
        res = solve_scopf_full(net, net.demand, None)
        base = DcopfSolver(net).solve()
        assert res.formulation == "dcopf"
        assert res
        assert abs(res.cost - base.cost) <= 1e-9

    def test_no_region_builds_the_dcopf_lp(self, monkeypatch):
        """Without a region the full formulation is DcopfSolver's LP: the
        same matrix, right-hand side and ranged rows, one per line."""
        import nkscreen.scopf as scopf_mod

        net = load_network(resolve_case("case39"))
        dcopf = DcopfSolver(net)
        assert dcopf.engine.m == net.m + 1
        built = []
        monkeypatch.setattr(scopf_mod, "solve",
                            lambda p: built.append(p) or solve(p))
        d = 1.02 * net.demand
        solve_scopf_full(net, d, None)
        (p,) = built
        eng = dcopf.engine
        assert np.array_equal(eng.T[:, :eng.n], p.A)
        assert np.array_equal(dcopf.rhs(d), p.b)
        assert np.array_equal(eng.U[eng.n:],
                              np.where(p.rel == "=", 0.0, p.ranges))

    def test_slack_region_keeps_dcopf_cost(self):
        net = redispatch_net()
        region = build_region(net, k=1)
        loose = type(region)(**{**region.__dict__, "b": region.b + 100.0})
        res = solve_scopf_full(net, net.demand, loose)
        assert abs(res.cost - DcopfSolver(net).solve().cost) <= 1e-9

    def test_small_demand_keeps_dcopf_cost(self):
        # shrinking demand toward zero leaves the security rows slack
        net = redispatch_net()
        region = build_region(net, k=1)
        demand = 0.3 * net.demand
        res = solve_scopf_full(net, demand, region)
        base = DcopfSolver(net).solve(demand)
        assert res
        assert abs(res.cost - base.cost) <= 1e-9

    def test_hand_computed_redispatch(self):
        net = redispatch_net()
        region = build_region(net, k=1)
        res = solve_scopf_full(net, net.demand, region)
        assert res.formulation == "full"
        assert abs(res.cost - 1.6) <= 1e-6
        assert np.allclose(res.p, [0.8, 0.4, 0.0], atol=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("with_region", [False, True])
    def test_non_finite_demand_rejected(self, bad, with_region):
        net = redispatch_net()
        region = build_region(net, k=1) if with_region else None
        d = net.demand.copy()
        d[1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            solve_scopf_full(net, d, region)

    def test_cost_dominates_dcopf(self):
        net = redispatch_net()
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, rel_std=0.05, seed=1)
        for d in sample_demands(sampler, 8):
            full = solve_scopf_full(net, d, region)
            base = DcopfSolver(net).solve(d)
            if full:
                assert full.cost >= base.cost - 1e-9

    def test_unsavable_demand_infeasible(self):
        # any single outage routes the whole 1.3 load over a 1.1-limit line
        net = ring3(limits=(1.1, 1.1, 1.1))
        region = build_region(net, k=1)
        res = solve_scopf_full(net, np.array([0.0, 0.0, 1.3]), region)
        assert not res
        assert res.status is LpStatus.INFEASIBLE
        assert res.p is None and res.cost is None
        assert DcopfSolver(net).solve(np.array([0.0, 0.0, 1.3]))

    def test_standardized_region_same_optimum(self):
        # standardization is an exact affine row rewrite, so when no
        # dimension is folded away the dispatch problem is unchanged
        net = ring3(limits=(2.0, 2.0, 2.0), demand=(0.0, 0.5, 0.7))
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, rel_std=0.1, seed=3)
        demands = sample_demands(sampler, 40)
        X = np.array([DcopfSolver(net).solve(d).p - d for d in demands])
        reduced = with_box(drop_constant_dims(region, X), X)
        assert reduced.dim == region.dim
        Xr = reduced.project(X)
        std_region = standardize(reduced, Xr.mean(axis=0), Xr.std(axis=0))
        assert np.array_equal(std_region.membership(X), region.membership(X))
        for d in demands[:4]:
            a = solve_scopf_full(net, d, region)
            b = solve_scopf_full(net, d, std_region)
            assert bool(a) == bool(b)
            if a:
                assert abs(a.cost - b.cost) <= 1e-7

    def test_reduced_region_is_for_labeling_not_dispatch(self):
        # with all demand at one bus the DC-OPF samples never use the second
        # generator, so that injection coordinate is constant and gets
        # folded away; membership of the samples is preserved, but dispatch
        # could move the folded coordinate and admit dispatches the full
        # region forbids, so both dispatch entry points refuse the region
        net = ring3(limits=(1.1, 1.1, 1.1))
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, rel_std=0.1, seed=3)
        demands = sample_demands(sampler, 40)
        X = np.array([DcopfSolver(net).solve(d).p - d for d in demands])
        reduced = with_box(drop_constant_dims(region, X), X)
        assert reduced.dim < region.dim
        Xr = reduced.project(X)
        std_region = standardize(reduced, Xr.mean(axis=0), Xr.std(axis=0))
        assert np.array_equal(std_region.membership(X), region.membership(X))
        match = r"folds injection dimension\(s\) \[1\].*region_full\.npz"
        for folded in (reduced, std_region):
            with pytest.raises(ValueError, match=match):
                solve_scopf_full(net, demands[0], folded)
            with pytest.raises(ValueError, match=match):
                benchmark_scopf(net, demands[:2], folded,
                                ScaledClassifier(params=l1_ball_net2(1.0)))
        assert solve_scopf_full(net, demands[0], region).formulation == "full"


class TestIcnnScopf:
    def test_hand_computed_optimum(self):
        # L1 ball of radius 1.2 in injection coordinates; the cheap bus may
        # contribute only while p0 + |p1 - 0.2| + 0.6 stays within budget
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        clf = ScaledClassifier(params=l1_ball_net3(radius=1.2))
        res = solve_scopf_icnn(net, net.demand, clf)
        assert res.formulation == "icnn"
        assert res
        assert abs(res.cost - 1.0) <= 1e-6
        assert np.allclose(res.p, [0.6, 0.2, 0.0], atol=1e-6)
        base = DcopfSolver(net).solve()
        assert res.cost >= base.cost + 0.1

    def test_dispatch_inside_predicted_set(self):
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        clf = ScaledClassifier(params=l1_ball_net3(radius=1.2))
        res = solve_scopf_icnn(net, net.demand, clf)
        x = res.p - net.demand
        assert clf.decision_values(x)[0] <= 1e-7

    def test_scaling_can_force_infeasibility(self):
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        clf = ScaledClassifier(params=l1_ball_net3(radius=1.2), r=2.0)
        res = solve_scopf_icnn(net, net.demand, clf)
        assert res.status is LpStatus.INFEASIBLE

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_demand_rejected(self, bad):
        # also once the cached LP's engine is warm from a solve
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        clf = ScaledClassifier(params=l1_ball_net3(radius=1.2))
        d = net.demand.copy()
        d[2] = bad
        for _ in range(2):
            with pytest.raises(ValueError, match="NaN or infinite"):
                solve_scopf_icnn(net, d, clf)
            assert solve_scopf_icnn(net, net.demand, clf)

    def test_input_box_enforced(self):
        # tiny training box: dispatches must keep the network input inside it
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        params = l1_ball_net3(radius=1.2, box=0.5)
        clf = ScaledClassifier(params=params)
        res = solve_scopf_icnn(net, net.demand, clf)
        # |x2| = 0.6 exceeds the 0.5 box no matter the dispatch
        assert res.status is LpStatus.INFEASIBLE

    def test_dispatch_stays_in_box_when_scaled_set_reaches_past_it(self):
        # box 0.7 and r = 0.5: the scaled set (S - v) / r reaches to
        # x0 = 1.4, but the certificate covers only the box, so the cheap
        # bus stops at x0 = p0 = 0.7 instead of covering all 0.8 of demand
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        clf = ScaledClassifier(params=l1_ball_net3(radius=1.2, box=0.7),
                               r=0.5)
        res = solve_scopf_icnn(net, net.demand, clf)
        assert res
        x = res.p - net.demand
        assert np.all(np.abs(x) <= 0.7 + 1e-9)
        assert np.allclose(res.p, [0.7, 0.1, 0.0], atol=1e-9)
        assert clf.decision_values(x)[0] <= 1e-7

    def test_affine_transform_matches_sign_enumeration(self):
        # fold of mu/sigma/dim_map/r/v checked against an explicit LP that
        # enumerates the four linearizations of |u0| + |u1| <= radius
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.4, 0.6))
        mu = np.array([0.2, -0.1])
        sigma = np.array([0.5, 2.0])
        dim_map = np.array([0, 2])
        v = np.array([0.1, -0.05])
        r = 1.3
        clf = ScaledClassifier(params=l1_ball_net2(radius=1.0), r=r, v=v,
                               mu=mu, sigma=sigma, dim_map=dim_map)
        got = solve_scopf_icnn(net, net.demand, clf)

        d = net.demand
        rows, rhs = [], []
        for s0 in (1.0, -1.0):
            for s1 in (1.0, -1.0):
                row = np.zeros(3)
                row[0] = s0 * r / sigma[0]
                row[2] = s1 * r / sigma[1]
                const = (s0 * (r * (-d[0] - mu[0]) / sigma[0] + v[0])
                         + s1 * (r * (-d[2] - mu[1]) / sigma[1] + v[1]))
                rows.append(row)
                rhs.append(1.0 - const)
        rows.append(np.ones(3))
        rhs.append(d.sum())
        rel = ["<="] * 4 + ["="]
        ref = solve(LpProblem(c=-net.cost, A=np.array(rows), b=np.array(rhs),
                              rel=rel, lb=net.pmin, ub=net.pmax))
        assert got
        assert ref.status is LpStatus.OPTIMAL
        assert abs(got.cost - float(net.cost @ ref.x)) <= 1e-8
        # and the native-coordinate decision value is nonpositive
        x = got.p - d
        u = (x[dim_map] - mu) / sigma
        assert clf.decision_values(u)[0] <= 1e-7

    def test_transform_width_mismatch_rejected(self):
        net = ring3()
        clf = ScaledClassifier(params=l1_ball_net3(), dim_map=np.array([0, 1]))
        with pytest.raises(ValueError):
            solve_scopf_icnn(net, net.demand, clf)


@pytest.fixture(scope="module")
def case39_setup():
    """case39 with a random depth-1 classifier over standardized injections.

    Seeded DC-OPF injections fix the standardization and the box; the output
    bias puts half of them inside the sublevel set, so the dispatch LPs are
    feasible for some demands and infeasible for others.
    """
    net = load_network(resolve_case("case39"))
    solver = DcopfSolver(net)
    demands = sample_demands(DemandSampler(net.demand, rel_std=0.15, seed=7), 60)
    results = [solver.solve(d) for d in demands]
    demands = np.array([d for d, r in zip(demands, results) if r])
    X = np.array([r.p for r in results if r]) - demands
    keep = np.nonzero(X.std(axis=0) > 1e-9)[0]
    mu, sigma = X[:, keep].mean(axis=0), X[:, keep].std(axis=0)
    U = (X[:, keep] - mu) / sigma
    params = init_params(len(keep), 1, 12, U.min(axis=0) - 1.0,
                         U.max(axis=0) + 1.0, seed=3)
    params.b[-1] -= np.median(forward(params, U))
    return net, demands, params, mu, sigma, keep


def cold_icnn(net, demand, clf):
    """Status and cost of a cold simplex solve of the classifier LP."""
    sol = SimplexEngine(icnn_dispatch_problem(net, demand, clf)).solve()
    cost = float(net.cost @ sol.x[:net.n]) if sol else None
    return sol.status, cost


def paired_row_icnn_problem(net, demand, clf):
    """The classifier SC-OPF stated with one-sided rows only: each line
    limit and each box coordinate (all bounds finite) takes an upper and a
    lower row.

    Built here from the same ingredients as ``solve_scopf_icnn``, as an
    oracle that shares no row assembly with it.
    """
    from nkscreen.grid import ptdf
    from nkscreen.oracle import epigraph_constraints

    A_e, b_e, _, _ = epigraph_constraints(clf.params)
    n_in = clf.params.n_inputs
    nz = A_e.shape[1] - n_in
    S = np.zeros((n_in, net.n))
    S[np.arange(n_in), clf.dim_map] = clf.r / clf.sigma
    s0 = clf.v - clf.r * clf.mu / clf.sigma
    _, H = ptdf(net)
    lo, hi = clf.input_box()
    rows = np.vstack([H, -H, A_e[:, :n_in] @ S, S, -S])
    rhs = np.concatenate([net.f_upper, -net.f_lower, b_e - A_e[:, :n_in] @ s0,
                          hi - s0, s0 - lo])
    A = np.zeros((len(rows) + 1, net.n + nz))
    A[:len(rows), :net.n] = rows
    A[len(net.lines) * 2:len(net.lines) * 2 + len(b_e), net.n:] = A_e[:, n_in:]
    A[-1, :net.n] = 1.0
    b = np.append(rhs + rows @ demand, demand.sum())
    return LpProblem(c=np.concatenate([-net.cost, np.zeros(nz)]), A=A, b=b,
                     rel=["<="] * len(rows) + ["="],
                     lb=np.concatenate([net.pmin, np.zeros(nz)]),
                     ub=np.concatenate([net.pmax, np.full(nz, np.inf)]))


class TestIcnnWarmStart:
    def test_call_order_does_not_matter(self, case39_setup):
        net, demands, params, mu, sigma, keep = case39_setup
        clf = ScaledClassifier(params=params, r=1.0, mu=mu, sigma=sigma,
                               dim_map=keep)
        d1, d2 = demands[0], demands[1]
        first = solve_scopf_icnn(net, d1, clf)
        other = solve_scopf_icnn(net, d2, clf)
        again = solve_scopf_icnn(net, d1, clf)
        assert first and other
        assert not np.array_equal(first.p, other.p)
        assert first.p.tobytes() == again.p.tobytes()
        assert first.cost == again.cost

    def test_nominal_basis_inverted_once(self, case39_setup, monkeypatch):
        # the kept start carries the nominal inverse into every
        # re-solve, so 150 demands never invert the nominal basis's
        # structural block again
        from nkscreen import scopf

        net, _, params, mu, sigma, keep = case39_setup
        clf = ScaledClassifier(params=params, r=1.0, mu=mu, sigma=sigma,
                               dim_map=keep)
        inverted = []
        inv = np.linalg.inv

        def recorded(a):
            inverted.append(a.copy())
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recorded)
        demands = sample_demands(DemandSampler(net.demand, rel_std=0.15,
                                               seed=11), 150)
        results = [solve_scopf_icnn(net, d, clf) for d in demands]
        classifier_lp = scopf.classifier_dispatcher(net, clf).bases
        engine = classifier_lp.engine
        basis = classifier_lp.root.snap.basis
        K = np.sort(basis[basis < engine.n])
        R = np.setdiff1d(np.arange(engine.m), basis[basis >= engine.n] - engine.n)
        block = engine.T[np.ix_(R, K)]
        assert sum(np.array_equal(a, block) for a in inverted) == 1
        assert sum(map(bool, results)) > 50

    def test_infeasible_dispatch_names_what_blocks_it(self, case39_setup):
        # an infeasible re-solve names the row or bound the dual simplex
        # could not repair, in the classifier LP's row order
        import re

        from nkscreen import scopf

        net, demands, params, mu, sigma, keep = case39_setup
        clf = ScaledClassifier(params=params, r=2.0, mu=mu, sigma=sigma,
                               dim_map=keep)
        results = [solve_scopf_icnn(net, d, clf) for d in demands[:25]]
        named = [r.blocking for r in results if not r]
        assert named and all(
            re.fullmatch(r"line \d+|epigraph \d+|box \d+|balance|bound [pz]_\d+",
                         name) for name in named)
        assert all(r.blocking == "" for r in results if r)
        lp = scopf.classifier_dispatcher(net, clf).constraints
        n_cols, epi = lp.A.shape[1], lp.A.shape[1] + net.m
        n_epi = len(params.b[0]) + 1
        assert [lp.blocking(j) for j in (
            None, 0, net.n, n_cols, n_cols + net.m - 1, epi, epi + n_epi - 1,
            epi + n_epi, n_cols + len(lp.A) - 1)] == [
            "", "bound p_0", "bound z_0", "line 0", f"line {net.m - 1}",
            "epigraph 0", f"epigraph {n_epi - 1}",
            f"box {np.flatnonzero(np.isfinite(clf.input_box()[1]))[0]}",
            "balance"]

    def test_warm_matches_cold_ring3(self):
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        clf = ScaledClassifier(params=l1_ball_net3(radius=1.2))
        sampler = DemandSampler(net.demand, rel_std=0.3, seed=8)
        statuses = set()
        for d in sample_demands(sampler, 30):
            warm = solve_scopf_icnn(net, d, clf)
            status, cost = cold_icnn(net, d, clf)
            assert warm.status is status
            if warm:
                assert abs(warm.cost - cost) <= 1e-9
            statuses.add(status)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_warm_matches_cold_case39(self, case39_setup, r):
        # at r = 3 the nominal demand is infeasible too, so every solve
        # starts from the slack basis
        net, demands, params, mu, sigma, keep = case39_setup
        clf = ScaledClassifier(params=params, r=r, mu=mu, sigma=sigma,
                               dim_map=keep)
        feasible = 0
        for d in demands[:25]:
            warm = solve_scopf_icnn(net, d, clf)
            status, cost = cold_icnn(net, d, clf)
            assert warm.status is status
            if warm:
                feasible += 1
                assert abs(warm.cost - cost) <= 1e-9 * abs(cost)
        assert feasible < 25
        assert (feasible > 0) == (r < 3.0)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_ranged_rows_match_paired_rows_case39(self, case39_setup, r):
        # the one-row-per-limit LP has the optimum of the LP that states
        # each two-sided limit as two rows
        net, demands, params, mu, sigma, keep = case39_setup
        clf = ScaledClassifier(params=params, r=r, mu=mu, sigma=sigma,
                               dim_map=keep)
        # both sides of every ranged row are rows of the paired LP, and
        # nothing else is
        split = paired_rows(icnn_dispatch_problem(net, demands[0], clf))
        ref = paired_row_icnn_problem(net, demands[0], clf)
        assert split.n_rows == ref.n_rows
        for a, b, rel in zip(ref.A, ref.b, ref.rel):
            same = (np.all(np.isclose(split.A, a, rtol=0, atol=1e-12), axis=1)
                    & np.isclose(split.b, b, rtol=1e-12) & (split.rel == rel))
            assert same.any()
        statuses = set()
        for d in demands[:25]:
            got = solve_scopf_icnn(net, d, clf)
            paired = SimplexEngine(paired_row_icnn_problem(net, d, clf)).solve()
            assert got.status is paired.status
            statuses.add(got.status)
            if got:
                cost = float(net.cost @ paired.x[:net.n])
                assert abs(got.cost - cost) <= 1e-9 * abs(cost)
        assert (LpStatus.OPTIMAL in statuses) == (r < 3.0)

    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    def test_one_row_per_two_sided_limit_case39(self, case39_setup, r):
        net, demands, params, mu, sigma, keep = case39_setup
        clf = ScaledClassifier(params=params, r=r, mu=mu, sigma=sigma,
                               dim_map=keep)
        p = icnn_dispatch_problem(net, demands[0], clf)
        lo, hi = clf.input_box()
        boxed = np.count_nonzero(np.isfinite(lo) | np.isfinite(hi))
        epigraph = params.depth * params.width + 1
        assert p.n_rows == len(net.lines) + epigraph + boxed + 1
        assert p.n_rows < paired_row_icnn_problem(net, demands[0], clf).n_rows
        assert np.count_nonzero(np.isfinite(p.ranges)) == len(net.lines) + boxed

    def test_content_change_invalidates_cache(self):
        # each edit gives another classifier (``replace``), which holds no
        # dispatcher; the edited network is a copy, another object
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        params = l1_ball_net3(radius=1.2)
        clf = ScaledClassifier(params=params)
        d = net.demand
        base = solve_scopf_icnn(net, d, clf)
        assert abs(base.cost - 1.0) <= 1e-6
        # loosen the set: radius 1.2 -> 1.3 lets p0 reach 0.65
        params.b[-1][0] = -1.3
        clf = replace(clf, params=params)
        looser = solve_scopf_icnn(net, d, clf)
        assert looser and abs(looser.cost - 0.95) <= 1e-6
        # a larger scale shrinks the set again: p0 <= 1.3 / 1.05 - 0.6
        clf = replace(clf, r=1.05)
        scaled = solve_scopf_icnn(net, d, clf)
        assert scaled and scaled.cost > looser.cost + 1e-3
        assert clf.decision_values(looser.p - d)[0] > 1e-3
        assert clf.decision_values(scaled.p - d)[0] <= 1e-7
        # back to the first content: the first answer, bit for bit
        params.b[-1][0] = -1.2
        clf = replace(clf, params=params, r=1.0)
        back = solve_scopf_icnn(net, d, clf)
        assert back.p.tobytes() == base.p.tobytes()
        # an edited network: line 0 carries 0.2 at that dispatch, and a
        # limit of 0.1 moves generation to the dearer bus 1
        net = replace(net, f_upper=np.where(np.arange(net.m) == 0, 0.1,
                                            net.f_upper))
        tight = solve_scopf_icnn(net, d, clf)
        assert tight and abs(tight.cost - 1.15) <= 1e-6

    def test_highs_backend_agrees(self, case39_setup):
        net, demands, params, mu, sigma, keep = case39_setup
        clf = ScaledClassifier(params=params, r=1.0, mu=mu, sigma=sigma,
                               dim_map=keep)
        for d in demands[:5]:
            warm = solve_scopf_icnn(net, d, clf)
            highs = solve_highs(icnn_dispatch_problem(net, d, clf))
            assert warm.status is highs.status
            if warm:
                cost = float(net.cost @ highs.x[:net.n])
                assert abs(warm.cost - cost) <= 1e-6 * abs(warm.cost)


def classifier_runs(monkeypatch, net, clf):
    """The classifier's held dispatcher for net, with every re-solve of its
    classifier LP recorded: the list of right-hand sides it was called
    with."""
    from nkscreen import scopf

    run = scopf.classifier_dispatcher(net, clf).bases
    calls, resolve = [], run.resolve
    monkeypatch.setattr(run, "resolve",
                        lambda b: calls.append(b.copy()) or resolve(b))
    return calls


def screen_values(net, demands, clf):
    """The DC-OPF dispatch of each demand (fixed start) and the decision
    value of a freshly built classifier at its injection."""
    fresh = replace(clf, params=clf.params.copy())
    sols = fixed_start_dcopf(net, demands)
    values = [fresh.decision_values(standardize_points(
        s.x - d, net.n, fresh.dim_map, fresh.mu, fresh.sigma))[0] if s
        else None
        for s, d in zip(sols, demands)]
    return sols, values


class TestScreenFirst:
    """The classifier SC-OPF answers with the DC-OPF dispatch when the
    classifier admits it, and runs the classifier LP otherwise."""

    def clf(self, case39_setup, r=1.0):
        net, demands, params, mu, sigma, keep = case39_setup
        return ScaledClassifier(params=params, r=r, mu=mu, sigma=sigma,
                                dim_map=keep)

    def test_admitted_dispatch_is_the_answer(self, case39_setup, monkeypatch):
        from nkscreen import scopf

        net, demands = case39_setup[:2]
        clf = self.clf(case39_setup)
        calls = classifier_runs(monkeypatch, net, clf)
        lp = scopf.classifier_dispatcher(net, clf)
        engine = lp.bases.engine
        sols, values = screen_values(net, demands[:20], clf)
        admitted = [i for i, v in enumerate(values) if v is not None and v <= 0]
        assert len(admitted) >= 3
        for i in admitted:
            work = engine.counters()
            res = solve_scopf_icnn(net, demands[i], clf)
            assert engine.counters() == work
            assert res.p.tobytes() == sols[i].x.tobytes()
            assert res.cost == float(net.cost @ sols[i].x)
            assert res.blocking == ""
            status, cost = cold_icnn(net, demands[i], clf)
            assert status is LpStatus.OPTIMAL
            assert abs(res.cost - cost) <= 1e-9 * abs(cost)
        assert calls == [] and lp.bases.n_resolves == 0

    def test_flagged_dispatch_runs_the_classifier_lp(self, case39_setup,
                                                       monkeypatch):
        from nkscreen import scopf

        net, demands = case39_setup[:2]
        clf = self.clf(case39_setup)
        calls = classifier_runs(monkeypatch, net, clf)
        _, values = screen_values(net, demands[:20], clf)
        flagged = [i for i, v in enumerate(values) if v is not None and v > 0]
        assert len(flagged) >= 3
        for i in flagged:
            res = solve_scopf_icnn(net, demands[i], clf)
            status, cost = cold_icnn(net, demands[i], clf)
            assert res.status is status
            if res:
                assert abs(res.cost - cost) <= 1e-9 * abs(cost)
                assert clf.decision_values(standardize_points(
                    res.p - demands[i], net.n, clf.dim_map, clf.mu,
                    clf.sigma))[0] <= 1e-7
        lp = scopf.classifier_dispatcher(net, clf).constraints
        assert [b.tobytes() for b in calls] == [lp.rhs(demands[i]).tobytes()
                                                for i in flagged]

    def test_infeasible_dcopf_runs_the_classifier_lp(self, case39_setup,
                                                       monkeypatch):
        net = case39_setup[0]
        clf = self.clf(case39_setup)
        calls = classifier_runs(monkeypatch, net, clf)
        d = 3.0 * net.demand      # more load than all generators together
        assert d.sum() > net.pmax.sum()
        assert fixed_start_dcopf(net, [d])[0].status is LpStatus.INFEASIBLE
        res = solve_scopf_icnn(net, d, clf)
        assert res.status is LpStatus.INFEASIBLE and res.blocking
        assert len(calls) == 1

    def test_box_excludes_what_the_raw_network_admits(self, monkeypatch):
        # radius 2 admits the DC-OPF injection (0.8, -0.2, -0.6), |x| = 1.6,
        # but the 0.7 box excludes x0 = 0.8: the classifier LP moves 0.1 to
        # the dearer bus
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        params = l1_ball_net3(radius=2.0, box=0.7)
        clf = ScaledClassifier(params=params)
        calls = classifier_runs(monkeypatch, net, clf)
        (dcopf,) = fixed_start_dcopf(net, [net.demand])
        x = dcopf.x - net.demand
        assert np.allclose(x, [0.8, -0.2, -0.6])
        assert raw_forward(params, x[None])[0] <= 0
        assert clf.decision_values(x)[0] > 0
        res = solve_scopf_icnn(net, net.demand, clf)
        assert len(calls) == 1
        assert res and np.allclose(res.p, [0.7, 0.1, 0.0], atol=1e-9)
        assert abs(res.cost - cold_icnn(net, net.demand, clf)[1]) <= 1e-9

    def test_in_place_weight_edit_screens_with_the_new_weights(self):
        # the held dispatcher and clf._net, built at radius 2, admit the
        # DC-OPF dispatch; the classifier that ``replace`` gives after the
        # edit must answer as one built fresh at radius 1.2
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        params = l1_ball_net3(radius=2.0)
        clf = ScaledClassifier(params=params)
        loose = solve_scopf_icnn(net, net.demand, clf)
        assert np.allclose(loose.p, [0.8, 0.0, 0.0])
        assert clf.decision_values(loose.p - net.demand)[0] <= 0
        params.b[-1][0] = -1.2
        got = solve_scopf_icnn(net, net.demand, replace(clf, params=params))
        fresh = solve_scopf_icnn(net, net.demand,
                                 ScaledClassifier(params=params.copy()))
        assert got.p.tobytes() == fresh.p.tobytes()
        assert abs(got.cost - 1.0) <= 1e-6
        # the first classifier keeps what it built at radius 2
        assert solve_scopf_icnn(net, net.demand, clf).p.tobytes() == \
            loose.p.tobytes()

    def test_call_order_does_not_matter_across_both_steps(self, case39_setup):
        from nkscreen import scopf

        net, demands = case39_setup[:2]
        clf = self.clf(case39_setup)
        demands = list(demands[:16]) + [3.0 * net.demand]

        def answers(order):
            fresh = replace(clf)    # a fresh dispatcher
            lp = scopf.classifier_dispatcher(net, fresh)
            out = {i: solve_scopf_icnn(net, demands[i], fresh) for i in order}
            return out, (lp.bases.n_resolves, lp.dcopf.counters())

        forward_order, counts = answers(range(len(demands)))
        # both steps answered some demands, the infeasible one the second
        assert 1 < counts[0] < len(demands)
        assert sum(counts[1]["answers_by_hops"][1:]) > 0
        for order in (range(len(demands) - 1, -1, -1),
                      np.random.default_rng(5).permutation(len(demands))):
            again, n = answers(order)
            assert n == counts
            for i, res in forward_order.items():
                other = again[i]
                assert (res.status, res.cost, res.blocking) == (
                    other.status, other.cost, other.blocking)
                assert (res.p is None) == (other.p is None)
                if res.p is not None:
                    assert res.p.tobytes() == other.p.tobytes()

    def test_screened_count_matches_the_diagnostic(self, case39_setup):
        net, demands = case39_setup[:2]
        clf = self.clf(case39_setup)
        region = build_region(net, k=1)
        demands = np.vstack([demands[:10], 3.0 * net.demand])
        _, summary = benchmark_scopf(net, demands, region, clf)
        rows = summary["dcopf_diagnostic"]
        values = [e["values"]["icnn"] for e in rows]
        admitted = [e["dcopf_status"] == "OPTIMAL" and v <= 0
                    for e, v in zip(rows, values)]
        icnn = summary["formulations"]["icnn"]
        assert 0 < icnn["step1_answers"] < len(demands)
        assert icnn["step1_answers"] == sum(admitted)
        assert rows[-1]["dcopf_status"] == "INFEASIBLE"
        assert values[-1] is None
        # the diagnostic's dispatches are the fixed-start DC-OPF's
        assert values == screen_values(net, demands, clf)[1]
        # one answer per demand in the DC-OPF step's diagnostic pass, from
        # its tree of bases or its engine; one re-solve per demand the
        # screen did not answer in the classifier step
        dcopf = summary["dcopf"]
        assert set(dcopf) == {"setup_s", "answers_by_hops", "nodes_derived",
                              "resolves"}
        assert sum(dcopf["answers_by_hops"]) + dcopf["resolves"] == \
            len(demands)
        assert icnn["resolves"] == len(demands) - icnn["step1_answers"]
        assert dcopf["answers_by_hops"][0] > 0

    def test_dcopf_step_is_the_engine_only_re_solve(self, case39_setup):
        # the DC-OPF step answers each demand with the bytes of the
        # engine-only fixed-start re-solve, from its tree or its engine;
        # neither step's root changes, and the classifier step's grows no
        # tree
        from nkscreen import scopf

        net, demands = case39_setup[:2]
        clf = self.clf(case39_setup)
        demands = list(demands) + [3.0 * net.demand]
        lp = scopf.classifier_dispatcher(net, clf)
        dcopf, classifier = lp.dcopf, lp.bases
        roots = (dcopf.bases.root, classifier.root)
        assert None not in roots
        want = fixed_start_dcopf(net, demands)
        got = [dcopf.solve(d) for d in demands]
        for res, ref in zip(got, want):
            assert res.status is ref.status
            assert (res.p is None) == (ref.x is None)
            if ref.x is not None:
                assert res.p.tobytes() == ref.x.tobytes()
        counts = dcopf.bases.counters()
        assert counts["answers_by_hops"][0] >= 1 and counts["resolves"] >= 1
        assert sum(counts["answers_by_hops"]) + counts["resolves"] == \
            len(demands)
        for d in demands:
            solve_scopf_icnn(net, d, clf)
        assert classifier.counters()["resolves"] >= 1
        assert dcopf.bases.root is roots[0] and classifier.root is roots[1]
        assert classifier.root.children == {}


def pivot_states(net, demand):
    """The fixed-start DC-OPF re-solve at the demand, as
    ``fixed_start_dcopf`` runs it, and the engine's basis and statuses
    after each of its pivots."""
    lp = DispatchLp(net)
    eng = SimplexEngine(lp.problem(net.demand))
    assert eng.solve()
    states = record_pivots(eng)
    sol = eng.resolve_rhs(lp.rhs(np.asarray(demand, dtype=float)))
    return sol, states


def node_states(nodes):
    return [(e.snap.basis.tobytes(), e.snap.vstat.tobytes()) for e in nodes]


class TestDcopfNeighbours:
    """The DC-OPF step answers from its tree of bases, memoized dual
    simplex pivots from its nominal basis, else from its engine, with the
    bytes of the engine-only fixed-start re-solve in every case."""

    @pytest.mark.parametrize("scale", [1.0, 1.04])
    def test_answers_are_the_engine_only_re_solve(self, scale):
        net = load_network(resolve_case("case39"))
        demands = sample_demands(DemandSampler(net.demand * scale,
                                               rel_std=0.15, seed=21), 300)
        step = DcopfSolver(net)
        root = step.bases.root
        got = [step.solve(d) for d in demands]
        firsts, reached = set(), set()
        for res, d in zip(got, demands):
            ref, states = pivot_states(net, d)
            assert res.status is ref.status
            assert res.p.tobytes() == ref.x.tobytes()
            firsts.update(states[:1])
            reached.update(states)
        counts = step.bases.counters()
        assert sum(counts["answers_by_hops"][1:]) > 0
        assert sum(counts["answers_by_hops"]) + counts["resolves"] == \
            len(demands)
        # each node is a basis the engine's pivots reach; the root's
        # children, one per side the marginal generator leaves by, are the
        # bases its first pivot reaches
        nodes = tree_nodes(step.bases)
        assert counts["nodes_derived"] == len(nodes) - 1
        assert set(node_states(nodes[1:])) <= reached
        children = [c for c in root.children.values() if c is not None]
        assert set(node_states(children)) == firsts and len(firsts) == 2
        assert step.bases.root is root

    def test_two_pivot_walks_and_infeasible_fall_back_to_the_engine(self):
        net = load_network(resolve_case("case39"))
        far, over = 0.8 * net.demand, 3.0 * net.demand
        step = DcopfSolver(net)
        (ref_far, states), (ref_over, _) = (pivot_states(net, d)
                                            for d in (far, over))
        assert ref_far.iterations == 2
        assert ref_over.status is LpStatus.INFEASIBLE
        # the first two walks derive the bases of the engine's two pivots,
        # one each, and the engine answers them; the third walk answers
        for _ in range(3):
            assert step.solve(far).p.tobytes() == ref_far.x.tobytes()
        assert node_states(tree_nodes(step.bases)[1:]) == states
        assert step.solve(over).status is LpStatus.INFEASIBLE
        counts = step.bases.counters()
        assert counts["answers_by_hops"][:3] == [0, 0, 1]
        assert counts["resolves"] == 3
        # a demand one pivot away on the same side stops at the first node
        near = 0.97 * net.demand
        ref_near, states_near = pivot_states(net, near)
        assert states_near == states[:1]
        assert step.solve(near).p.tobytes() == ref_near.x.tobytes()
        assert step.bases.counters()["answers_by_hops"][1] == 1


# the classifier fields that its held dispatcher is built from
_ASSIGNED = ("params", "r", "v", "mu", "sigma", "dim_map")


def _pair(case39_setup):
    net, _, params, mu, sigma, keep = case39_setup
    clf = ScaledClassifier(params=params.copy(), r=1.0,
                           v=np.zeros(len(keep)), mu=mu.copy(),
                           sigma=sigma.copy(), dim_map=keep.copy())
    return copy.deepcopy(net), clf


def _copy_of(clf):
    return ScaledClassifier(params=clf.params.copy(), r=clf.r,
                            v=clf.v.copy(), mu=clf.mu.copy(),
                            sigma=clf.sigma.copy(), dim_map=clf.dim_map.copy())


class TestHeldDispatcher:
    """The classifier's dispatcher is held on the classifier for one
    network object: a field is assigned through ``replace``, which gives a
    classifier that builds its own, assigning one in place raises, another
    network object rebuilds it, and the same objects reuse it."""

    @pytest.mark.parametrize("name", _ASSIGNED)
    def test_assignment_rebuilds_the_dispatcher(self, case39_setup, name):
        from nkscreen import scopf

        net, clf = _pair(case39_setup)
        held = scopf.classifier_dispatcher(net, clf)
        assert scopf.classifier_dispatcher(net, clf) is held
        with pytest.raises(FrozenInstanceError):
            setattr(clf, name, getattr(clf, name))
        other = replace(clf, **{name: getattr(clf, name)})
        assert other._dispatch is None
        again = scopf.classifier_dispatcher(net, other)
        assert again is not held
        assert scopf.classifier_dispatcher(net, other) is again
        assert scopf.classifier_dispatcher(net, clf) is held

    def test_another_network_object_rebuilds_it(self, case39_setup):
        from nkscreen import scopf

        net, clf = _pair(case39_setup)
        held = scopf.classifier_dispatcher(net, clf)
        other = copy.deepcopy(net)
        assert scopf.classifier_dispatcher(other, clf) is not held
        assert scopf.classifier_dispatcher(net, clf) is not held

    def test_same_objects_reuse_it(self, case39_setup):
        from nkscreen import scopf

        net, clf = _pair(case39_setup)
        held = scopf.classifier_dispatcher(net, clf)
        for d in case39_setup[1][:4]:
            solve_scopf_icnn(net, d, clf)
            icnn_dispatch_problem(net, d, clf)
            clf.decision_values(np.zeros(len(clf.mu)))
        assert scopf.classifier_dispatcher(net, clf) is held
        # in-place edits, of the metadata or of the weights, keep it
        clf.meta["note"] = 1
        clf.params.b[-1][0] += 1.0
        assert scopf.classifier_dispatcher(net, clf) is held


def _edit_array(field, get):
    """Edit one entry of an array of the classifier, in a copy of the
    classifier field that holds it, and pass that copy through
    ``replace``."""
    def edit(net, clf):
        clf = replace(clf, **{field: getattr(clf, field).copy()})
        a = get(clf)
        a.flat[0] += 1 if a.dtype.kind == "i" else 0.125
        return net, clf
    return edit


def _edit_network(name):
    """Edit one entry of a network array in a copy of the network."""
    def edit(net, clf):
        if name == "slack":
            return replace(net, slack=net.slack + 1), clf
        a = getattr(net, name).copy()
        # pmin at a generator with room above it
        at = np.argmax(net.pmax - net.pmin) if name == "pmin" else 0
        a.flat[at] += 1 if a.dtype.kind == "i" else 0.125
        return replace(net, **{name: a}), clf
    return edit


# every item the classifier LP is built from, each edited once
_KEYED_EDITS = {
    "W0": _edit_array("params", lambda clf: clf.params.W[0]),
    "D0": _edit_array("params", lambda clf: clf.params.D[0]),
    "D1": _edit_array("params", lambda clf: clf.params.D[1]),
    "b0": _edit_array("params", lambda clf: clf.params.b[0]),
    "b1": _edit_array("params", lambda clf: clf.params.b[1]),
    "box_lower": _edit_array("params", lambda clf: clf.params.box_lower),
    "box_upper": _edit_array("params", lambda clf: clf.params.box_upper),
    "r": lambda net, clf: (net, replace(clf, r=clf.r * 1.25)),
    "v": _edit_array("v", lambda clf: clf.v),
    "mu": _edit_array("mu", lambda clf: clf.mu),
    "sigma": _edit_array("sigma", lambda clf: clf.sigma),
    "dim_map": _edit_array("dim_map", lambda clf: clf.dim_map),
    **{name: _edit_network(name)
       for name in ("lines", "susceptance", "f_lower", "f_upper", "pmin",
                    "pmax", "cost", "demand", "slack")},
}
_LP_ARRAYS = ("A", "b0", "ranges", "lb", "ub", "c")


class TestClassifierLpCache:
    """An edit of any item the classifier LP is built from reaches it once
    the edit is passed as another classifier (``replace``) or another
    network object; equal values in another memory layout give the same
    LP."""

    @pytest.mark.parametrize("item", sorted(_KEYED_EDITS))
    def test_in_place_edit_rebuilds_the_lp(self, case39_setup, item):
        from nkscreen import scopf

        net, clf = _pair(case39_setup)
        lp = scopf.classifier_dispatcher(net, clf)
        net, clf = _KEYED_EDITS[item](net, clf)
        rebuilt = scopf.classifier_dispatcher(net, clf)
        assert rebuilt is not lp
        # the rebuilt dispatcher is the one built from copies of the edited
        # objects, and it describes the edit
        fresh = scopf.Dispatcher(DcopfSolver(net), _copy_of(clf))
        for a in _LP_ARRAYS:
            assert np.array_equal(getattr(rebuilt.constraints, a),
                                  getattr(fresh.constraints, a))
        if hasattr(net, item):
            assert np.array_equal(getattr(rebuilt.constraints.net, item),
                                  getattr(net, item))
            assert not np.array_equal(getattr(lp.constraints.net, item),
                                      getattr(net, item))
        else:
            assert any(not np.array_equal(getattr(rebuilt.constraints, a),
                                          getattr(lp.constraints, a))
                       for a in _LP_ARRAYS)

    def test_non_contiguous_equal_values_keep_the_lp(self, case39_setup):
        from nkscreen import scopf

        net, clf = _pair(case39_setup)
        demands = case39_setup[1][:8]
        lp = scopf.classifier_dispatcher(net, clf).constraints
        want = [solve_scopf_icnn(net, d, clf) for d in demands]
        net = replace(net, f_upper=np.repeat(net.f_upper, 2)[::2])
        params = clf.params.copy()
        params.D[0] = np.asfortranarray(params.D[0])
        clf = replace(clf, params=params, mu=np.repeat(clf.mu, 3)[::3])
        assert not (net.f_upper.flags.c_contiguous
                    or clf.mu.flags.c_contiguous
                    or clf.params.D[0].flags.c_contiguous)
        got = [solve_scopf_icnn(net, d, clf) for d in demands]
        again = scopf.classifier_dispatcher(net, clf).constraints
        for a in _LP_ARRAYS:
            assert getattr(again, a).tobytes() == getattr(lp, a).tobytes()
        for a, b in zip(want, got):
            assert (a.status, a.cost, a.blocking) == (b.status, b.cost,
                                                      b.blocking)
            assert (a.p is None) == (b.p is None)
            if a.p is not None:
                assert a.p.tobytes() == b.p.tobytes()


def folded_ring3():
    """ring3 with a region that folds bus 1's injection at 0.3.

    The full k = 1 region, folded at three hand-picked injections that all
    hold x_1 = 0.3, with their box.  The DC-OPF leaves the dearer bus 1
    idle, so x_1 = -d_1 there, never 0.3: every answer comes from the facet
    LP, which must hold p_1 - d_1 at 0.3.
    """
    net = ring3(limits=(2.0, 2.0, 2.0), demand=(0.0, 0.2, 0.6))
    full = build_region(net, k=1)
    X = np.array([[0.5, 0.3, -0.8], [-0.2, 0.3, -0.1], [0.0, 0.3, -0.3]])
    folded = with_box(drop_constant_dims(full, X), X)
    assert list(folded.dim_map) == [0, 2]
    return net, full, folded


class TestFacetDispatcher:
    """The facet set: the reduced region's rows, its box and its folded
    columns pinned, through the same two steps as the classifier."""

    def test_folded_column_stays_at_its_value(self):
        net, full, folded = folded_ring3()
        dispatcher = Dispatcher(DcopfSolver(net), folded)
        res = dispatcher.solve(net.demand)
        assert res.formulation == "facets"
        # p_1 = d_1 + 0.3; the cheap bus covers the rest of the 0.8
        assert res and np.allclose(res.p, [0.3, 0.5, 0.0], atol=1e-9)
        demands = sample_demands(DemandSampler(net.demand, rel_std=0.2,
                                               seed=4), 40)
        feasible = 0
        for d in demands:
            res = dispatcher.solve(d)
            ref = solve_highs(dispatcher.constraints.problem(d))
            assert res.status is ref.status
            if res:
                feasible += 1
                assert abs(res.p[1] - d[1] - 0.3) <= 1e-9
                assert full.margins(res.p - d)[0] <= 1e-9
        # the check never admits a DC-OPF dispatch that moves the fold
        assert feasible > 30
        assert dispatcher.bases.n_resolves == 1 + len(demands)

    def test_rows_and_their_names(self):
        net, _, folded = folded_ring3()
        lp = Dispatcher(DcopfSolver(net), folded).constraints
        n_facets = folded.n_rows
        assert lp.A.shape == (net.m + n_facets + 2 + 1 + 1, net.n)
        pin = lp.A[net.m + n_facets + 2]
        assert np.array_equal(pin, [0.0, 1.0, 0.0])
        assert lp.b0[net.m + n_facets + 2] == 0.3
        assert lp.ranges[net.m + n_facets + 2] == 0.0
        assert np.all(np.isfinite(lp.ranges[net.m + n_facets:-1]))
        n_cols = net.n
        first = n_cols + net.m
        assert [lp.blocking(j) for j in (
            None, 1, n_cols, first, first + n_facets - 1, first + n_facets,
            first + n_facets + 1, first + n_facets + 2,
            first + n_facets + 3)] == [
            "", "bound p_1", "line 0", "facet 0", f"facet {n_facets - 1}",
            "box 0", "box 1", "fold 1", "balance"]

    def test_region_must_fit_the_network_and_have_a_box(self):
        net, full, folded = folded_ring3()
        with pytest.raises(ValueError, match="box"):
            Dispatcher(DcopfSolver(net), full)
        with pytest.raises(ValueError, match="injection dimensions"):
            Dispatcher(DcopfSolver(load_network(resolve_case("case39"))),
                       folded)
        with pytest.raises(TypeError):
            Dispatcher(DcopfSolver(net), full.A)


@pytest.fixture(scope="module")
def case39_facets():
    """case39's k = 2 region as ``prepare-region --elimination exact``
    builds it, from 2,000 seeded DC-OPF injections: the filtered full
    region and the facets of its reduced, boxed, standardized form."""
    net = load_network(resolve_case("case39"))
    X = sample_injections(net, DemandSampler(net.demand, rel_std=0.15,
                                             seed=0), 2000)
    full = filter_contingencies(build_region(net, k=2), X, threshold=0.9)
    facets = eliminate_redundant(with_box(drop_constant_dims(full, X), X))
    Xr = facets.project(X)
    return net, full, standardize(facets, Xr.mean(axis=0), Xr.std(axis=0))


class TestFacetDispatcherCase39:
    def test_folds_and_rows(self, case39_facets):
        net, _, facets = case39_facets
        lp = Dispatcher(DcopfSolver(net), facets).constraints
        folded = np.setdiff1d(np.arange(net.n), facets.dim_map)
        assert len(folded) > 0
        assert len(lp.A) == (net.m + facets.n_rows + facets.dim
                             + len(folded) + 1)
        pins = lp.A[-1 - len(folded):-1]
        assert np.array_equal(pins, np.eye(net.n)[folded])
        assert np.all(lp.ranges[-1 - len(folded):-1] == 0.0)
        assert np.array_equal(lp.b0[-1 - len(folded):-1],
                              facets.dropped_values[folded])

    @pytest.mark.parametrize("scale", [1.0, 1.04])
    def test_answers_equal_highs_and_lie_inside_region_full(
            self, case39_facets, scale):
        net, full, facets = case39_facets
        dispatcher = Dispatcher(DcopfSolver(net), facets)
        demands = sample_demands(DemandSampler(net.demand * scale,
                                               rel_std=0.15, seed=23), 300)
        folded = np.setdiff1d(np.arange(net.n), facets.dim_map)
        solved = []
        for d in demands:
            res = dispatcher.solve(d)
            ref = solve_highs(dispatcher.constraints.problem(d))
            assert res.status is ref.status
            if res:
                cost = float(net.cost @ ref.x[:net.n])
                assert abs(res.cost - cost) <= 1e-9 * abs(cost)
                solved.append(res.p - d)
        X = np.array(solved)
        assert len(X) > 250
        assert full.margins(full.project(X)).max() <= 1e-6
        assert np.abs(X[:, folded] - facets.dropped_values[folded]).max() \
            <= 1e-6
        # both steps answered some demands
        assert 0 < dispatcher.bases.n_resolves < len(demands)


class TestBenchmark:
    def certified_setup(self):
        net = ring3(limits=(0.8, 0.8, 0.8), demand=(0.0, 0.5, 0.35))
        region = build_region(net, k=1)
        params = l1_ball_net3(radius=1.0)
        scale = scale_fast(params, region.A, region.b)
        clf = ScaledClassifier(params=params, r=scale.r)
        return net, region, clf

    def test_scale_matches_support_ratio(self):
        # every balanced flow row of the three-node ring has infinity norm
        # 2/3, so the unit ball's support is 2/3 and r* = (2/3) / 0.8
        _, _, clf = self.certified_setup()
        assert abs(clf.r - 5.0 / 6.0) <= 1e-9

    def test_summary_soundness_and_costs(self):
        net, region, clf = self.certified_setup()
        sampler = DemandSampler(net.demand, rel_std=0.05, seed=2)
        demands = sample_demands(sampler, 10)
        records, summary = benchmark_scopf(net, demands, region, clf)
        assert len(records) == 20
        assert summary["instances"] == 10
        assert set(summary) == {"instances", "full", "dcopf", "formulations",
                                "dcopf_diagnostic"}
        icnn = summary["formulations"]["icnn"]
        assert icnn["conservativeness_violations"] == 0
        assert icnn["max_region_violation"] <= 1e-6
        assert icnn["feasible"] >= 8
        assert icnn["cost_ratio_mean"] >= 1.0
        assert icnn["speedup"] is not None and icnn["speedup"] > 0

    def test_per_instance_cost_ordering(self):
        net, region, clf = self.certified_setup()
        sampler = DemandSampler(net.demand, rel_std=0.05, seed=4)
        for d in sample_demands(sampler, 6):
            full = solve_scopf_full(net, d, region)
            icnn = solve_scopf_icnn(net, d, clf)
            if icnn:
                assert full, "certified classifier admitted an insecure instance"
                assert icnn.cost >= full.cost - 1e-9

    def test_report_files(self, tmp_path):
        net, region, clf = self.certified_setup()
        sampler = DemandSampler(net.demand, rel_std=0.05, seed=5)
        records, summary = benchmark_scopf(net, sample_demands(sampler, 4),
                                           region, clf)
        csv_path = tmp_path / "bench.csv"
        json_path = tmp_path / "bench.json"
        save_benchmark(records, summary, csv_path, json_path)
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        assert set(rows[0]) == {"instance", "formulation", "status", "cost",
                                "blocking"}
        assert all(row["blocking"] == "" for row in rows
                   if row["formulation"] == "full" or row["status"] == "OPTIMAL")
        assert {row["formulation"] for row in rows} == {"full", "icnn"}
        back = json.loads(json_path.read_text())
        assert back["instances"] == 4
        assert back["formulations"]["icnn"]["setup_s"] > 0.0
        # the sorted-key writer of every other report
        assert json_path.read_text() == canonical_json(summary)


def diamond4(demand=(0.0, 0.5, 0.0, 1.0), limits=1.4):
    """4-cycle with a pure through-bus (no generator, no demand) at bus 2.

    Bus 1 carries demand so its injection varies across samples; only the
    through-bus injection is constant and gets folded away.
    """
    from nkscreen.grid import Network
    lim = np.full(4, float(limits))
    return Network(
        name="diamond4",
        n=4,
        lines=np.array([[0, 1], [1, 2], [2, 3], [0, 3]]),
        susceptance=np.ones(4),
        f_lower=-lim,
        f_upper=lim,
        pmin=np.zeros(4),
        pmax=np.array([10.0, 10.0, 0.0, 0.0]),
        cost=np.array([1.0, 2.0, 0.0, 0.0]),
        demand=np.asarray(demand, dtype=float),
        slack=0,
    ).validate()


class TestDispatchSafety:
    def build(self, net, seed=3, count=40, rel_std=0.1):
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, rel_std=rel_std, seed=seed)
        demands = sample_demands(sampler, count)
        X = np.array([DcopfSolver(net).solve(d).p - d for d in demands])
        reduced = with_box(drop_constant_dims(region, X), X)
        return region, reduced, demands

    def test_full_dimension_region_is_always_safe(self):
        net = ring3(limits=(2.0, 2.0, 2.0), demand=(0.0, 0.5, 0.7))
        region, reduced, demands = self.build(net)
        assert reduced.dim == reduced.n_full
        for r in (region, reduced):
            assert solve_scopf_full(net, demands[0], r)

    def test_folded_generator_dimension_is_unsafe(self):
        # bus 1 has generation headroom, so folding its constant injection
        # away would let dispatch move a coordinate the region no longer sees
        net = ring3(limits=(1.1, 1.1, 1.1))
        region, reduced, demands = self.build(net)
        assert reduced.dim < region.dim
        with pytest.raises(ValueError, match=r"dimension\(s\) \[1\]"):
            solve_scopf_full(net, demands[0], reduced)

    def test_benchmark_rejects_unsafe_region(self):
        net = ring3(limits=(1.1, 1.1, 1.1))
        _, reduced, demands = self.build(net)
        clf = ScaledClassifier(params=l1_ball_net2(radius=1.0))
        with pytest.raises(ValueError, match="folds injection dimension"):
            benchmark_scopf(net, demands[:3], reduced, clf)

    def test_loaded_dropped_bus_is_unsafe(self):
        # bus 2 has neither generation nor demand in the samples, so its
        # injection is folded; demands that load it move that coordinate,
        # and any folded region is refused, whatever the demands
        net = diamond4()
        _, reduced, demands = self.build(net)
        assert list(reduced.dim_map) == [0, 1, 3]
        loaded = demands.copy()
        loaded[:, 2] = 0.1
        for d in (demands[0], loaded[0]):
            with pytest.raises(ValueError, match=r"dimension\(s\) \[2\]"):
                solve_scopf_full(net, d, reduced)
