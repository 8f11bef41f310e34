"""Security-constrained dispatch tests, both formulations."""

import csv
import json

import numpy as np
import pytest

from nkscreen.cli import resolve_case
from nkscreen.datagen import DemandSampler, sample_demands
from nkscreen.grid import DcopfSolver, load_network, solve_dcopf
from nkscreen.icnn import IcnnParams, ScaledClassifier, forward, init_params
from nkscreen.lp import LpProblem, LpStatus, solve
from nkscreen.oracle import scale_fast
from nkscreen.region import build_region, drop_constant_dims, standardize, with_box
from nkscreen.scopf import (
    benchmark_scopf,
    icnn_dispatch_problem,
    region_inequalities,
    region_safe_for_dispatch,
    save_benchmark,
    solve_scopf_full,
    solve_scopf_icnn,
)

from helpers import ring3


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
        base = solve_dcopf(net)
        assert res.formulation == "dcopf"
        assert res
        assert abs(res.cost - base.cost) <= 1e-9

    def test_slack_region_keeps_dcopf_cost(self):
        net = redispatch_net()
        region = build_region(net, k=1)
        loose = type(region)(**{**region.__dict__, "b": region.b + 100.0})
        res = solve_scopf_full(net, net.demand, loose)
        assert abs(res.cost - solve_dcopf(net).cost) <= 1e-9

    def test_small_demand_keeps_dcopf_cost(self):
        # shrinking demand toward zero leaves the security rows slack
        net = redispatch_net()
        region = build_region(net, k=1)
        demand = 0.3 * net.demand
        res = solve_scopf_full(net, demand, region)
        base = solve_dcopf(net, demand)
        assert res
        assert abs(res.cost - base.cost) <= 1e-9

    def test_hand_computed_redispatch(self):
        net = redispatch_net()
        region = build_region(net, k=1)
        res = solve_scopf_full(net, net.demand, region)
        assert res.formulation == "full"
        assert abs(res.cost - 1.6) <= 1e-6
        assert np.allclose(res.p, [0.8, 0.4, 0.0], atol=1e-6)

    def test_cost_dominates_dcopf(self):
        net = redispatch_net()
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, rel_std=0.05, seed=1)
        for d in sample_demands(sampler, 8):
            full = solve_scopf_full(net, d, region)
            base = solve_dcopf(net, d)
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
        assert solve_dcopf(net, np.array([0.0, 0.0, 1.3]))

    def test_standardized_region_same_optimum(self):
        # standardization is an exact affine row rewrite, so when no
        # dimension is folded away the dispatch problem is unchanged
        net = ring3(limits=(2.0, 2.0, 2.0), demand=(0.0, 0.5, 0.7))
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, rel_std=0.1, seed=3)
        demands = sample_demands(sampler, 40)
        X = np.array([solve_dcopf(net, d).p - d for d in demands])
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
        # against the folded region can move the folded coordinate and
        # admit insecure dispatches the full region forbids
        net = ring3(limits=(1.1, 1.1, 1.1))
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, rel_std=0.1, seed=3)
        demands = sample_demands(sampler, 40)
        X = np.array([solve_dcopf(net, d).p - d for d in demands])
        reduced = with_box(drop_constant_dims(region, X), X)
        assert reduced.dim < region.dim
        Xr = reduced.project(X)
        std_region = standardize(reduced, Xr.mean(axis=0), Xr.std(axis=0))
        assert np.array_equal(std_region.membership(X), region.membership(X))
        hazards = 0
        for d in demands[:8]:
            a = solve_scopf_full(net, d, region)
            b = solve_scopf_full(net, d, std_region)
            if b and not a:
                hazards += 1
                violation = region.margins(region.project(b.p - d)).max()
                assert violation > 1e-6
        assert hazards > 0


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
        base = solve_dcopf(net)
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

    def test_input_box_enforced(self):
        # tiny training box: dispatches must keep the network input inside it
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        params = l1_ball_net3(radius=1.2, box=0.5)
        clf = ScaledClassifier(params=params)
        res = solve_scopf_icnn(net, net.demand, clf)
        # |x2| = 0.6 exceeds the 0.5 box no matter the dispatch
        assert res.status is LpStatus.INFEASIBLE

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
    sol = solve(icnn_dispatch_problem(net, demand, clf), backend="simplex")
    cost = float(net.cost @ sol.x[:net.n]) if sol else None
    return sol.status, cost


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

    def test_content_change_invalidates_cache(self):
        net = ring3(limits=(5.0, 5.0, 5.0), demand=(0.0, 0.2, 0.6))
        params = l1_ball_net3(radius=1.2)
        clf = ScaledClassifier(params=params)
        d = net.demand
        base = solve_scopf_icnn(net, d, clf)
        assert abs(base.cost - 1.0) <= 1e-6
        # loosen the set in place: radius 1.2 -> 1.3 lets p0 reach 0.65
        params.b[-1][0] = -1.3
        looser = solve_scopf_icnn(net, d, clf)
        assert looser and abs(looser.cost - 0.95) <= 1e-6
        # a larger scale shrinks the set again: p0 <= 1.3 / 1.05 - 0.6
        clf.r = 1.05
        scaled = solve_scopf_icnn(net, d, clf)
        assert scaled and scaled.cost > looser.cost + 1e-3
        assert clf.decision_values(looser.p - d)[0] > 1e-3
        assert clf.decision_values(scaled.p - d)[0] <= 1e-7
        # back to the first content: the first answer, bit for bit
        params.b[-1][0] = -1.2
        clf.r = 1.0
        back = solve_scopf_icnn(net, d, clf)
        assert back.p.tobytes() == base.p.tobytes()

    def test_highs_backend_agrees(self, case39_setup):
        net, demands, params, mu, sigma, keep = case39_setup
        clf = ScaledClassifier(params=params, r=1.0, mu=mu, sigma=sigma,
                               dim_map=keep)
        for d in demands[:5]:
            warm = solve_scopf_icnn(net, d, clf)
            highs = solve_scopf_icnn(net, d, clf, backend="highs")
            assert warm.status is highs.status
            if warm:
                assert abs(warm.cost - highs.cost) <= 1e-6 * abs(warm.cost)


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
        assert summary["conservativeness_violations"] == 0
        assert summary["max_region_violation"] <= 1e-6
        assert summary["feasible_icnn"] >= 8
        assert summary["mean_excess_cost"] >= 0.0
        assert summary["speedup"] is not None and summary["speedup"] > 0

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
                                "runtime"}
        assert {row["formulation"] for row in rows} == {"full", "icnn"}
        back = json.loads(json_path.read_text())
        assert back["instances"] == 4
        assert "runtime_note" in back
        assert back["icnn_setup_s"] > 0.0


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
        X = np.array([solve_dcopf(net, d).p - d for d in demands])
        reduced = with_box(drop_constant_dims(region, X), X)
        return region, reduced, demands

    def test_full_dimension_region_is_always_safe(self):
        net = ring3(limits=(2.0, 2.0, 2.0), demand=(0.0, 0.5, 0.7))
        region, _, demands = self.build(net)
        assert region_safe_for_dispatch(net, region, demands)

    def test_folded_generator_dimension_is_unsafe(self):
        # bus 1 has generation headroom, so folding its constant injection
        # away would let dispatch move a coordinate the region no longer sees
        net = ring3(limits=(1.1, 1.1, 1.1))
        region, reduced, demands = self.build(net)
        assert reduced.dim < region.dim
        assert not region_safe_for_dispatch(net, reduced, demands)

    def test_benchmark_rejects_unsafe_region(self):
        net = ring3(limits=(1.1, 1.1, 1.1))
        _, reduced, demands = self.build(net)
        clf = ScaledClassifier(params=l1_ball_net2(radius=1.0))
        with pytest.raises(ValueError):
            benchmark_scopf(net, demands[:3], reduced, clf)

    def test_through_bus_fold_is_safe_and_exact(self):
        # bus 2 has neither generation nor demand: its injection is zero for
        # every dispatch, so optimizing over the folded region is exact
        net = diamond4()
        region, reduced, demands = self.build(net)
        assert reduced.dim == 3
        assert region_safe_for_dispatch(net, reduced, demands)
        for d in demands[:10]:
            a = solve_scopf_full(net, d, region)
            b = solve_scopf_full(net, d, reduced)
            assert bool(a) == bool(b)
            if a:
                assert abs(a.cost - b.cost) <= 1e-7

    def test_loaded_dropped_bus_is_unsafe(self):
        # same network, but the demand instances load the through-bus
        net = diamond4()
        region, reduced, demands = self.build(net)
        loaded = demands.copy()
        loaded[:, 2] = 0.1
        assert not region_safe_for_dispatch(net, reduced, loaded)
