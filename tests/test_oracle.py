import copy
import dataclasses
import itertools

import numpy as np
import pytest

from nkscreen.icnn import (
    IcnnParams, forward, init_params, project_convex, raw_forward,
)
from nkscreen.lp import (
    _AT_LB, _AT_UB, TOL_FEAS, LpProblem, LpSolution, SimplexEngine,
    solve_highs,
)
from nkscreen.oracle import (
    DegenerateRatio, EmptyPredictedSet, ScalingOracle, SublevelSolver,
    certify, epigraph_constraints, nearest_first, r_gradient, scale_fast,
)
from nkscreen.lp import NumericalFailure
from helpers import scale_full, sublevel_max
from test_lp import vertex_enumeration_max


def depth1_support_oracle(params, c):
    """Exact support by relu-pattern enumeration (depth-1 nets only).

    Splits the box into the cells where each hidden unit is on or off; within
    a cell the network is affine, so each cell's contribution is a tiny LP
    solved by brute-force vertex enumeration.  Independent of the epigraph
    encoding and of the production solver.
    """
    assert params.depth == 1
    D0, b0 = params.D[0], params.b[0]
    W = params.W[0][0]
    D1, b1 = params.D[1][0], params.b[1][0]
    w = len(b0)
    best = None
    for pattern in itertools.product([0, 1], repeat=w):
        rows, rhs = [], []
        for i, on in enumerate(pattern):
            if on:
                rows.append(-D0[i])
                rhs.append(b0[i])
            else:
                rows.append(D0[i])
                rhs.append(-b0[i])
        act = np.array(pattern, dtype=float) * W
        rows.append(act @ D0 + D1)
        rhs.append(-b1 - act @ b0)
        val = vertex_enumeration_max(np.asarray(c, float), np.array(rows),
                                     np.array(rhs), params.box_lower,
                                     params.box_upper)
        if val is not None and (best is None or val > best):
            best = val
    return best


def l1_ball_net(radius=1.0, box=10.0):
    D0 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return IcnnParams(
        W=[np.ones((1, 4))],
        D=[D0, np.zeros((1, 2))],
        b=[np.zeros(4), np.array([-radius])],
        box_lower=np.array([-box, -box]),
        box_upper=np.array([box, box]),
    ).validate()


def relu_line_net(slope=2.0, box=5.0):
    """f(x) = slope * relu(x) - 1 in one dimension."""
    return IcnnParams(
        W=[np.array([[slope]])],
        D=[np.array([[1.0]]), np.zeros((1, 1))],
        b=[np.zeros(1), np.array([-1.0])],
        box_lower=np.array([-box]),
        box_upper=np.array([box]),
    ).validate()


def chebyshev_net(radius=1.0, box=10.0):
    """f(x) = max(|x1|, |x2|)/radius - 1: predicted set [-radius, radius]^2.

    Nested pairwise maxima max(u, v) = v + relu(u - v) keep every inter-layer
    weight nonnegative:
        z1 = relu(2 x1)                       (z1 - x1 = |x1|)
        z2 = relu(-x1 - x2 + z1)              (x2 + z2 = max(|x1|, x2))
        z3 = relu(2 x2 + z2)                  (-x2 + z3 = max of all four)
    """
    s = 1.0 / radius
    return IcnnParams(
        W=[np.array([[1.0]]), np.array([[1.0]]), np.array([[s]])],
        D=[np.array([[2.0, 0.0]]), np.array([[-1.0, -1.0]]),
           np.array([[0.0, 2.0]]), np.array([[0.0, -s]])],
        b=[np.zeros(1), np.zeros(1), np.zeros(1), np.array([-1.0])],
        box_lower=np.array([-box, -box]),
        box_upper=np.array([box, box]),
    ).validate()


class TestSublevelMax:
    def test_l1_ball_closed_forms(self):
        net = l1_ball_net()
        for c, expected in [([1.0, 0.0], 1.0), ([0.0, -1.0], 1.0),
                            ([1.0, 1.0], 1.0), ([2.0, 1.0], 2.0),
                            ([-3.0, 0.0], 3.0)]:
            res = sublevel_max(net, np.array(c))
            assert res.value == pytest.approx(expected, abs=1e-9)
            assert forward(net, res.x) <= 1e-7

    def test_matches_pattern_enumeration(self):
        hits = 0
        for seed in range(24):
            net = init_params(2, depth=1, width=3, box_lower=-2 * np.ones(2),
                              box_upper=2 * np.ones(2), seed=seed)
            # recentre so the predicted set is usually nonempty
            net.b[1] = net.b[1] - raw_forward(net, np.zeros(2)) - 0.3
            rng = np.random.default_rng(seed + 1000)
            c = rng.normal(size=2)
            want = depth1_support_oracle(net, c)
            if want is None:
                with pytest.raises(EmptyPredictedSet):
                    sublevel_max(net, c)
                continue
            got = sublevel_max(net, c)
            assert got.value == pytest.approx(want, abs=1e-7)
            hits += 1
        assert hits >= 15

    def test_box_binds_when_sublevel_unbounded(self):
        net = relu_line_net(slope=2.0, box=5.0)
        res = sublevel_max(net, np.array([-1.0]))  # pushes to the box floor
        assert res.value == pytest.approx(5.0, abs=1e-9)
        assert res.output_dual == pytest.approx(0.0, abs=1e-9)

    def test_optimum_is_tight_and_dominant(self):
        for seed in (3, 8, 15):
            net = init_params(3, depth=2, width=5, box_lower=-2 * np.ones(3),
                              box_upper=2 * np.ones(3), seed=seed)
            net.b[2] = net.b[2] - raw_forward(net, np.zeros(3)) - 0.5
            rng = np.random.default_rng(seed)
            c = rng.normal(size=3)
            res = sublevel_max(net, c)
            assert forward(net, res.x) <= 1e-7
            assert res.x @ c == pytest.approx(res.value, abs=1e-8)
            pts = rng.uniform(-2, 2, size=(3000, 3))
            feas = pts[forward(net, pts) <= 0]
            assert len(feas) > 0
            assert np.all(feas @ c <= res.value + 1e-9)

    def test_backends_agree(self):
        for seed in range(8):
            net = init_params(3, depth=2, width=4, box_lower=-1.5 * np.ones(3),
                              box_upper=1.5 * np.ones(3), seed=seed)
            net.b[2] = net.b[2] - raw_forward(net, np.zeros(3)) - 0.4
            c = np.random.default_rng(seed).normal(size=3)
            a = sublevel_max(net, c)
            A, b, lb, ub = epigraph_constraints(net)
            obj = np.concatenate([c, np.zeros(A.shape[1] - 3)])
            h = solve_highs(LpProblem(c=obj, A=A, b=b, lb=lb, ub=ub))
            assert a.value == pytest.approx(h.objective, rel=1e-8, abs=1e-8)

    def test_empty_set_raises(self):
        net = l1_ball_net()
        net.b[1] = np.array([5.0])  # raw >= 5 everywhere
        with pytest.raises(EmptyPredictedSet):
            sublevel_max(net, np.array([1.0, 0.0]))

    def test_zero_direction_rejected(self):
        net = l1_ball_net()
        with pytest.raises(ValueError):
            sublevel_max(net, np.zeros(2))

    def test_reload_matches_fresh(self):
        net1 = init_params(3, depth=2, width=4, box_lower=-np.ones(3),
                           box_upper=np.ones(3), seed=0)
        net1.b[2] = net1.b[2] - raw_forward(net1, np.zeros(3)) - 0.5
        net2 = net1.copy()
        net2.D = [d * 1.1 for d in net2.D]
        solver = SublevelSolver(net1)
        dirs = np.random.default_rng(2).normal(size=(6, 3))
        for d in dirs:
            solver.support(d)
        solver.reload(net2)
        fresh = SublevelSolver(net2)
        for d in dirs:
            assert solver.support(d).value == pytest.approx(
                fresh.support(d).value, abs=1e-9)

    def test_epigraph_shapes(self):
        net = init_params(4, depth=3, width=6, box_lower=-np.ones(4),
                          box_upper=np.ones(4), seed=0)
        A, b, lb, ub = epigraph_constraints(net)
        assert A.shape == (19, 22) and b.shape == (19,)
        assert np.all(lb[4:] == 0) and np.all(np.isinf(ub[4:]))


def square_region(t=0.5):
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return A, np.full(4, t)


class TestScaling:
    def test_fast_closed_form(self):
        net = l1_ball_net()
        A, b = square_region(t=0.5)
        res = scale_fast(net, A, b)
        assert res.r == pytest.approx(2.0, abs=1e-9)
        assert res.row == 0  # all rows tie; lowest index wins
        assert res.support == pytest.approx(1.0, abs=1e-9)

    def test_fast_can_inflate(self):
        net = l1_ball_net()
        A, b = square_region(t=4.0)
        res = scale_fast(net, A, b)
        assert res.r == pytest.approx(0.25, abs=1e-9)

    def test_degenerate_ratio_raises(self):
        # supports all negative: the ratio collapses below the floor
        net = relu_line_net(slope=1.0, box=5.0)
        net.box_lower = np.array([-5.0])
        net.box_upper = np.array([-2.0])  # set sits left of the origin
        with pytest.raises(DegenerateRatio):
            scale_fast(net, np.array([[1.0]]), np.array([1.0]))

    def test_chebyshev_box_shrinks_by_half(self):
        net = chebyshev_net(radius=1.0)
        A, b = square_region(t=0.5)
        res = scale_full(net, A, b)
        assert res.r == pytest.approx(2.0, abs=1e-8)

    def test_contained_set_expands(self):
        net = chebyshev_net(radius=0.1)
        A, b = square_region(t=0.5)
        res = scale_full(net, A, b)
        assert res.r == pytest.approx(0.2, abs=1e-8)
        fast = scale_fast(net, A, b)
        assert fast.r == pytest.approx(0.2, abs=1e-9)

    def test_binding_row_is_tight_after_scaling(self):
        for seed in (2, 7):
            net = init_params(2, depth=2, width=4, box_lower=-2 * np.ones(2),
                              box_upper=2 * np.ones(2), seed=seed)
            net.b[2] = net.b[2] - raw_forward(net, np.zeros(2)) - 0.5
            rng = np.random.default_rng(seed)
            A = rng.normal(size=(8, 2))
            b = rng.uniform(0.3, 1.5, size=8)
            res = scale_fast(net, A, b)
            report = certify(net, A, b, r=res.r)
            assert report.supports[res.row] == pytest.approx(b[res.row],
                                                             abs=1e-6)

    def test_full_pinned_matches_fast(self):
        for seed in (1, 4, 9, 16):
            net = init_params(2, depth=1, width=4, box_lower=-2 * np.ones(2),
                              box_upper=2 * np.ones(2), seed=seed)
            net.b[1] = net.b[1] - raw_forward(net, np.zeros(2)) - 0.5
            rng = np.random.default_rng(seed)
            A = rng.normal(size=(7, 2))
            b = rng.uniform(0.5, 2.0, size=7)
            fast = scale_fast(net, A, b)
            full = scale_full(net, A, b)
            assert full.r == pytest.approx(fast.r, abs=1e-8)

    def test_full_result_certifies(self):
        net = l1_ball_net()
        rng = np.random.default_rng(5)
        A = rng.normal(size=(9, 2))
        b = rng.uniform(0.5, 2.0, size=9)
        res = scale_full(net, A, b)
        report = certify(net, A, b, r=res.r)
        assert report.reliable


def random_instance(seed, m=40, n=3):
    """A depth-2 classifier and m random region rows with positive offsets."""
    net = init_params(n, depth=2, width=5, box_lower=-2 * np.ones(n),
                      box_upper=2 * np.ones(n), seed=seed)
    net.b[2] = net.b[2] - raw_forward(net, np.zeros(n)) - 0.5
    rng = np.random.default_rng(seed + 99)
    A = rng.normal(size=(m, n))
    b = rng.uniform(0.4, 2.0, size=m)
    return net, A, b


class TestCertify:
    def test_subset_accepts(self):
        net = l1_ball_net()
        A, b = square_region(t=1.5)
        report = certify(net, A, b)
        assert report.reliable
        np.testing.assert_allclose(report.supports, 1.0, atol=1e-9)
        np.testing.assert_allclose(report.margins, 0.5, atol=1e-9)
        assert report.n_lp == 4

    def test_violation_rejected_then_fixed_by_scaling(self):
        net = l1_ball_net()
        A, b = square_region(t=0.8)
        bad = certify(net, A, b)
        assert not bad and bad.worst_row == 0
        assert bad.margins.min() == pytest.approx(-0.2, abs=1e-9)
        res = scale_fast(net, A, b)
        good = certify(net, A, b, r=res.r)
        assert good.reliable

    def test_shift_moves_supports(self):
        net = l1_ball_net()
        A, b = square_region(t=1.0)
        report = certify(net, A, b, r=1.0, v=np.array([0.5, 0.0]))
        np.testing.assert_allclose(report.supports, [0.5, 1.5, 1.0, 1.0],
                                   atol=1e-9)

    def test_violation_listing(self):
        net = l1_ball_net()
        A, b = square_region(t=0.8)
        report = certify(net, A, b)
        assert report.verdict == "violated"
        assert len(report.violations) == 4
        j, z, bj = report.violations[0]
        assert j == 0
        assert z == pytest.approx(1.0, abs=1e-9)
        assert bj == pytest.approx(0.8)
        d = report.to_dict()
        assert d["verdict"] == "violated" and len(d["violations"]) == 4

    def test_scale_fast_always_certifies(self):
        for seed in (2, 7, 11):
            net = init_params(2, depth=2, width=4, box_lower=-2 * np.ones(2),
                              box_upper=2 * np.ones(2), seed=seed)
            net.b[2] = net.b[2] - raw_forward(net, np.zeros(2)) - 0.5
            rng = np.random.default_rng(seed)
            A = rng.normal(size=(8, 2))
            b = rng.uniform(0.3, 1.5, size=8)
            res = scale_fast(net, A, b)
            assert certify(net, A, b, r=res.r).reliable


    def test_rejects_solver_of_other_weights(self):
        net = l1_ball_net()
        A, b = square_region(t=1.5)
        for other in (l1_ball_net(radius=2.0), l1_ball_net(box=5.0)):
            solver = SublevelSolver(other)
            with pytest.raises(ValueError):
                certify(net, A, b, solver=solver)
            with pytest.raises(ValueError):
                scale_fast(net, A, b, solver=solver)
            with pytest.raises(ValueError):
                scale_full(net, A, b, solver=solver)
            if other.box_upper[0] == net.box_upper[0]:
                solver.reload(net)
                assert certify(net, A, b, solver=solver).reliable
                continue
            # the engine's bounds are the box: weights of another box are
            # refused, and the solver keeps answering for its own weights
            with pytest.raises(ValueError, match="box"):
                solver.reload(net)
            assert solver.holds(other) and not solver.holds(net)
            assert solver.support(A[0]).value == pytest.approx(1.0, abs=1e-9)
            with pytest.raises(ValueError):
                certify(net, A, b, solver=solver)

    def test_report_counts_solver_work(self):
        net, A, b = random_instance(4, m=12)
        report = certify(net, A, b)
        d = report.to_dict()
        assert d["n_lp"] == 12 and d["bases_reused"] == 0
        assert d["pivots"] > 0 and d["refactorizations"] > 0
        assert d["slack_retries"] == 0 and d["bland_switches"] == 0

    def test_second_sweep_reprices_kept_bases(self):
        net, A, b = random_instance(6, m=20)
        solver = SublevelSolver(net)
        values = np.array([solver.support(row).value for row in A])
        assert solver.counters()["bases_reused"] == 0
        again = certify(net, A, b, r=2.0, solver=solver)
        assert again.n_lp == 20 and again.bases_reused == 20
        assert again.pivots == 0
        assert again.supports.tobytes() == (values / 2.0).tobytes()
        # a fresh solver pivots, and agrees
        cold = certify(net, A, b, r=2.0)
        assert cold.pivots > 0 and cold.bases_reused == 0
        np.testing.assert_allclose(cold.supports, again.supports, atol=1e-9)

    def test_reload_keeps_bases(self):
        net, A, b = random_instance(8, m=15)
        solver = SublevelSolver(net)
        for row in A:
            solver.support(row)
        moved = net.copy()
        moved.b[0] += 0.05
        solver.reload(moved)
        got = [solver.support(row).value for row in A]
        assert solver.counters()["bases_reused"] == 15
        want = [sublevel_max(moved, row).value for row in A]
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_final_certification_of_training_pivots_nowhere(self):
        # the path of training.train: a later exact rescale, then
        # certification with the oracle's solver.  Every row has a kept
        # basis, so the seeds and every wave run as batches, each row from
        # its own basis, re-priced in zero pivots to the rescale's bytes
        net, A, b = random_instance(5, m=150)
        oracle = ScalingOracle(net, A, b)
        oracle.rescale(net)
        drift(net, np.random.default_rng(5))
        swept, sweep = [], oracle.solver.sweep

        def recorded(D, **kwargs):
            swept.append(sweep(D, **kwargs))
            return swept[-1]

        oracle.solver.sweep = recorded
        scale = oracle.rescale(net)
        del oracle.solver.sweep
        zeta = np.array([res.value for res in swept[0]])
        # certification visits the rows in another order than the rescale,
        # and each row still starts from its own kept basis
        assert nearest_first(A).tolist() != list(range(len(b)))
        report = certify(net, A, b, r=scale.r, solver=oracle.solver)
        assert report.reliable and report.pivots == 0
        assert report.supports.tobytes() == (zeta / scale.r).tobytes()
        assert report.lockstep_rounds == 0
        assert report.batched == report.bases_reused == report.n_lp == len(b)
        assert report.refactorizations <= len(b)
        assert report.supports[scale.row] == pytest.approx(b[scale.row],
                                                           abs=1e-12)


def index_order_sweep(net, A, b):
    """Supports, verdict and pivots of one fresh solver in row order."""
    solver = SublevelSolver(net)
    zeta = np.array([solver.support(row).value for row in A])
    verdict = "violated" if np.any(zeta > b + TOL_FEAS) else "reliable"
    return zeta, verdict, solver.counters()["pivots"]


class TestNearestFirst:
    def test_order_is_a_permutation_from_row_zero(self):
        A = np.random.default_rng(5).normal(size=(30, 4))
        order = nearest_first(A)
        assert order[0] == 0
        assert sorted(order.tolist()) == list(range(30))
        assert nearest_first(A[:1]).tolist() == [0]

    def test_parallel_rows_follow_each_other(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(5, 3))
        # row k + 5 is row k scaled: each pair is exactly parallel
        A = np.vstack([base, base * rng.uniform(0.5, 3.0, size=(5, 1))])
        order = nearest_first(A).tolist()
        for k in range(5):
            assert abs(order.index(k) - order.index(k + 5)) == 1

    def test_each_step_takes_the_nearest_unvisited_row(self):
        A = np.random.default_rng(7).normal(size=(12, 3))
        U = A / np.linalg.norm(A, axis=1)[:, None]
        order = nearest_first(A)
        for k in range(1, len(A)):
            left = order[k:]
            dots = U[left] @ U[order[k - 1]]
            assert order[k] == left[np.argmax(dots)]

    def test_ties_go_to_the_lowest_index(self):
        # from row 0, rows 1 and 2 tie at 0; from row 1, row 3 (0) beats
        # row 2 (-1)
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]])
        assert nearest_first(A).tolist() == [0, 1, 3, 2]

    def test_supports_and_verdict_match_index_order(self):
        for seed in (1, 4, 9):
            net, A, b = random_instance(seed, m=60)
            b = b * 0.6  # some rows fail
            report = certify(net, A, b)
            zeta, verdict, _ = index_order_sweep(net, A, b)
            assert report.verdict == verdict
            np.testing.assert_allclose(report.supports, zeta, atol=1e-9)
            for j in range(0, 60, 7):
                assert report.supports[j] == pytest.approx(
                    sublevel_max(net, A[j]).value, abs=1e-9)

    def test_violations_and_failed_rows_ascend(self, monkeypatch):
        net, A, b = random_instance(2, m=40)
        assert nearest_first(A).tolist() != list(range(40))
        report = certify(net, A, b * 0.3)
        rows = [j for j, _, _ in report.violations]
        assert len(rows) > 5 and rows == sorted(rows)
        # rows whose support LP fails are listed in row order too: their
        # solves, chained or batched, end optimal at a NaN objective
        spoil_engine(monkeypatch, net, A[[3, 17, 25, 38]], "objective")
        report = certify(net, A, b * 100.0)
        assert report.verdict == "unknown"
        assert report.failed_rows == [3, 17, 25, 38]
        assert report.to_dict()["failed_rows"] == [3, 17, 25, 38]

    def test_fewer_pivots_than_index_order(self):
        net, A, b = random_instance(11, m=200, n=4)
        report = certify(net, A, b)
        _, _, index_pivots = index_order_sweep(net, A, b)
        assert report.pivots < index_pivots
        # pivot counts are deterministic
        assert certify(net, A, b).pivots == report.pivots


class TestGradient:
    def test_closed_form_one_dim(self):
        slope, t = 2.0, 0.4
        net = relu_line_net(slope=slope)
        A, b = np.array([[1.0]]), np.array([t])
        res = scale_fast(net, A, b)
        assert res.r == pytest.approx(1.0 / (slope * t), abs=1e-9)
        assert res.output_dual == pytest.approx(1.0 / slope, abs=1e-9)
        g = r_gradient(net, res, b)
        assert g.W[0][0, 0] == pytest.approx(-1.0 / (slope**2 * t), abs=1e-8)
        assert g.b[1][0] == pytest.approx(-1.0 / (slope * t), abs=1e-8)
        assert g.D[0][0, 0] == pytest.approx(-1.0 / (slope * t), abs=1e-8)

    def test_zero_when_box_binds(self):
        net = relu_line_net(slope=2.0, box=0.1)  # box cuts before raw does
        A, b = np.array([[1.0]]), np.array([1.0])
        res = scale_fast(net, A, b)
        assert res.r == pytest.approx(0.1, abs=1e-9)
        g = r_gradient(net, res, b)
        assert all(np.all(gi == 0) for gi in g.W + g.D + g.b)

    def test_matches_finite_differences(self):
        for seed in (0, 3, 12):
            net = init_params(2, depth=1, width=3, box_lower=-2 * np.ones(2),
                              box_upper=2 * np.ones(2), seed=seed)
            net.b[1] = net.b[1] - raw_forward(net, np.zeros(2)) - 0.5
            rng = np.random.default_rng(seed + 50)
            A = rng.normal(size=(5, 2))
            b = rng.uniform(0.5, 1.5, size=5)
            res = scale_fast(net, A, b)
            grads = r_gradient(net, res, b)
            h = 1e-6

            def r_of(arr, i, j):
                old = arr[i, j]
                arr[i, j] = old + h
                up = scale_fast(net, A, b).r
                arr[i, j] = old - h
                dn = scale_fast(net, A, b).r
                arr[i, j] = old
                return (up - dn) / (2 * h)

            for arr, got in [(net.W[0], grads.W[0]), (net.D[0], grads.D[0]),
                             (net.D[1], grads.D[1])]:
                for i in range(arr.shape[0]):
                    for j in range(arr.shape[1]):
                        fd = r_of(arr, i, j)
                        assert got[i, j] == pytest.approx(fd, rel=1e-4,
                                                          abs=1e-7)


def kept_basis_values(solver, direction):
    """Basic values and their bounds for a direction's kept basis under the
    solver's present matrix, solved here with numpy, not by the engine."""
    snap = solver._bases[np.asarray(direction, dtype=float).tobytes()]
    m = len(solver.b)
    T = np.hstack([solver.A, np.eye(m)])
    L = np.concatenate([solver.lb, np.zeros(m)])
    U = np.concatenate([solver.ub, np.full(m, np.inf)])
    xn = np.where(snap.vstat == _AT_UB, U,
                  np.where(snap.vstat == _AT_LB, L, 0.0))
    xn[snap.basis] = 0.0
    xb = np.linalg.solve(T[:, snap.basis], solver.b - T @ xn)
    return xb, L[snap.basis], U[snap.basis]


def drift(net, rng, step=0.02):
    for arr in net.D + net.b:
        arr += step * rng.normal(size=arr.shape)


class TestScalingOracle:
    def test_kept_bases_match_cold_solver_across_drift(self):
        for seed in (1, 5, 9):
            net, A, b = random_instance(seed)
            oracle = ScalingOracle(net, A, b)
            rng = np.random.default_rng(seed)
            for step in range(5):
                if step:
                    drift(net, rng)
                got = oracle.rescale(net)
                # every row again from the basis the rescale kept for it
                warm = certify(net, A, b, solver=oracle.solver)
                assert warm.pivots == 0 and warm.bases_reused == len(b)
                cold = certify(net, A, b)
                np.testing.assert_allclose(warm.supports, cold.supports,
                                           rtol=0, atol=1e-9)
                want = scale_fast(net, A, b)
                assert got.row == want.row
                assert got.r == pytest.approx(want.r, abs=1e-9)
                assert got.n_lp == len(b)

    def test_infeasible_kept_basis_takes_phase_one(self):
        # f(x) = slope relu(x) - 1 on [-5, 5]: the +x support is 1/slope
        # with x and z basic; at slope 0.1 that basis puts x at 10, past
        # the box
        solver = SublevelSolver(relu_line_net(slope=2.0))
        assert solver.support([1.0]).value == pytest.approx(0.5, abs=1e-12)
        flat = relu_line_net(slope=0.1)
        solver.reload(flat)
        xb, lo, hi = kept_basis_values(solver, [1.0])
        assert np.any(xb > hi + TOL_FEAS) or np.any(xb < lo - TOL_FEAS)
        got = solver.support([1.0])
        assert solver.counters()["bases_reused"] == 1
        assert got.value == pytest.approx(5.0, abs=1e-12)
        assert got.value == pytest.approx(sublevel_max(flat, [1.0]).value,
                                          abs=1e-12)

    def test_repeated_rescale_tracks_parameter_drift(self):
        net, A, b = random_instance(2)
        oracle = ScalingOracle(net, A, b)
        rng = np.random.default_rng(0)
        pivots = []
        for step in range(6):
            if step:
                drift(net, rng)
            before = oracle.solver.counters()["pivots"]
            got = oracle.rescale(net)
            pivots.append(oracle.solver.counters()["pivots"] - before)
            want = scale_fast(net, A, b)
            assert got.row == want.row
            assert got.r == pytest.approx(want.r, abs=1e-9)
        # later rescales start every row from its own basis
        assert max(pivots[1:]) < pivots[0]
        assert oracle.solver.counters()["bases_reused"] == 5 * len(b)

    def test_rejects_nonpositive_offsets(self):
        net, A, b = random_instance(0)
        b[3] = 0.0
        with pytest.raises(ValueError):
            ScalingOracle(net, A, b)


def row_by_row(solver, D, keep_going=False):
    """``support`` of each row of D on solver, one by one, as a sweep with
    ``keep_going`` lists them: a failed row's NumericalFailure in its place."""
    out = []
    for d in D:
        try:
            out.append(solver.support(d))
        except NumericalFailure as exc:
            if not keep_going:
                raise
            out.append(exc)
    return out


def sweep_outcome(fn):
    """(results, None), or (None, name of the exception fn raised)."""
    try:
        return fn(), None
    except (EmptyPredictedSet, NumericalFailure) as exc:
        return None, type(exc).__name__


def solver_bytes(solver):
    """The bytes a sweep leaves behind: every kept snapshot and the
    engine's basis, statuses, inverse, x and objective."""
    eng = solver.engine
    kept = sorted((k, s.basis.tobytes(), s.vstat.tobytes())
                  for k, s in solver._bases.items())
    return (kept, eng.basis.tobytes(), eng.vstat.tobytes(),
            eng.B_inv.tobytes(), eng.x.tobytes(), eng.c.tobytes(),
            eng.data_version)


def result_bytes(results):
    return [type(r).__name__ if isinstance(r, Exception)
            else (np.float64(r.value).tobytes(), r.x.tobytes(),
                  np.float64(r.output_dual).tobytes())
            for r in results]


# counters that a batch keeps equal to the solves one by one
SAME_WORK = ("n_lp", "pivots", "slack_retries", "bland_switches",
             "bases_reused")


class TestBatchedSweep:
    """A sweep whose every row has a kept basis runs as stacked batches,
    and gives what the rows solved one by one give, byte for byte."""

    @staticmethod
    def compare(solver, D, keep_going=False):
        """Sweep D batched on a copy of solver and row by row on another;
        assert they agree and return the batched copy, its results and the
        exception name (or None)."""
        ref, got = copy.deepcopy(solver), copy.deepcopy(solver)
        want, want_exc = sweep_outcome(lambda: row_by_row(ref, D, keep_going))
        res, exc = sweep_outcome(lambda: got.sweep(D, keep_going=keep_going))
        assert exc == want_exc
        if want is not None:
            assert result_bytes(res) == result_bytes(want)
        assert solver_bytes(got) == solver_bytes(ref)
        c_ref, c_got = ref.counters(), got.counters()
        assert {k: c_got[k] for k in SAME_WORK} == \
            {k: c_ref[k] for k in SAME_WORK}
        return got, res, exc

    @staticmethod
    def instance(seed, depth, m=40):
        n = 3 + seed % 3
        net = init_params(n, depth=depth, width=6 + seed % 4,
                          box_lower=-np.ones(n), box_upper=np.ones(n),
                          seed=seed)
        net.b[-1] = net.b[-1] - raw_forward(net, np.zeros(n)) - 0.5
        D = np.random.default_rng(seed + 7).normal(size=(m, n))
        return net, D

    @staticmethod
    def moved(net, rng, step):
        net = net.copy()
        for arr in net.W + net.D + net.b:
            arr += step * rng.normal(size=arr.shape)
        return project_convex(net)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_equals_row_by_row_across_weight_changes(self, depth,
                                                      monkeypatch):
        # record which loop each row takes in the solves one by one
        seen = {"zero": 0, "dual": 0, "primal": 0, "phase1": 0}
        iterate, dual_iterate = SimplexEngine._iterate, \
            SimplexEngine._dual_iterate

        def spy_iterate(self, phase1, iter_budget, rc=None):
            out = iterate(self, phase1, iter_budget, rc)
            if getattr(self, "spied", False):
                seen["phase1" if phase1 else "primal"] += 1
            return out

        def spy_dual(self, rc, iter_budget):
            out = dual_iterate(self, rc, iter_budget)
            if getattr(self, "spied", False):
                seen["dual" if out[1] else "zero"] += 1
            return out

        monkeypatch.setattr(SimplexEngine, "_iterate", spy_iterate)
        monkeypatch.setattr(SimplexEngine, "_dual_iterate", spy_dual)
        batched = rounds = 0
        for seed in range(4):
            net, D = self.instance(seed, depth)
            solver = SublevelSolver(net)
            solver.sweep(D)  # the first sweep chains, one row by one
            assert solver.counters()["batched"] == 0
            rng = np.random.default_rng(seed)
            for step in (0.02, 0.1, 0.3, 0.02):
                net = self.moved(net, rng, step)
                solver.reload(net)
                solver.engine.spied = True
                got, _, exc = self.compare(solver, D)
                solver.engine.spied = False
                if exc is not None:
                    break
                batched += got.counters()["batched"] \
                    - solver.counters()["batched"]
                rounds += got.counters()["lockstep_rounds"] \
                    - solver.counters()["lockstep_rounds"]
                solver = got
        assert batched > 0 and rounds > 0
        # every kind of member met, as the rows solved one by one count
        # them: no pivot, dual pivots, primal pivots, phase 1 first
        assert min(seen.values()) > 0, seen

    def test_bland_members_match(self, monkeypatch):
        # every pivot counts as a stall: each pivoting member switches to
        # Bland's rule, which the engine runs
        import nkscreen.lp as lp

        net, D = self.instance(3, 2)
        solver = SublevelSolver(net)
        solver.sweep(D)
        monkeypatch.setattr(lp, "_STALL_LIMIT", -1)
        net = self.moved(net, np.random.default_rng(3), 0.1)
        solver.reload(net)
        before = solver.counters()["bland_switches"]
        got, _, exc = self.compare(solver, D)
        assert exc is None
        assert got.counters()["bland_switches"] > before

    def test_empty_set_raises_at_the_same_row(self):
        net, D = self.instance(5, 1)
        solver = SublevelSolver(net)
        solver.sweep(D)
        empty = net.copy()
        empty.b[-1] = empty.b[-1] + 1e3  # raw > 0 everywhere in the box
        solver.reload(empty)
        before = solver.counters()["n_lp"]
        got, _, exc = self.compare(solver, D)
        assert exc == "EmptyPredictedSet"
        assert got.counters()["n_lp"] == before + 1

    def test_failed_rows_end_in_certify(self, monkeypatch):
        # a pivot budget of 2 fails every row that needs more: the batch
        # hands those rows to the engine, which raises, and certify lists
        # them as failed while the sweep goes on
        import nkscreen.lp as lp

        net, A, b = random_instance(4, m=40)
        solver = SublevelSolver(net)
        certify(net, A, b, solver=solver)
        moved = self.moved(net, np.random.default_rng(4), 0.1)
        solver.reload(moved)
        monkeypatch.setattr(lp, "_pivot_budget", lambda m: 2)
        order = nearest_first(A)
        got, res, exc = self.compare(solver, A[order], keep_going=True)
        assert exc is None
        failed = sorted(int(j) for j, r in zip(order, res)
                        if isinstance(r, NumericalFailure))
        assert 0 < len(failed) < len(b)
        report = certify(moved, A, 100.0 * b, solver=solver)
        assert report.verdict == "unknown"
        assert report.failed_rows == failed
        assert report.bases_reused == len(b)
        ok = [j for j in range(len(b)) if j not in failed]
        want = {int(j): r.value for j, r in zip(order, res)
                if not isinstance(r, NumericalFailure)}
        assert [report.supports[j] for j in ok] == [want[j] for j in ok]

    def test_training_counts_batched_rows(self):
        # the final certification reprices the rows the final rescale left
        # in one batch, with no pivot and no lockstep round
        net, A, b = random_instance(3)
        oracle = ScalingOracle(net, A, b)
        oracle.rescale(net)
        assert oracle.solver.counters()["batched"] == 0
        before = oracle.solver.counters()
        report = certify(net, A, b, solver=oracle.solver)
        after = oracle.solver.counters()
        assert after["batched"] - before["batched"] == len(b)
        assert after["lockstep_rounds"] == before["lockstep_rounds"]
        assert report.pivots == 0 and report.n_lp == len(b)


def chained_certification(net, A, b):
    """Supports, verdict, worst row and violations of one fresh solver
    chaining every row in nearest-first order, one LP at a time."""
    solver = SublevelSolver(net)
    zeta = np.full(len(A), np.nan)
    for j in nearest_first(A):
        zeta[j] = solver.support(A[j]).value
    bad = [(int(j), float(zeta[j]), float(b[j]))
           for j in np.flatnonzero(zeta > b + TOL_FEAS)]
    return zeta, ("violated" if bad else "reliable"), \
        int(np.argmin(b - zeta)), bad


def spoil_engine(monkeypatch, net, directions, field="x"):
    """The engine answers the support LPs of ``directions`` optimal at a
    NaN point (``field`` "x") or with a NaN objective, whether it solves
    them chained or in a batch."""
    width = epigraph_constraints(net)[0].shape[1]
    broken = set()
    for d in np.atleast_2d(np.asarray(directions, dtype=float)):
        c = np.zeros(width)
        c[:len(d)] = d
        broken.add(c.tobytes())

    def spoil(sol, c):
        if not isinstance(sol, LpSolution) or not sol \
                or np.asarray(c, dtype=float).tobytes() not in broken:
            return sol
        if field == "x":
            return dataclasses.replace(sol, x=np.full_like(sol.x, np.nan))
        return dataclasses.replace(sol, objective=np.nan)

    resolve, solve_each = SimplexEngine.resolve_objective, \
        SimplexEngine.solve_each
    monkeypatch.setattr(SimplexEngine, "resolve_objective",
                        lambda self, c: spoil(resolve(self, c), c))
    monkeypatch.setattr(
        SimplexEngine, "solve_each",
        lambda self, C, snaps: [(spoil(sol, c), snap) for c, (sol, snap)
                                in zip(C, solve_each(self, C, snaps))])


class TestWaves:
    """A fresh certification chains every 64th row of the nearest-first
    order and solves the others in batched waves from solved neighbours,
    with the supports of the chain."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_waves_equal_the_chain(self, depth):
        waves_met = 0
        for seed in range(4):
            net, A = TestBatchedSweep.instance(seed, depth, m=60)
            b = np.random.default_rng(seed).uniform(0.3, 1.5, size=60)
            report = certify(net, A, b)
            zeta, verdict, worst, bad = chained_certification(net, A, b)
            np.testing.assert_allclose(report.supports, zeta, rtol=0,
                                       atol=1e-9)
            assert report.verdict == verdict
            assert report.worst_row == worst
            assert [j for j, _, _ in report.violations] == \
                [j for j, _, _ in bad]
            assert report.failed_rows == [] and report.n_lp == 60
            waves_met += report.verdict == "violated"
            # row 0 alone is a seed: every other row came from a batch,
            # unless the batch handed it back to the engine
            assert 0 < report.batched <= 59
            assert report.batched + report.bases_reused <= 60
        assert waves_met > 0  # some rows violated

    def test_parents_are_the_best_solved_vertices(self, monkeypatch):
        # every wave row starts from the solved row p whose optimal vertex
        # maximizes a_j.x_p, the lowest index on ties; 400 rows make the
        # last wave 300 rows, more than one chunk of the scoring
        net, A = TestBatchedSweep.instance(2, 2, m=400)
        A[300] = 2.0 * A[5]  # the same LP: a planted tie with row 5
        calls, sweep = [], SublevelSolver.sweep

        def spy(self, directions, keep_going=False, parents=None):
            out = sweep(self, directions, keep_going, parents)
            calls.append((np.array(directions), parents, out))
            return out

        monkeypatch.setattr(SublevelSolver, "sweep", spy)
        certify(net, A, np.ones(400))
        index = {a.tobytes(): j for j, a in enumerate(A)}
        vertex, waved, ties = {}, 0, 0
        for D, P, out in calls:
            rows = [index[d.tobytes()] for d in D]
            if P is not None:
                cands = sorted(vertex)
                for j, p in zip(rows, P):
                    scores = [A[j] @ vertex[c] for c in cands]
                    best = [c for c, s in zip(cands, scores)
                            if s == max(scores)]
                    assert index[np.asarray(p).tobytes()] == best[0]
                    waved += 1
                    ties += len(best) > 1
            for j, res in zip(rows, out):
                vertex[j] = res.x
        assert waved == 400 - 7  # all but the seeds, every 64th row
        assert max(len(D) for D, P, _ in calls if P is not None) > 256
        assert vertex[5].tobytes() == vertex[300].tobytes() and ties > 0

    def test_fresh_certification_is_batched(self):
        net, A, b = random_instance(4, m=40)
        report = certify(net, A, b)
        assert report.batched > 0 and report.lockstep_rounds >= 0
        d = report.to_dict()
        assert d["batched"] == report.batched
        assert d["lockstep_rounds"] == report.lockstep_rounds
        # the first rescale still chains its rows in index order, as one
        # fresh solver solving them one by one does, byte for byte
        oracle = ScalingOracle(net, A, b)
        oracle.rescale(net)
        assert oracle.solver.counters()["batched"] == 0
        ref = SublevelSolver(net)
        ref.reload(net)  # as the rescale does
        for row in A:
            ref.support(row)
        assert solver_bytes(oracle.solver) == solver_bytes(ref)

    def test_kept_rows_start_from_their_own_bases(self):
        net, A, b = random_instance(7, m=80)
        solver = SublevelSolver(net)
        values = {j: solver.support(A[j]).value for j in range(0, 80, 2)}
        before = solver.counters()["pivots"]
        report = certify(net, A, b, solver=solver)
        # the 40 kept rows are re-priced in one batch, in zero pivots, to
        # their own bytes; the 40 others are seeded and waved
        assert report.bases_reused == 40 and report.n_lp == 80
        assert report.batched > 40
        assert [report.supports[j] for j in values] == list(values.values())
        assert solver.counters()["pivots"] - before == report.pivots > 0
        np.testing.assert_allclose(report.supports,
                                   certify(net, A, b).supports,
                                   rtol=0, atol=1e-9)

    def test_pivot_budget_failures_leave_the_rest_solved(self, monkeypatch):
        import nkscreen.lp as lp

        net, A = TestBatchedSweep.instance(0, 1, m=150)
        b = 100.0 * np.random.default_rng(0).uniform(0.5, 2.0, size=150)
        clean = certify(net, A, b)
        monkeypatch.setattr(lp, "_pivot_budget", lambda m: 2)
        report = certify(net, A, b)
        failed = report.failed_rows
        assert report.verdict == "unknown"
        assert failed == sorted(failed) and 0 < len(failed) < 150
        assert report.to_dict()["failed_rows"] == failed
        # the first seed starts from the slack basis and fails; rows of its
        # block, solved from other parents, still solve
        order = nearest_first(A)
        assert order[0] in failed
        assert any(order[p] not in failed for p in range(1, 64))
        ok = np.setdiff1d(np.arange(150), failed)
        assert np.isnan(report.supports[failed]).all()
        np.testing.assert_allclose(report.supports[ok], clean.supports[ok],
                                   rtol=0, atol=1e-9)

    def test_failed_seed_is_no_parent(self, monkeypatch):
        net, A = TestBatchedSweep.instance(1, 2, m=150)
        b = 100.0 * np.random.default_rng(1).uniform(0.5, 2.0, size=150)
        clean = certify(net, A, b)
        assert clean.verdict == "reliable"
        seed = nearest_first(A)[64]
        spoil_engine(monkeypatch, net, A[seed])
        report = certify(net, A, b)
        assert report.verdict == "unknown"
        assert report.failed_rows == [int(seed)]
        assert report.violations == []
        ok = np.arange(150) != seed
        np.testing.assert_allclose(report.supports[ok], clean.supports[ok],
                                   rtol=0, atol=1e-9)

    def test_empty_set_raises_at_the_first_lp(self):
        net, A, b = random_instance(5, m=100)
        net.b[-1] = net.b[-1] + 1e3  # raw > 0 everywhere in the box
        solver = SublevelSolver(net)
        with pytest.raises(EmptyPredictedSet):
            certify(net, A, b, solver=solver)
        assert solver.counters()["n_lp"] == 1


class TestNonFinite:
    def test_empty_region_is_rejected(self):
        net, A, b = random_instance(4, m=10)
        with pytest.raises(ValueError, match="region is empty"):
            certify(net, A[:0], b[:0])
        with pytest.raises(ValueError, match="region is empty"):
            ScalingOracle(net, A[:0], b[:0])

    def test_reload_rejects_non_finite_weights(self):
        # before the check, diverged weights reached the rescale's sweep as
        # "the solver holds other weights"
        net, A, b = random_instance(4, m=10)
        oracle = ScalingOracle(net, A, b)
        oracle.rescale(net)
        bad = net.copy()
        bad.D[1][0, 2] = np.nan
        with pytest.raises(ValueError, match="weights must be finite"):
            oracle.rescale(bad)
        assert oracle.solver.holds(net)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_scaling_factor_must_be_finite_and_positive(self, r):
        net, A, b = random_instance(4, m=10)
        with pytest.raises(ValueError, match="scaling factor"):
            certify(net, A, b, r=r)

    def test_shift_must_be_finite(self):
        net, A, b = random_instance(4, m=10)
        v = np.zeros(A.shape[1])
        v[1] = np.nan
        with pytest.raises(ValueError, match="shift"):
            certify(net, A, b, v=v)

    def test_zero_row_is_rejected_in_any_wave(self):
        net, A, b = random_instance(4, m=10)
        A[5] = 0.0
        assert nearest_first(A)[0] != 5  # not the first seed
        with pytest.raises(ValueError, match="nonzero"):
            certify(net, A, b)

    def test_nan_offset_is_never_reliable(self):
        net, A, b = random_instance(4, m=10)
        assert certify(net, A, 100.0 * b).reliable
        b = 100.0 * b
        b[3] = np.nan
        report = certify(net, A, b)
        assert report.verdict == "unknown" and report.failed_rows == []

    @pytest.mark.parametrize("field", ["x", "objective"])
    def test_optimal_at_a_non_finite_point_fails(self, monkeypatch, field):
        net, A, b = random_instance(6, m=20)
        spoil_engine(monkeypatch, net, A[[2, 11]], field)
        solver = SublevelSolver(net)
        with pytest.raises(NumericalFailure, match="non-finite"):
            solver.support(A[2])
        # no basis was kept for the failed row: a later support reuses none
        with pytest.raises(NumericalFailure, match="non-finite"):
            solver.support(A[2])
        assert solver.n_reused == 0
        # the rescale's chained sweep raises instead of skipping the row
        with pytest.raises(NumericalFailure):
            scale_fast(net, A, b)
        # certify lists the rows, chained or batched, as failed
        report = certify(net, A, 100.0 * b)
        assert report.failed_rows == [2, 11]
        assert report.verdict == "unknown"
