from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nkscreen.icnn import (
    IcnnGrads, IcnnParams, ScaledClassifier, _ScreeningNetwork, backward,
    box_violation, forward, init_params, load_checkpoint, project_convex,
    raw_forward, save_checkpoint,
)

from helpers import classify


def l1_ball_net(radius=1.0, box=10.0):
    """Hand-built net computing |x1| + |x2| - radius (convex, exact)."""
    D0 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return IcnnParams(
        W=[np.ones((1, 4))],
        D=[D0, np.zeros((1, 2))],
        b=[np.zeros(4), np.array([-radius])],
        box_lower=np.array([-box, -box]),
        box_upper=np.array([box, box]),
    ).validate()


def face_at_zero_net():
    """|x1| + |x2| - 10 in the box [-1, 0]^2 at gain 1: inside the box the
    network admits every point, so the box alone decides."""
    net = l1_ball_net()
    net.b[-1] = np.array([-10.0])
    net.box_lower = np.array([-1.0, -1.0])
    net.box_upper = np.array([0.0, 0.0])
    net.box_gain = 1.0
    return net.validate()


class TestForward:
    def test_hand_built_values(self):
        net = l1_ball_net()
        assert forward(net, np.array([0.0, 0.0])) == pytest.approx(-1.0)
        assert forward(net, np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert forward(net, np.array([0.5, 0.25])) == pytest.approx(-0.25)
        assert forward(net, np.array([-0.3, -0.3])) == pytest.approx(-0.4)

    def test_classification_boundary(self):
        net = l1_ball_net()
        X = np.array([[0.0, 0.0], [0.9, 0.0], [0.6, 0.6], [1.1, 0.0]])
        np.testing.assert_array_equal(classify(net, X), [True, True, False, False])

    def test_batch_matches_single(self):
        net = init_params(3, depth=2, width=5, box_lower=-np.ones(3),
                          box_upper=np.ones(3), seed=7)
        X = np.random.default_rng(0).normal(size=(11, 3))
        batch = forward(net, X)
        singles = np.array([forward(net, x) for x in X])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_box_penalty_dominates_far_outside(self):
        net = l1_ball_net(box=2.0)
        x = np.array([50.0, 0.0])
        assert box_violation(net, x) == pytest.approx(48.0)
        # raw = 49, penalty = 10 * 48 = 480
        assert forward(net, x) == pytest.approx(480.0)
        assert not classify(net, x)

    def test_inside_box_negative_violation(self):
        net = l1_ball_net(box=2.0)
        assert box_violation(net, np.array([0.5, -0.5])) == pytest.approx(-1.5)

    def test_raw_wins_ties(self):
        # raw = gain * violation exactly: gradient must follow the raw branch
        net = l1_ball_net(radius=0.0, box=1.0)
        x = np.array([1.0 + 1e-9, 0.0])  # raw ~ 1, pen ~ 1e-8: raw branch
        _, dx = backward(net, x)
        np.testing.assert_allclose(dx, [1.0, 0.0], atol=1e-12)

    def test_input_dim_check(self):
        net = l1_ball_net()
        with pytest.raises(ValueError):
            forward(net, np.zeros(3))


class TestValidate:
    def test_init_shapes(self):
        net = init_params(4, depth=3, width=8, box_lower=-np.ones(4),
                          box_upper=np.ones(4), seed=1)
        assert net.depth == 3 and net.width == 8 and net.n_inputs == 4
        assert net.is_convex()

    def test_init_deterministic(self):
        a = init_params(4, 2, 6, -np.ones(4), np.ones(4), seed=5)
        b = init_params(4, 2, 6, -np.ones(4), np.ones(4), seed=5)
        for wa, wb in zip(a.W, b.W):
            np.testing.assert_array_equal(wa, wb)

    def test_rejects_bad_box(self):
        net = l1_ball_net()
        net.box_upper = -net.box_upper
        with pytest.raises(ValueError):
            net.validate()

    def test_rejects_shape_mismatch(self):
        net = l1_ball_net()
        net.b[0] = np.zeros(3)
        with pytest.raises(ValueError):
            net.validate()

    @pytest.mark.parametrize("face", [np.inf, np.nan])
    def test_rejects_a_box_face_that_is_not_finite(self, face):
        net = l1_ball_net()
        net.box_upper = np.array([face, 10.0])
        with pytest.raises(ValueError, match="finite"):
            net.validate()

    @pytest.mark.parametrize("gain", [0.5, 0.0, -1.0, np.inf, np.nan])
    def test_rejects_a_box_gain_below_one_or_not_finite(self, gain):
        net = l1_ball_net()
        net.box_gain = gain
        with pytest.raises(ValueError, match="cannot round to 0"):
            net.validate()

    def test_gain_below_one_would_admit_a_point_past_a_face(self):
        # the x box face at 0.0 and a point one subnormal past it: below
        # gain 1 the box term rounds to 0, and the value admits the point
        tiny = np.nextafter(0.0, 1.0)
        assert 0.5 * tiny == 0.0
        net = face_at_zero_net()
        net.box_gain = 0.5
        clf = ScaledClassifier(params=net)
        past = np.array([tiny, -0.5])
        assert clf.decision_values(past)[0] <= 0.0
        assert not clf.predict_feasible(past)[0]

    def test_one_subnormal_past_a_face_at_zero_is_insecure_at_gain_one(self):
        clf = ScaledClassifier(params=face_at_zero_net())
        face = np.array([0.0, -0.5])
        past = np.array([np.nextafter(0.0, 1.0), -0.5])
        assert clf.predict_feasible(face)[0]
        assert clf.decision_values(face)[0] <= 0.0
        for X in (past, past[None], np.vstack([past, face])):
            assert not clf.predict_feasible(X)[0]
            assert clf.decision_values(X)[0] > 0.0


class TestConvexity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(1, 3),
        pt=st.integers(0, 2**31 - 1),
    )
    def test_midpoint_convexity(self, seed, depth, pt):
        net = init_params(4, depth=depth, width=6, box_lower=-2 * np.ones(4),
                          box_upper=2 * np.ones(4), seed=seed)
        rng = np.random.default_rng(pt)
        x, y = rng.normal(scale=3.0, size=(2, 4))
        mid = forward(net, 0.5 * (x + y))
        assert mid <= 0.5 * (forward(net, x) + forward(net, y)) + 1e-9

    def test_negative_weight_breaks_convexity(self):
        # sanity check on the oracle itself: without W >= 0 the midpoint
        # inequality can fail, so the projection is doing real work
        net = init_params(2, depth=2, width=4, box_lower=-5 * np.ones(2),
                          box_upper=5 * np.ones(2), seed=3)
        net.W[0] = -np.abs(net.W[0]) * 10
        rng = np.random.default_rng(1)
        bad = 0
        for _ in range(200):
            x, y = rng.normal(scale=2.0, size=(2, 2))
            mid = forward(net, 0.5 * (x + y))
            if mid > 0.5 * (forward(net, x) + forward(net, y)) + 1e-9:
                bad += 1
        assert bad > 0

    def test_project_convex(self):
        net = init_params(3, depth=2, width=4, box_lower=-np.ones(3),
                          box_upper=np.ones(3), seed=2)
        net.W[0][0, 1] = -0.5
        net.W[1][0, 2] = -1.0
        project_convex(net)
        assert net.is_convex()
        before = [w.copy() for w in net.W]
        project_convex(net)
        for w0, w1 in zip(before, net.W):
            np.testing.assert_array_equal(w0, w1)


def fd_gradient(fun, arr, h=1e-6):
    g = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + h
        up = fun()
        flat[i] = old - h
        dn = fun()
        flat[i] = old
        gf[i] = (up - dn) / (2 * h)
    return g


class TestBackward:
    def _smooth_setup(self, seed=11, n=3, depth=2, width=4, B=5):
        net = init_params(n, depth=depth, width=width, box_lower=-4 * np.ones(n),
                          box_upper=4 * np.ones(n), seed=seed)
        rng = np.random.default_rng(seed + 1)
        X = rng.normal(size=(B, n))
        upstream = rng.normal(size=B)
        # keep clear of relu kinks and the raw-vs-box tie so FD is valid
        _, fp = forward(net, X, want_cache=True)
        assert all(np.abs(p).min() > 1e-4 for p in fp.pre)
        assert np.abs(fp.raw - fp.pen).min() > 1e-3
        return net, X, upstream

    def test_param_grads_match_finite_differences(self):
        net, X, upstream = self._smooth_setup()
        loss = lambda: float(upstream @ forward(net, X))
        grads, _ = backward(net, X, upstream)
        for got, arr in [(grads.W, net.W), (grads.D, net.D), (grads.b, net.b)]:
            for g, a in zip(got, arr):
                np.testing.assert_allclose(g, fd_gradient(loss, a), rtol=1e-5,
                                           atol=1e-7)

    def test_input_grads_match_finite_differences(self):
        net, X, upstream = self._smooth_setup(seed=21)
        loss = lambda: float(upstream @ forward(net, X))
        _, dx = backward(net, X, upstream)
        np.testing.assert_allclose(dx, fd_gradient(loss, X), rtol=1e-5, atol=1e-7)

    def test_box_branch_gradient(self):
        net = l1_ball_net(box=2.0)
        x = np.array([0.0, -7.0])  # below the box in dim 1
        _, dx = backward(net, x)
        np.testing.assert_allclose(dx, [0.0, -10.0], atol=1e-12)
        out = forward(net, x)
        h = 1e-6
        fd = (forward(net, x + np.array([0, h])) - forward(net, x - np.array([0, h]))) / (2 * h)
        assert fd == pytest.approx(-10.0)
        assert out == pytest.approx(50.0)

    def test_raw_only_ignores_box(self):
        net = l1_ball_net(box=2.0)
        x = np.array([0.0, -7.0])
        _, dx = backward(net, x, raw_only=True)
        np.testing.assert_allclose(dx, [0.0, -1.0], atol=1e-12)

    def test_upstream_weighting_is_linear(self):
        net, X, upstream = self._smooth_setup(seed=31)
        g1, dx1 = backward(net, X, upstream)
        g2, dx2 = backward(net, X, 2.0 * upstream)
        np.testing.assert_allclose(dx2, 2.0 * dx1, rtol=1e-12)
        for a, b in zip(g1.D, g2.D):
            np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_reused_pass_and_out_give_the_same_bytes(self):
        net = init_params(3, depth=2, width=5, box_lower=-np.ones(3),
                          box_upper=np.ones(3), seed=4)
        rng = np.random.default_rng(4)
        X = rng.normal(scale=1.5, size=(40, 3))    # some rows outside the box
        upstream = rng.normal(size=40)
        g1, dx1 = backward(net, X, upstream)
        f, fp = forward(net, X, want_cache=True)
        assert np.any(fp.pen > fp.raw)
        out = IcnnGrads.zeros_like(net)
        out.vec[:] = 7.0                            # stale values are overwritten
        g2, dx2 = backward(net, fp, upstream, out=out)
        assert g2 is out
        assert g2.vec.tobytes() == g1.vec.tobytes()
        assert dx2.tobytes() == dx1.tobytes()
        assert f.tobytes() == forward(net, X).tobytes()

    def test_without_dx_the_same_parameter_gradients(self):
        net = init_params(3, depth=2, width=5, box_lower=-np.ones(3),
                          box_upper=np.ones(3), seed=6)
        rng = np.random.default_rng(6)
        X = rng.normal(scale=1.5, size=(40, 3))    # some rows outside the box
        upstream = rng.normal(size=40)
        for X_, up, raw_only in ((X, upstream, False), (X, upstream, True),
                                 (X[0], upstream[:1], False)):
            g1, dx = backward(net, X_, up, raw_only=raw_only)
            g2, none = backward(net, X_, up, raw_only=raw_only, want_dx=False)
            assert dx is not None and none is None
            assert g2.vec.tobytes() == g1.vec.tobytes()


class TestFlatLayout:
    def _net(self):
        return init_params(3, depth=2, width=4, box_lower=-np.ones(3),
                           box_upper=np.ones(3), seed=2)

    def test_lists_are_views_of_one_vector(self):
        net = self._net()
        arrays = [a.copy() for a in net.W + net.D + net.b]
        vec = net.flat
        assert vec.size == sum(a.size for a in arrays)
        assert all(a.base is vec for a in net.W + net.D + net.b)
        assert np.array_equal(vec, np.concatenate([a.ravel() for a in arrays]))
        assert net.flat is vec
        vec[:] = -1.0
        project_convex(net)
        assert all(np.all(w == 0.0) for w in net.W)
        assert all(np.all(a == -1.0) for a in net.D + net.b)

    def test_copies_do_not_share_the_vector(self):
        import copy

        net = self._net()
        before = net.flat.copy()
        for other in (net.copy(), copy.deepcopy(net)):
            other.flat[:] += 1.0
            assert np.array_equal(other.flat, before + 1.0)
            assert all(a.base is other.flat
                       for a in other.W + other.D + other.b)
            assert np.array_equal(net.flat, before)

    def test_an_assigned_entry_is_packed_anew(self):
        net = self._net()
        old = net.flat
        net.b[2] = np.array([5.0])
        net.D = [d * 2.0 for d in net.D]
        vec = net.flat
        assert vec is not old
        assert vec[-1] == 5.0
        assert all(a.base is vec for a in net.W + net.D + net.b)
        grads = IcnnGrads.zeros_like(net)
        assert grads.vec.shape == vec.shape
        assert [g.shape for g in grads.W + grads.D + grads.b] == \
            [a.shape for a in net.W + net.D + net.b]


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = init_params(5, depth=2, width=6, box_lower=-np.ones(5),
                          box_upper=np.ones(5), seed=9)
        clf = ScaledClassifier(
            params=net, r=1.25, v=np.linspace(-0.1, 0.1, 5),
            mu=np.arange(5.0), sigma=np.ones(5) * 2.0,
            dim_map=np.array([0, 2, 3, 5, 7]),
            meta={"val_fpr": 0.07, "epochs": 40},
        )
        path = tmp_path / "ckpt.npz"
        save_checkpoint(clf, path)
        back = load_checkpoint(path)
        assert back.r == clf.r
        assert back.meta == clf.meta
        np.testing.assert_array_equal(back.v, clf.v)
        np.testing.assert_array_equal(back.dim_map, clf.dim_map)
        for a, b in zip(back.params.W, net.W):
            np.testing.assert_array_equal(a, b)
        X = np.random.default_rng(3).normal(size=(7, 5))
        np.testing.assert_array_equal(back.decision_values(X),
                                      clf.decision_values(X))

    def test_absent_transform_saves_as_the_identity(self, tmp_path):
        # v, mu, sigma and dim_map left out are filled in as the identity,
        # with the bytes of a classifier given the identity explicitly
        net = init_params(3, depth=1, width=4, box_lower=-np.ones(3),
                          box_upper=np.ones(3), seed=4)
        bare = ScaledClassifier(params=net, r=1.5)
        explicit = ScaledClassifier(params=net, r=1.5, v=np.zeros(3),
                                    mu=np.zeros(3), sigma=np.ones(3),
                                    dim_map=np.arange(3))
        paths = tmp_path / "bare.npz", tmp_path / "explicit.npz"
        save_checkpoint(bare, paths[0])
        save_checkpoint(explicit, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # a re-save of the loaded file keeps its bytes too
        save_checkpoint(load_checkpoint(paths[0]), paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_scaled_decision_shrinks_set(self):
        net = l1_ball_net()
        clf = ScaledClassifier(params=net, r=2.0, v=np.zeros(2))
        # predicted set becomes the L1 ball of radius 1/2
        assert clf.predict_feasible(np.array([[0.4, 0.0]]))[0]
        assert not clf.predict_feasible(np.array([[0.6, 0.0]]))[0]

    def test_default_scaling_is_identity(self):
        net = l1_ball_net()
        clf = ScaledClassifier(params=net)
        X = np.random.default_rng(4).normal(size=(6, 2))
        np.testing.assert_allclose(clf.decision_values(X), forward(net, X))


class TestScreeningBox:
    """With r < 1 the set (S - v) / r reaches past the box, where the
    certificate says nothing; screening must say insecure there."""

    def test_point_outside_box_but_inside_scaled_set_is_insecure(self):
        # S: |u1| + |u2| <= 1 in the box [-10, 10]^2; with r = 0.05 the set
        # S / r is the L1 ball of radius 20, beyond the x box [-10, 10]^2
        clf = ScaledClassifier(params=l1_ball_net(radius=1.0, box=10.0),
                               r=0.05, v=np.zeros(2))
        outside = np.array([[15.0, 0.0], [0.0, -12.0], [10.5, 9.0]])
        assert np.all(forward(clf.params, clf.r * outside) <= 0.0)
        assert not clf.predict_feasible(outside).any()
        assert clf.predict_feasible(np.array([[9.0, 0.0], [-5.0, 5.0]])).all()

    def test_input_box_is_the_intersection(self):
        net = l1_ball_net(radius=1.0, box=2.0)
        clf = ScaledClassifier(params=net, r=0.5, v=np.array([0.5, -1.5]))
        lo, hi = clf.input_box()
        # r * [-2, 2] + v = [-0.5, 1.5] and [-2.5, -0.5]
        np.testing.assert_array_equal(lo, [-0.5, -2.0])
        np.testing.assert_array_equal(hi, [1.5, -0.5])

    def test_box_follows_changes_of_r_and_v(self):
        clf = ScaledClassifier(params=l1_ball_net(radius=1.0, box=10.0),
                               r=0.05)
        x = np.array([[15.0, 0.0]])
        assert not clf.predict_feasible(x)[0]
        # u = 1.2: outside S as well
        assert not replace(clf, r=0.08).predict_feasible(x)[0]
        # the x box now maps to u1 in [-1.5, -0.5]; x1 = 12 gives u1 = -0.4,
        # inside S and inside the box of v = 0, but x1 is outside the box
        clf = replace(clf, v=np.array([-1.0, 0.0]))
        assert not clf.predict_feasible(np.array([[12.0, 0.0]]))[0]
        assert clf.predict_feasible(np.array([[4.0, 0.0]]))[0]

    def test_inside_box_predictions_unchanged(self):
        net = init_params(3, depth=2, width=5, box_lower=-np.ones(3),
                          box_upper=np.ones(3), seed=2)
        X = np.random.default_rng(8).uniform(-1, 1, size=(50, 3))
        for r, v in ((0.3, np.full(3, 0.1)), (1.0, None), (2.5, np.zeros(3))):
            clf = ScaledClassifier(params=net, r=r, v=v)
            np.testing.assert_array_equal(clf.predict_feasible(X),
                                          forward(net, r * X + clf.v) <= 0.0)


def reference_feasible(clf, X):
    """The definition screening reproduces: the network with the input box,
    evaluated at r x + v."""
    p = clf.params
    lo, hi = clf.input_box()
    boxed = IcnnParams(W=p.W, D=p.D, b=p.b, box_lower=lo, box_upper=hi,
                       box_gain=p.box_gain)
    return forward(boxed, clf.r * np.atleast_2d(X) + clf.v) <= 0.0


def screened_alone(clf, X):
    """predict_feasible of each point on its own, the one-row path: even
    points as (n,) vectors, odd ones as (1, n) rows."""
    return np.array([clf.predict_feasible(x if i % 2 == 0 else x[None])[0]
                     for i, x in enumerate(np.atleast_2d(X))])


def reference_values(clf, X):
    """The batch pass over X, (B, n), as it ran before the ReLU took all of
    P in one pass: the first layer's ReLU a contiguous copy, the box term
    max(raw, box_gain * V).  Screening values must keep these bytes."""
    net = _ScreeningNetwork.build(clf)
    w = net.width
    P = X @ net.D
    P += net.b
    z = np.maximum(P[:, :w], 0.0)
    for i, Wi in enumerate(net.W[:-1], start=1):
        h = P[:, i * w:(i + 1) * w] + z @ Wi
        z = np.maximum(h, 0.0, out=h)
    out = P[:, -1] + z @ net.W[-1]
    pen = np.maximum(net.lower - X, X - net.upper).max(axis=1)
    pen *= net.box_gain
    return np.maximum(out, pen, out=out)


def extreme_passing(face, r, v, upper, inner):
    """The extreme float x with r * x + v on the inner side of face, by
    bisection over values from a passing point inner: near x = 0 the
    floats that pass reach many steps of np.nextafter past the quotient."""
    inside = (lambda x: r * x + v <= face) if upper else \
        (lambda x: r * x + v >= face)
    a = inner
    b = (face - v) / r
    while inside(b):
        b += (b - a) + (1.0 if upper else -1.0)
    while True:
        m = a + (b - a) / 2
        if m in (a, b):
            return a
        a, b = (m, b) if inside(m) else (a, m)


class TestScreeningNetwork:
    """Screening folds r and v into the weights and moves the box onto x;
    every label must equal the definition's."""

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("r", [0.05, 1.0, 2.5])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_random_points_match_definition(self, depth, r, shifted):
        net = init_params(4, depth=depth, width=6, box_lower=-np.ones(4),
                          box_upper=np.ones(4), seed=depth)
        v = np.array([0.1, -0.2, 0.05, 0.0]) if shifted else np.zeros(4)
        clf = ScaledClassifier(params=net, r=r, v=v)
        # u = r x + v uniform over 1.3 times the input box, and an output
        # bias that splits the box in half, taken from other points so that
        # no test point sits on the boundary to within rounding
        lo, hi = clf.input_box()
        pad = 0.15 * (hi - lo)
        rng = np.random.default_rng(10 * depth)
        net.b[-1] -= np.median(raw_forward(net, rng.uniform(lo, hi,
                                                            size=(501, 4))))
        clf = replace(clf, params=net)
        U = rng.uniform(lo - pad, hi + pad, size=(5000, 4))
        X = (U - v) / r
        got = clf.predict_feasible(X)
        np.testing.assert_array_equal(got, reference_feasible(clf, X))
        np.testing.assert_array_equal(screened_alone(clf, X), got)
        assert 0.1 < got.mean() < 0.5

    @pytest.mark.parametrize("r, v", [(0.05, (0.0, 0.0)), (1.0, (0.3, -0.1)),
                                      (2.5, (0.0, 0.7)), (0.1, (0.2, 0.2))])
    def test_box_faces_and_their_neighbours(self, r, v):
        # a large ball: inside the box, the box alone decides
        net = IcnnParams(W=[np.ones((1, 4))],
                         D=[np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                      [0.0, -1.0]]), np.zeros((1, 2))],
                         b=[np.zeros(4), np.array([-10.0])],
                         box_lower=np.array([-1.0, -1.0]),
                         box_upper=np.array([0.3, 0.3])).validate()
        v = np.array(v)
        clf = ScaledClassifier(params=net, r=r, v=v)
        lo, hi = clf.input_box()
        for j in range(2):
            inner = np.array([(lo[k] - v[k]) / r + (hi[k] - lo[k]) / (2 * r)
                              for k in range(2)])
            for face, upper in ((lo[j], False), (hi[j], True)):
                x_face = extreme_passing(face, r, v[j], upper, inner[j])
                out = np.inf if upper else -np.inf
                xs = [np.nextafter(x_face, -out), x_face,
                      np.nextafter(x_face, out)]
                X = np.tile(inner, (3, 1))
                X[:, j] = xs
                want = reference_feasible(clf, X)
                np.testing.assert_array_equal(want, [True, True, False])
                np.testing.assert_array_equal(clf.predict_feasible(X), want)
                np.testing.assert_array_equal(screened_alone(clf, X), want)

    def test_face_one_float_past_the_plain_quotient(self):
        # r = 0.1, v = 0.2 and an x box face at 0.3: the input box face is
        # 0.1 * 0.3 + 0.2 = 0.23, whose plain quotient (0.23 - 0.2) / 0.1 is
        # 0.3, but one float above it r * x + v still rounds to 0.23
        net = IcnnParams(W=[np.ones((1, 2))],
                         D=[np.eye(2), np.zeros((1, 2))],
                         b=[np.zeros(2), np.array([-10.0])],
                         box_lower=np.array([-1.0, -1.0]),
                         box_upper=np.array([0.3, 0.3])).validate()
        clf = ScaledClassifier(params=net, r=0.1, v=np.array([0.2, 0.2]))
        hi = clf.input_box()[1][0]
        quotient = (hi - 0.2) / 0.1
        past = np.nextafter(quotient, np.inf)
        X = np.array([[quotient, 0.0], [past, 0.0],
                      [np.nextafter(past, np.inf), 0.0]])
        np.testing.assert_array_equal(reference_feasible(clf, X),
                                      [True, True, False])
        np.testing.assert_array_equal(clf.predict_feasible(X),
                                      [True, True, False])
        np.testing.assert_array_equal(screened_alone(clf, X),
                                      [True, True, False])

    def test_nan_and_infinite_coordinates_are_insecure(self):
        clf = ScaledClassifier(params=l1_ball_net(radius=1.0, box=10.0),
                               r=0.5, v=np.array([0.1, 0.0]))
        inner = np.array([0.2, -0.1])
        assert clf.predict_feasible(inner)[0]
        X = np.tile(inner, (6, 1))
        X[[0, 1, 2], 0] = [np.nan, np.inf, -np.inf]
        X[[3, 4, 5], 1] = [np.nan, np.inf, -np.inf]
        with np.errstate(invalid="ignore"):
            assert not clf.predict_feasible(X).any()
            assert not screened_alone(clf, X).any()
            assert not reference_feasible(clf, X).any()

    @settings(max_examples=200, deadline=None)
    @given(depth=st.sampled_from([1, 2]), seed=st.integers(0, 2**16),
           r=st.floats(0.05, 4.0), shift=st.floats(-0.5, 0.5),
           x=st.lists(st.one_of(st.floats(-3.0, 3.0),
                                st.floats(allow_nan=False)),
                      min_size=3, max_size=3))
    def test_one_row_equals_the_batch_arithmetic(self, depth, seed, r, shift,
                                                 x):
        """One point's value, through either shape, is the bytes of the
        (1, n) batch pass, for points inside, far outside the box (where
        the products overflow) and at +-inf."""
        net = init_params(3, depth=depth, width=4, box_lower=-np.ones(3),
                          box_upper=np.ones(3), seed=seed)
        clf = ScaledClassifier(params=net, r=r, v=np.full(3, shift))
        x = np.array(x)
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_values(clf, x[None])
            for point in (x, x[None]):
                got = clf.decision_values(point)
                assert got.shape == (1,)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("rows", [2, 7, 256, 2000])
    def test_batch_values_keep_the_bytes_of_a_contiguous_first_relu(
            self, depth, rows):
        """The batch pass applies the ReLU to all of P and reads the first
        layer as a strided view; its values keep the bytes of the pass that
        copied the first layer out, for points inside, outside, at +-inf
        and NaN."""
        rng = np.random.default_rng(rows + depth)
        net = init_params(24, depth=depth, width=50, box_lower=-np.ones(24),
                          box_upper=np.ones(24), seed=depth)
        clf = ScaledClassifier(params=net, r=0.148,
                               v=rng.uniform(-0.1, 0.1, size=24))
        X = rng.normal(scale=4.0, size=(rows, 24))
        X[::5, rows % 24] = np.resize([np.inf, -np.inf, np.nan, 1e300],
                                      len(X[::5]))
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_values(clf, X)
            got = clf.decision_values(X)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(depth=st.sampled_from([1, 2]), seed=st.integers(0, 2**16),
           r=st.floats(0.05, 4.0),
           v=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
           level=st.floats(-1.0, 1.0), data=st.data())
    def test_verdict_is_the_sign_of_the_value(self, depth, seed, r, v, level,
                                              data):
        """predict_feasible is decision_values <= 0, by membership, for
        points inside, far outside, at the extreme passing float of a face
        and one float past it, at +-inf and NaN, as (n,), (1, n) and (B, n)
        inputs."""
        net = init_params(3, depth=depth, width=4, box_lower=-np.ones(3),
                          box_upper=np.ones(3), seed=seed)
        v = np.array(v)
        clf = ScaledClassifier(params=net, r=r, v=v)
        lo, hi = clf.input_box()
        x_lo, x_hi = (lo - v) / r, (hi - v) / r
        inner = (x_lo + x_hi) / 2
        # an output bias that puts the raw boundary near the box's middle
        net.b[-1] = net.b[-1] - raw_forward(net, r * inner + v) + level
        clf = replace(clf, params=net)

        def coordinate(j):
            kind = data.draw(st.sampled_from(
                ["inside", "far", "face", "past", "inf", "nan"]))
            upper = data.draw(st.booleans())
            if kind == "inside":
                return x_lo[j] + data.draw(st.floats(0.0, 1.0)) * (
                    x_hi[j] - x_lo[j])
            if kind == "far":
                return data.draw(st.floats(1e3, 1e308)) * (1 if upper else -1)
            if kind == "inf":
                return np.inf if upper else -np.inf
            if kind == "nan":
                return np.nan
            face = hi[j] if upper else lo[j]
            x = extreme_passing(face, r, v[j], upper, inner[j])
            return x if kind == "face" else \
                np.nextafter(x, np.inf if upper else -np.inf)

        rows = data.draw(st.integers(1, 6))
        X = np.array([[coordinate(j) for j in range(3)] for _ in range(rows)])
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_array_equal(clf.predict_feasible(X),
                                          clf.decision_values(X) <= 0.0)
            for x in X:
                for point in (x, x[None]):
                    assert clf.predict_feasible(point).tolist() == \
                        (clf.decision_values(point) <= 0.0).tolist()

    def test_nonpositive_scale_rejected(self):
        # the faces on x rely on r * x + v rising with x
        clf = ScaledClassifier(params=l1_ball_net(), r=0.0)
        with pytest.raises(ValueError):
            clf.predict_feasible(np.zeros(2))

    def test_single_input_returns_one_label(self):
        clf = ScaledClassifier(params=l1_ball_net(), r=2.0)
        assert clf.predict_feasible(np.array([0.1, 0.2])).shape == (1,)
        assert clf.decision_values(np.array([0.1, 0.2])).shape == (1,)
        assert clf.predict_feasible(np.zeros((1, 2))).shape == (1,)
        assert clf.predict_feasible(np.zeros((3, 2))).shape == (3,)
        assert clf.predict_feasible(np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("shape", [(3,), (23,), (1, 3), (4, 1), (2, 3)])
    def test_wrong_width_names_the_expected_width(self, shape):
        clf = ScaledClassifier(params=l1_ball_net(), r=2.0)
        with pytest.raises(ValueError, match="expected inputs of 2 dims"):
            clf.decision_values(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(), (1, 1, 2), (3, 1, 2)])
    def test_other_than_one_or_two_dimensions_rejected(self, shape):
        clf = ScaledClassifier(params=l1_ball_net(), r=2.0)
        with pytest.raises(ValueError, match="one or a row each"):
            clf.predict_feasible(np.zeros(shape))

    def test_rebuilt_after_params_r_or_v_is_assigned(self):
        # a field is assigned through ``replace``, which gives a classifier
        # with no network; assigning it in place raises
        net = l1_ball_net(radius=1.0, box=10.0)
        clf = ScaledClassifier(params=net, r=1.0, v=np.zeros(2))
        x = np.array([[0.8, 0.0]])
        assert clf.predict_feasible(x)[0]
        built = clf._net
        for f in fields(clf):
            with pytest.raises(FrozenInstanceError):
                setattr(clf, f.name, getattr(clf, f.name))
        assert clf._net is built
        clf = replace(clf, r=2.0)                 # u = 1.6
        assert clf._net is None and clf._dispatch is None
        assert not clf.predict_feasible(x)[0]
        clf = replace(clf, v=np.array([-1.0, 0.0]))   # u = 0.6
        assert clf.predict_feasible(x)[0]
        clf = replace(clf, params=l1_ball_net(radius=0.5, box=10.0))
        assert not clf.predict_feasible(x)[0]
        # the network copies the weights: an in-place edit counts only in
        # a classifier built after it
        clf.params.b[-1][0] = -1.0
        assert not clf.predict_feasible(x)[0]
        clf = replace(clf)
        assert clf.predict_feasible(x)[0]
        np.testing.assert_array_equal(clf.predict_feasible(x),
                                      reference_feasible(clf, x))
