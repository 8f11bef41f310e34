import hashlib
from dataclasses import astuple

import numpy as np
import pytest

from nkscreen.icnn import forward, init_params
from nkscreen.oracle import ScalingOracle, certify, scale_fast
from nkscreen.training import (
    Adam, TrainingCollapsed, TrainingConfig, classification_rates,
    scaled_batch_gradient, scaling_epoch, train, warm_epoch, weighted_bce,
    weighted_bce_grad,
)
from helpers import square_toy

LN2 = float(np.log(2.0))


class TestLoss:
    def test_reference_values(self):
        assert weighted_bce(0.0, 1.0) == pytest.approx(LN2)
        assert weighted_bce(0.0, 0.0) == pytest.approx(LN2)
        assert weighted_bce(0.0, 1.0, pos_weight=1.5) == pytest.approx(1.5 * LN2)
        assert weighted_bce(0.0, 0.0, pos_weight=1.5) == pytest.approx(LN2)

    def test_large_logits_are_stable(self):
        assert weighted_bce(1000.0, 0.0) == pytest.approx(1000.0)
        assert weighted_bce(-1000.0, 1.0, pos_weight=2.0) == pytest.approx(2000.0)
        assert weighted_bce(1000.0, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(weighted_bce_grad(-1000.0, 1.0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        f = rng.normal(scale=3, size=20)
        y = rng.integers(0, 2, size=20).astype(float)
        h = 1e-6
        fd = (weighted_bce(f + h, y, 1.3) - weighted_bce(f - h, y, 1.3)) / (2 * h)
        np.testing.assert_allclose(weighted_bce_grad(f, y, 1.3), fd,
                                   rtol=1e-6, atol=1e-9)

    def test_batch_shape(self):
        out = weighted_bce(np.zeros(5), np.ones(5))
        np.testing.assert_allclose(out, LN2)


class TestConfig:
    def test_schedule(self):
        cfg = TrainingConfig()
        assert cfg.lr_at(0) == pytest.approx(1e-2)
        assert cfg.lr_at(1499) == pytest.approx(1e-2)
        assert cfg.lr_at(1500) == pytest.approx(1e-3)
        assert cfg.lr_at(8500) == pytest.approx(1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(scaling_epochs=0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(warm_epochs=-1).validate()
        with pytest.raises(ValueError):
            TrainingConfig(positive_class_weight=0.0).validate()
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0).validate()
        TrainingConfig().validate()


class TestAdam:
    def test_first_step_moves_by_lr(self):
        net = init_params(2, 1, 3, -np.ones(2), np.ones(2), seed=0)
        opt = Adam(net)
        from nkscreen.icnn import IcnnGrads
        grads = IcnnGrads.zeros_like(net)
        grads.D[0][0, 0] = 2.0
        before = net.D[0][0, 0]
        opt.step(net, grads, lr=0.01)
        # first Adam step is lr * sign(g) up to eps
        assert net.D[0][0, 0] == pytest.approx(before - 0.01, abs=1e-6)

    def test_zero_lr_is_identity(self):
        net = init_params(2, 1, 3, -np.ones(2), np.ones(2), seed=0)
        snapshot = net.copy()
        opt = Adam(net)
        from nkscreen.icnn import IcnnGrads
        grads = IcnnGrads.zeros_like(net)
        grads.b[0][:] = 5.0
        opt.step(net, grads, lr=0.0)
        for a, c in zip(net.b, snapshot.b):
            np.testing.assert_array_equal(a, c)


class TestWarm:
    def test_zero_lr_keeps_params(self):
        A, b, X, y = square_toy(100, seed=2)
        net = init_params(2, 1, 4, -2.4 * np.ones(2), 2.4 * np.ones(2), seed=1)
        snapshot = net.copy()
        cfg = TrainingConfig(depth=1, width=4, learning_rate=0.0,
                             batch_size=32).validate()
        opt = Adam(net)
        warm_epoch(net, X, y, cfg, opt, lr=0.0, rng=np.random.default_rng(0))
        for got, want in zip(net.W + net.D + net.b,
                             snapshot.W + snapshot.D + snapshot.b):
            np.testing.assert_array_equal(got, want)

    def test_learns_separable_toy(self):
        A, b, X, y = square_toy(400, seed=3)
        net = init_params(2, 1, 8, -2.4 * np.ones(2), 2.4 * np.ones(2), seed=0)
        cfg = TrainingConfig(depth=1, width=8, batch_size=64).validate()
        opt = Adam(net)
        rng = np.random.default_rng(0)
        for epoch in range(120):
            warm_epoch(net, X, y, cfg, opt, lr=1e-2, rng=rng)
        fpr, fnr = classification_rates(forward(net, X) > 0.0, y)
        assert fpr + fnr < 0.1
        assert net.is_convex()


class TestScalingEpoch:
    def test_frozen_params_give_identical_r(self):
        A, b, X, y = square_toy(200, seed=4)
        net = init_params(2, 1, 6, -2.4 * np.ones(2), 2.4 * np.ones(2), seed=2)
        cfg = TrainingConfig(depth=1, width=6, batch_size=32,
                             learning_rate=0.0).validate()
        oracle = ScalingOracle(net, A, b)
        opt = Adam(net)
        _, s1 = scaling_epoch(net, X[:32], y[:32], oracle, cfg, opt, lr=0.0)
        _, s2 = scaling_epoch(net, X[32:64], y[32:64], oracle, cfg, opt, lr=0.0)
        assert s1.r == pytest.approx(s2.r, abs=1e-12)
        assert s1.row == s2.row

    def test_total_gradient_matches_finite_differences(self):
        A, b, X, y = square_toy(60, seed=5)
        Xb, yb = X[:12], y[:12]
        net = init_params(2, 1, 3, -2.4 * np.ones(2), 2.4 * np.ones(2), seed=4)
        w = 1.2

        def loss_of(params):
            s = scale_fast(params, A, b)
            f = forward(params, s.r * Xb)
            return float(np.mean(weighted_bce(f, yb, w)))

        scale = scale_fast(net, A, b)
        _, grads = scaled_batch_gradient(net, Xb, yb, scale, b, w)
        h = 1e-5
        for arr, got in [(net.D[0], grads.D[0]), (net.W[0], grads.W[0]),
                         (net.b[0], grads.b[0]), (net.b[1], grads.b[1])]:
            flat, gflat = arr.reshape(-1), got.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                up = loss_of(net)
                flat[i] = old - h
                dn = loss_of(net)
                flat[i] = old
                fd = (up - dn) / (2 * h)
                assert gflat[i] == pytest.approx(fd, rel=1e-3, abs=1e-6)


class TestTrain:
    def _run(self, seed=0):
        A, b, X, y = square_toy(500, lim=1.2, seed=6)
        cfg = TrainingConfig(depth=1, width=8, warm_epochs=15,
                             scaling_epochs=25, batch_size=64,
                             learning_rate=1e-2, decay_epochs=(30,),
                             seed=seed).validate()
        return A, b, cfg, train(A, b, X[:350], y[:350], X[350:], y[350:],
                                cfg, box_lower=-2.4 * np.ones(2),
                                box_upper=2.4 * np.ones(2))

    def test_end_to_end(self):
        A, b, cfg, (clf, record) = self._run()
        _, _, X, y = square_toy(500, lim=1.2, seed=6)
        assert len(record.epochs) == cfg.warm_epochs + cfg.scaling_epochs
        assert record.best_epoch is not None
        assert record.best_epoch >= cfg.warm_epochs
        assert clf.r > 0
        assert clf.params.is_convex()
        report = certify(clf.params, A, b, r=clf.r)
        assert report.reliable
        # selected epoch had zero validation misses on infeasible points
        best = record.epochs[record.best_epoch]
        assert best.val_fnr == 0.0
        assert clf.meta["best_epoch"] == record.best_epoch
        # the selection score is that of the returned model
        fpr, fnr = classification_rates(
            forward(clf.params, clf.r * X[350:]) > 0.0, y[350:])
        assert clf.meta["val_fpr"] == fpr
        assert fnr == 0.0
        # solver work: the first rescale apart; after it every rescale
        # (one per later scaling epoch, plus the final one) and the final
        # certification solve every row from its kept basis
        m = len(b)
        first, later = record.solver["first_rescale"], record.solver["later"]
        assert first["n_lp"] == m and first["bases_reused"] == 0
        assert later["n_lp"] == later["bases_reused"] == \
            (cfg.scaling_epochs + 1) * m
        assert later["pivots"] < first["pivots"] * cfg.scaling_epochs
        assert first["slack_retries"] == later["slack_retries"] == 0

    def test_deterministic(self, tmp_path):
        _, _, _, (clf1, rec1) = self._run(seed=1)
        _, _, _, (clf2, rec2) = self._run(seed=1)
        assert clf1.r == clf2.r
        for a, c in zip(clf1.params.W + clf1.params.D + clf1.params.b,
                        clf2.params.W + clf2.params.D + clf2.params.b):
            np.testing.assert_array_equal(a, c)
        assert [r.loss for r in rec1.epochs] == [r.loss for r in rec2.epochs]
        rec1.to_csv(tmp_path / "1.csv")
        rec2.to_csv(tmp_path / "2.csv")
        assert (tmp_path / "1.csv").read_bytes() == \
            (tmp_path / "2.csv").read_bytes()
        assert rec1.solver == rec2.solver

    def test_seed_changes_run(self):
        _, _, _, (clf1, _) = self._run(seed=1)
        _, _, _, (clf2, _) = self._run(seed=2)
        assert clf1.r != clf2.r

    def test_csv_log(self, tmp_path):
        _, _, cfg, (_, record) = self._run()
        path = tmp_path / "log.csv"
        record.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + cfg.warm_epochs + cfg.scaling_epochs
        assert lines[0].startswith("epoch,phase,lr,loss,r,row")

    def test_empty_set_stops_at_the_best_epoch_so_far(self):
        """A small reproduction of the default schedule's crash: the scaled
        loss shrinks the set until the rescale of epoch 10 finds it empty.
        Training stops there and returns epoch 9, certified."""
        rng = np.random.default_rng(11)
        A = rng.normal(size=(8, 4))
        b = rng.uniform(2.0, 3.0, size=8)
        X = rng.uniform(-3.0, 3.0, size=(600, 4))
        y = (X @ A.T > b).any(axis=1).astype(float)
        cfg = TrainingConfig(depth=2, width=8, warm_epochs=8,
                             scaling_epochs=8, batch_size=32,
                             positive_class_weight=1.5, decay_epochs=(10,),
                             seed=3).validate()
        clf, record = train(A, b, X[:400], y[:400], X[400:], y[400:], cfg,
                            box_lower=np.full(4, -2.4),
                            box_upper=np.full(4, 2.4))
        assert record.stopped_epoch == 10
        assert [r.epoch for r in record.epochs] == list(range(10))
        assert record.best_epoch == clf.meta["best_epoch"] == 9
        assert record.epochs[9].val_fnr == 0.0
        assert certify(clf.params, A, b, r=clf.r).reliable

    def test_empty_set_with_no_selectable_epoch_is_named(self):
        """The warm epochs leave the set empty, so the first rescale fails
        and there is no epoch to fall back to."""
        A, b, X, y = square_toy(400, lim=2.0, seed=8)
        cfg = TrainingConfig(depth=1, width=6, warm_epochs=10,
                             scaling_epochs=10, batch_size=32,
                             positive_class_weight=1.5, decay_epochs=(14,),
                             seed=3).validate()
        with pytest.raises(TrainingCollapsed, match="epoch 10"):
            train(A, b, X[:300], y[:300], X[300:], y[300:], cfg,
                  box_lower=np.full(2, -1.6), box_upper=np.full(2, 1.6))

    def test_requires_box_or_params(self):
        A, b, X, y = square_toy(50, seed=7)
        cfg = TrainingConfig(depth=1, width=4, warm_epochs=0,
                             scaling_epochs=1).validate()
        with pytest.raises(ValueError):
            train(A, b, X, y, X, y, cfg)


def _training_digest(box, depth, width):
    """sha256 over the weights, r, best epoch and epoch log of a short seeded
    training on the square toy."""
    A, b, X, y = square_toy(400, lim=2.0, seed=8)
    cfg = TrainingConfig(depth=depth, width=width, warm_epochs=10,
                         scaling_epochs=10, batch_size=32,
                         positive_class_weight=1.5, learning_rate=1e-2,
                         decay_epochs=(14,), seed=3).validate()
    clf, record = train(A, b, X[:300], y[:300], X[300:], y[300:], cfg,
                        box_lower=np.full(2, -box), box_upper=np.full(2, box))
    h = hashlib.sha256()
    p = clf.params
    for a in p.W + p.D + p.b:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(np.float64(clf.r).tobytes())
    h.update(str(record.best_epoch).encode())
    for rec in record.epochs:
        h.update(repr(astuple(rec)).encode())
    return h.hexdigest()


# Recorded before the one-vector training step: that change keeps every
# floating-point operation and its order, so these bytes must not move.
# Keyed by (box, depth, width).  Under the box of 1.6 the raw constraint
# binds in every rescale, so every scaled step has a nonzero r-gradient,
# and training points lie outside the box.  Under the box of 1.1 the box
# alone binds in 9 of 10 rescales, so most r-gradients are zero.
GOLDEN_TRAINING_DIGESTS = {
    (1.6, 2, 6): "6464254b19ea7745ef7a946c43d410e5225368aa14530970d0daa8ea078cbfaf",
    (1.1, 2, 6): "d7146515aedc65814ffa5c6d384e507b9b4323f9c4ff3eb2f1f18c75d67e7eab",
    (1.6, 1, 10): "c454a19b3f7a9dfbb34e4d303dd8b24729d4d669bd7efad481d7a25f0789d8f0",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_TRAINING_DIGESTS))
def test_golden_training_digest(key):
    assert _training_digest(*key) == GOLDEN_TRAINING_DIGESTS[key]


def test_backward_runs_once_per_step_through_the_module_global(monkeypatch):
    """perfbench times icnn.backward by wrapping ``training.backward`` and
    ``oracle.backward``: each mini-batch step must call the first once, and
    a scaled step with a nonzero r-gradient the second once."""
    import nkscreen.oracle as oracle_mod
    import nkscreen.training as training_mod

    calls = {"training": 0, "oracle": 0}

    def counting(module, name):
        original = module.backward

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "backward", counted)

    counting(training_mod, "training")
    counting(oracle_mod, "oracle")
    # the start of the (1.6, 1, 10) golden training
    A, b, X, y = square_toy(400, lim=2.0, seed=8)
    X, y = X[:300], y[:300]
    net = init_params(2, 1, 10, np.full(2, -1.6), np.full(2, 1.6), seed=3)
    cfg = TrainingConfig(depth=1, width=10, batch_size=32,
                         positive_class_weight=1.5).validate()
    opt = Adam(net)
    rng = np.random.default_rng(3)
    steps = -(-len(X) // cfg.batch_size)
    for _ in range(10):
        warm_epoch(net, X, y, cfg, opt, 1e-2, rng)
    assert calls == {"training": 10 * steps, "oracle": 0}
    calls.update(training=0)
    _, scale = scaling_epoch(net, X, y, ScalingOracle(net, A, b), cfg, opt,
                             1e-2, rng)
    assert scale.output_dual > 0.0
    assert calls == {"training": steps, "oracle": steps}


def test_only_the_scaled_step_asks_for_input_gradients(monkeypatch):
    """dx feeds the r-path of a scaled step only: warm steps and the
    r-gradient ask backward for the parameter gradients alone."""
    import nkscreen.oracle as oracle_mod
    import nkscreen.training as training_mod

    asked = []

    def recording(module, name):
        original = module.backward

        def recorded(*args, want_dx=True, **kwargs):
            asked.append((name, want_dx))
            return original(*args, want_dx=want_dx, **kwargs)

        monkeypatch.setattr(module, "backward", recorded)

    recording(training_mod, "training")
    recording(oracle_mod, "oracle")
    A, b, X, y = square_toy(400, lim=2.0, seed=8)
    X, y = X[:300], y[:300]
    net = init_params(2, 1, 10, np.full(2, -1.6), np.full(2, 1.6), seed=3)
    cfg = TrainingConfig(depth=1, width=10, batch_size=32,
                         positive_class_weight=1.5).validate()
    opt = Adam(net)
    rng = np.random.default_rng(3)
    warm_epoch(net, X, y, cfg, opt, 1e-2, rng)
    assert asked and set(asked) == {("training", False)}
    asked.clear()
    for _ in range(10):
        warm_epoch(net, X, y, cfg, opt, 1e-2, rng)
    asked.clear()
    scaling_epoch(net, X, y, ScalingOracle(net, A, b), cfg, opt, 1e-2, rng)
    assert set(asked) == {("training", True), ("oracle", False)}
