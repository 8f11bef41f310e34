"""Plain-network baseline and row-sweep screening tests."""

import numpy as np
import pytest

from nkscreen.baselines import (
    DimensionMismatch,
    MlpParams,
    init_mlp,
    mlp_backward,
    mlp_epoch,
    mlp_forward,
    screen_batch,
    train_mlp,
)
from nkscreen.datagen import DemandSampler, label_injections, sample_injections
from nkscreen.region import build_region
from nkscreen.training import classification_rates
from nkscreen.training import Adam, TrainingConfig

from helpers import region_from_rows, ring3, square_toy


def abs_net(threshold=0.5):
    """Width-2 network with f(x) = |x| - threshold (needs signed weights)."""
    return MlpParams(
        W=[np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
        b=[np.zeros(2), np.array([-threshold])],
    ).validate()


class TestMlpCore:
    def test_hand_value(self):
        net = abs_net(0.5)
        vals = mlp_forward(net, np.array([[0.3], [-0.3], [1.0]]))
        assert np.allclose(vals, [-0.2, -0.2, 0.5], atol=1e-12)

    def test_init_shapes_and_determinism(self):
        net = init_mlp(5, 3, 7, seed=4)
        assert [w.shape for w in net.W] == [(7, 5), (7, 7), (7, 7), (1, 7)]
        assert [bb.shape for bb in net.b] == [(7,), (7,), (7,), (1,)]
        again = init_mlp(5, 3, 7, seed=4)
        for a, c in zip(net.W, again.W):
            np.testing.assert_array_equal(a, c)
        assert not np.array_equal(net.W[0], init_mlp(5, 3, 7, seed=5).W[0])

    def test_signed_weights_allowed(self):
        net = init_mlp(4, 2, 6, seed=0)
        assert any(np.any(w < 0) for w in net.W)

    def test_validate_rejects_bad_shapes(self):
        net = init_mlp(3, 2, 4, seed=0)
        net.W[1] = np.zeros((4, 5))
        with pytest.raises(ValueError):
            net.validate()

    def test_input_width_checked(self):
        net = init_mlp(3, 1, 4, seed=0)
        with pytest.raises(ValueError):
            mlp_forward(net, np.zeros((2, 5)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        net = init_mlp(3, 2, 5, seed=8)
        X = rng.normal(size=(6, 3))
        u = rng.normal(size=6)
        # keep the check meaningful: stay away from relu kinks
        _, (_, pre, _) = mlp_forward(net, X, want_cache=True)
        assert min(np.abs(p).min() for p in pre) > 1e-4
        grads = mlp_backward(net, X, upstream=u)

        h = 1e-6
        for arrs, garrs in ((net.W, grads.W), (net.b, grads.b)):
            for arr, garr in zip(arrs, garrs):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    old = arr[ix]
                    arr[ix] = old + h
                    hi = float(u @ mlp_forward(net, X))
                    arr[ix] = old - h
                    lo = float(u @ mlp_forward(net, X))
                    arr[ix] = old
                    fd = (hi - lo) / (2 * h)
                    assert garr[ix] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_rates_convention(self):
        net = abs_net(0.5)
        X = np.array([[0.1], [0.9], [-0.9], [0.2]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        fpr, fnr = classification_rates(mlp_forward(net, X) > 0.0, y)
        assert fpr == 0.5   # -0.9 is predicted infeasible but labeled 0
        assert fnr == 0.5   # 0.2 is predicted feasible but labeled 1


class TestTrainMlp:
    def test_single_sample_overfit(self):
        X = np.array([[0.3, -0.2]])
        y = np.array([1.0])
        cfg = TrainingConfig(depth=1, width=4, warm_epochs=200,
                             scaling_epochs=1, batch_size=1,
                             decay_epochs=(10000,), seed=0).validate()
        net = init_mlp(2, 1, 4, seed=0)
        opt = Adam(net)
        rng = np.random.default_rng(0)
        loss = None
        for epoch in range(201):
            loss = mlp_epoch(net, X, y, cfg, opt, cfg.lr_at(epoch), rng)
        assert loss < 1e-2

    def test_deterministic(self):
        _, _, X, y = square_toy(200, seed=1)
        cfg = TrainingConfig(depth=1, width=6, warm_epochs=5,
                             scaling_epochs=5, batch_size=64,
                             decay_epochs=(100,), seed=3)
        a, _ = train_mlp(X[:150], y[:150], X[150:], y[150:], cfg)
        b, _ = train_mlp(X[:150], y[:150], X[150:], y[150:], cfg)
        for wa, wb in zip(a.W + a.b, b.W + b.b):
            np.testing.assert_array_equal(wa, wb)

    def test_learns_separable_toy(self):
        _, _, X, y = square_toy(600, lim=1.6, seed=2)
        cfg = TrainingConfig(depth=1, width=8, warm_epochs=40,
                             scaling_epochs=40, batch_size=64,
                             decay_epochs=(60,), seed=0)
        net, record = train_mlp(X[:400], y[:400], X[400:], y[400:], cfg)
        fpr, fnr = classification_rates(mlp_forward(net, X[400:]) > 0.0,
                                        y[400:])
        assert fpr + fnr < 0.15
        assert len(record.epochs) == 80
        assert 0 <= record.best_epoch < 80

    def test_selection_prefers_zero_fnr(self):
        _, _, X, y = square_toy(600, lim=1.6, seed=5)
        cfg = TrainingConfig(depth=1, width=8, warm_epochs=30,
                             scaling_epochs=30, batch_size=64,
                             decay_epochs=(50,), seed=1)
        net, record = train_mlp(X[:400], y[:400], X[400:], y[400:], cfg)
        rows = record.epochs
        eligible = [r for r in rows if r.val_fnr == 0.0]
        best = rows[record.best_epoch]
        if eligible:
            assert best.val_fnr == 0.0
            assert best.val_fpr == min(r.val_fpr for r in eligible)
        else:
            key = min((r.val_fnr + r.val_fpr, r.val_fpr) for r in rows)
            assert (best.val_fnr + best.val_fpr, best.val_fpr) == key


class TestExhaustiveScreen:
    """``screen_batch``, the sweep of every region row."""

    def setup_method(self):
        self.net = ring3(limits=(1.1, 1.1, 1.1))
        self.region = build_region(self.net, k=1)

    def test_origin_feasible(self):
        assert screen_batch(self.region, np.zeros(3)).tolist() == [0]

    def test_single_violation_detected(self):
        # injection pushing 1.3 through the network exceeds the 1.1 limits
        X = np.array([[1.3, 0.0, -1.3], [0.0, 0.0, 0.0]])
        assert screen_batch(self.region, X).tolist() == [1, 0]

    def test_nan_injection_insecure(self):
        X = np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert screen_batch(self.region, X).tolist() == [1, 0]
        assert label_injections(self.region, X).tolist() == [1, 0]

    def test_early_exit_rejected(self):
        with pytest.raises(ValueError, match="early-exit"):
            screen_batch(self.region, np.zeros((1, 3)), early_exit=True)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            screen_batch(self.region, np.zeros(4))
        with pytest.raises(DimensionMismatch):
            screen_batch(self.region, np.zeros((2, 5)))

    def test_agrees_with_dataset_labels(self):
        sampler = DemandSampler(self.net.demand, seed=12)
        X = sample_injections(self.net, sampler, 150)
        want = label_injections(self.region, X)
        assert want.sum() > 0
        got = screen_batch(self.region, X, early_exit=False)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    def test_full_sweep_memory_bounded_by_blocks(self):
        import tracemalloc

        # 2,000 points x 2,000 rows: one full matrix of row values is 32 MB
        rng = np.random.default_rng(8)
        A = rng.normal(size=(2000, 6))
        region = region_from_rows(A, np.abs(A).sum(axis=1))
        X = rng.uniform(-1.2, 1.2, size=(2000, 6))
        want = (X @ A.T > region.b).any(axis=1)
        tracemalloc.start()
        try:
            got = screen_batch(region, X, early_exit=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < 8e6, f"full sweep peaked at {peak / 1e6:.1f} MB"
