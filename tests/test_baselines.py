"""Unconstrained-network baseline and row-sweep screening tests."""

import numpy as np
import pytest

from nkscreen.baselines import screen_batch, train_unconstrained
from nkscreen.datagen import DemandSampler, label_injections, sample_injections
from nkscreen.icnn import forward
from nkscreen.region import build_region
from nkscreen.training import TrainingConfig, classification_rates, train

from helpers import region_from_rows, ring3, square_toy

BOX = (-2.4 * np.ones(2), 2.4 * np.ones(2))


class TestTrainMlp:
    """``train_unconstrained``: the classifier's network, W left signed."""

    def test_single_sample_overfit(self):
        X = np.array([[0.3, -0.2]])
        y = np.array([1.0])
        cfg = TrainingConfig(depth=1, width=4, warm_epochs=200,
                             scaling_epochs=1, batch_size=1,
                             decay_epochs=(10000,), seed=0)
        _, record = train_unconstrained(X, y, X, y, cfg, *BOX)
        assert record.epochs[-1].loss < 1e-2

    def test_deterministic(self):
        _, _, X, y = square_toy(200, seed=1)
        cfg = TrainingConfig(depth=1, width=6, warm_epochs=5,
                             scaling_epochs=5, batch_size=64,
                             decay_epochs=(100,), seed=3)
        a, _ = train_unconstrained(X[:150], y[:150], X[150:], y[150:], cfg,
                                   *BOX)
        b, _ = train_unconstrained(X[:150], y[:150], X[150:], y[150:], cfg,
                                   *BOX)
        np.testing.assert_array_equal(a.flat, b.flat)

    def test_learns_separable_toy(self):
        _, _, X, y = square_toy(600, lim=1.6, seed=2)
        cfg = TrainingConfig(depth=1, width=8, warm_epochs=40,
                             scaling_epochs=40, batch_size=64,
                             decay_epochs=(60,), seed=0)
        net, record = train_unconstrained(X[:400], y[:400], X[400:], y[400:],
                                          cfg, *BOX)
        fpr, fnr = classification_rates(forward(net, X[400:]) > 0.0,
                                        y[400:])
        assert fpr + fnr < 0.15
        assert len(record.epochs) == 80
        assert 0 <= record.best_epoch < 80

    def test_selection_prefers_zero_fnr(self):
        _, _, X, y = square_toy(600, lim=1.6, seed=5)
        cfg = TrainingConfig(depth=1, width=8, warm_epochs=30,
                             scaling_epochs=30, batch_size=64,
                             decay_epochs=(50,), seed=1)
        net, record = train_unconstrained(X[:400], y[:400], X[400:], y[400:],
                                          cfg, *BOX)
        rows = record.epochs
        eligible = [r for r in rows if r.val_fnr == 0.0]
        best = rows[record.best_epoch]
        if eligible:
            assert best.val_fnr == 0.0
            assert best.val_fpr == min(r.val_fpr for r in eligible)
        else:
            key = min((r.val_fnr + r.val_fpr, r.val_fpr) for r in rows)
            assert (best.val_fnr + best.val_fpr, best.val_fpr) == key

    def test_only_the_classifier_is_projected(self):
        A, b, X, y = square_toy(400, seed=6)
        cfg = TrainingConfig(depth=2, width=8, warm_epochs=20,
                             scaling_epochs=20, batch_size=64,
                             decay_epochs=(30,), seed=0)
        net, _ = train_unconstrained(X[:300], y[:300], X[300:], y[300:], cfg,
                                     *BOX)
        assert not net.is_convex()
        clf, _ = train(A, b, X[:300], y[:300], X[300:], y[300:], cfg,
                       box_lower=BOX[0], box_upper=BOX[1])
        assert clf.params.is_convex()


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
        with pytest.raises(ValueError, match="expected points of 3 dims"):
            screen_batch(self.region, np.zeros(4))
        with pytest.raises(ValueError, match="expected points of 3 dims"):
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
