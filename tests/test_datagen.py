"""Demand sampling, dispatch labeling, and dataset assembly tests."""

import numpy as np
import pytest

from nkscreen.datagen import (
    DemandSampler,
    ScreeningDataset,
    build_dataset,
    label_injections,
    load_dataset,
    sample_demands,
    sample_injections,
    save_dataset,
)
from nkscreen.region import build_region, drop_constant_dims, standardize, with_box

from helpers import ring3, two_bus


def tight_ring(lim=1.1):
    """Ring network whose single-line outages are violated by large demand."""
    return ring3(limits=(lim, lim, lim))


class TestDemandSampler:
    def test_rejects_zero_nominal(self):
        with pytest.raises(ValueError):
            DemandSampler(np.zeros(3))

    def test_rejects_negative_rel_std(self):
        with pytest.raises(ValueError):
            DemandSampler(np.array([1.0, 2.0]), rel_std=-0.1)

    def test_marginal_std_matches_target(self):
        nominal = np.array([30.0, 100.0, 50.0])
        s = DemandSampler(nominal, rel_std=0.15, seed=1)
        assert np.allclose(np.sqrt(np.diag(s.cov)), 0.15 * nominal, rtol=1e-12)

    def test_covariance_positive_definite(self):
        for seed in range(5):
            s = DemandSampler(np.array([10.0, 20.0, 5.0, 40.0]), seed=seed)
            assert np.linalg.eigvalsh(s.cov).min() > 0

    def test_covariance_couples_buses(self):
        s = DemandSampler(np.array([30.0, 100.0, 50.0]), seed=1)
        corr = s.cov / np.sqrt(np.outer(np.diag(s.cov), np.diag(s.cov)))
        off = corr[~np.eye(3, dtype=bool)]
        assert np.abs(off).max() > 0.05

    def test_zero_demand_buses_excluded_from_support(self):
        s = DemandSampler(np.array([0.0, 100.0, 0.0, 25.0]), seed=0)
        assert list(s.support) == [1, 3]
        assert s.cov.shape == (2, 2)


class TestSampleDemands:
    def test_deterministic_repeat(self):
        s = DemandSampler(np.array([0.0, 100.0]), seed=7)
        a = sample_demands(s, 50)
        b = sample_demands(s, 50)
        assert np.array_equal(a, b)

    def test_streams_and_seeds_differ(self):
        s = DemandSampler(np.array([0.0, 100.0]), seed=7)
        s2 = DemandSampler(np.array([0.0, 100.0]), seed=8)
        a = sample_demands(s, 50)
        assert not np.array_equal(a, sample_demands(s, 50, stream=1))
        assert not np.array_equal(a, sample_demands(s2, 50))

    def test_prefix_consistency(self):
        s = DemandSampler(np.array([0.0, 100.0]), seed=7)
        assert np.array_equal(sample_demands(s, 80)[:30], sample_demands(s, 30))

    def test_zero_rel_std_returns_nominal(self):
        nominal = np.array([5.0, 0.0, 2.0])
        s = DemandSampler(nominal, rel_std=0.0, seed=3)
        D = sample_demands(s, 10)
        assert np.array_equal(D, np.tile(nominal, (10, 1)))

    def test_off_support_exactly_nominal(self):
        s = DemandSampler(np.array([0.0, 100.0, 0.0]), seed=2)
        D = sample_demands(s, 100)
        assert np.all(D[:, 0] == 0.0)
        assert np.all(D[:, 2] == 0.0)

    def test_sample_statistics(self):
        nominal = np.array([30.0, 100.0, 50.0])
        s = DemandSampler(nominal, rel_std=0.15, seed=4)
        D = sample_demands(s, 40000)
        target = 0.15 * nominal
        assert np.all(np.abs(D.mean(axis=0) - nominal) < 5 * target / np.sqrt(40000))
        assert np.allclose(D.std(axis=0), target, rtol=0.03)
        emp = np.cov(D.T)
        assert np.allclose(emp, s.cov, atol=0.05 * target.max() ** 2)

    def test_count_validated(self):
        s = DemandSampler(np.array([1.0]))
        with pytest.raises(ValueError):
            sample_demands(s, 0)


def angle_flow_labels(net, contingencies, X, tol=0.0):
    """Independent relabeling: per-contingency DC power flow via angle solves."""
    labels = np.zeros(len(X), dtype=np.uint8)
    for c in contingencies:
        keep = [l for l in range(net.m) if l not in set(c)]
        E = np.zeros((len(keep), net.n))
        for r, l in enumerate(keep):
            i, j = net.lines[l]
            E[r, i] = 1.0
            E[r, j] = -1.0
        beta = net.susceptance[keep]
        B = E.T @ (beta[:, None] * E)
        red = [i for i in range(net.n) if i != net.slack]
        B_red = B[np.ix_(red, red)]
        for sidx, x in enumerate(X):
            theta = np.zeros(net.n)
            theta[red] = np.linalg.solve(B_red, x[red])
            f = beta * (E @ theta)
            if np.any(f > net.f_upper[keep] + tol) or np.any(f < net.f_lower[keep] - tol):
                labels[sidx] = 1
    return labels


class TestInjectionsAndLabels:
    def test_injections_balanced(self):
        net = two_bus()
        s = DemandSampler(net.demand, seed=0)
        X = sample_injections(net, s, 40)
        assert np.abs(X.sum(axis=1)).max() <= 1e-8

    def test_injections_deterministic(self):
        net = tight_ring()
        s = DemandSampler(net.demand, seed=5)
        assert np.array_equal(sample_injections(net, s, 30),
                              sample_injections(net, s, 30))

    def test_oversampling_cap(self):
        net = two_bus(limit=5.0)
        s = DemandSampler(net.demand, seed=0)
        with pytest.raises(RuntimeError, match="oversampling"):
            sample_injections(net, s, 5, max_oversample=2)

    def test_resampling_skips_infeasible_draws(self):
        # limit 120 makes a noticeable fraction of demand draws undispatchable
        net = two_bus(limit=120.0)
        s = DemandSampler(net.demand, seed=1)
        counters = {}
        X = sample_injections(net, s, 60, counters=counters)
        assert X.shape == (60, 2)
        assert np.all(X[:, 0] <= 120.0 + 1e-9)
        # every draw is counted, the skipped ones too; counting changes
        # no output
        assert counters["draws"] > 60
        assert sum(counters["answers_by_hops"]) + counters["resolves"] == \
            counters["draws"]
        # the infeasible draws are re-solved on the engine
        assert counters["resolves"] >= counters["draws"] - 60
        assert counters["refactorizations"] > 0
        assert np.array_equal(X, sample_injections(net, s, 60))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_demand_rejected(self, bad):
        # with rel_std 0 every draw is the nominal demand, bad entry and all
        net = two_bus()
        s = DemandSampler(net.demand.copy(), rel_std=0.0, seed=0)
        s.nominal[-1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            sample_injections(net, s, 5)

    def test_origin_labeled_feasible(self):
        net = tight_ring()
        region = build_region(net, k=1)
        assert label_injections(region, np.zeros((1, 3)))[0] == 0

    def test_labels_match_angle_flow_oracle(self):
        net = tight_ring()
        region = build_region(net, k=1)
        s = DemandSampler(net.demand, seed=6)
        X = sample_injections(net, s, 200)
        got = label_injections(region, X)
        want = angle_flow_labels(net, region.contingencies, X)
        assert 0 < got.sum() < len(got)
        assert np.array_equal(got, want)

    def test_labels_follow_filtered_region(self):
        # labels against a sub-region with one contingency removed differ
        net = tight_ring()
        region = build_region(net, k=1)
        s = DemandSampler(net.demand, seed=6)
        X = sample_injections(net, s, 200)
        full = label_injections(region, X)
        sub = angle_flow_labels(net, region.contingencies[:1], X)
        assert np.all(sub <= full)


class TestDataset:
    def make(self, counts=(60, 20, 20), seed=3):
        net = tight_ring()
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, seed=seed)
        return net, region, build_dataset(net, sampler, region, counts=counts)

    def test_split_sizes_exact_and_disjoint(self):
        _, _, ds = self.make()
        assert len(ds.x) == 100
        blocks = [ds.train, ds.val, ds.test]
        assert [b.stop - b.start for b in blocks] == [60, 20, 20]
        covered = np.concatenate([np.arange(b.start, b.stop) for b in blocks])
        assert np.array_equal(covered, np.arange(100))

    def test_deterministic_rebuild(self):
        _, _, a = self.make()
        _, _, b = self.make()
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.labels, b.labels)

    def test_both_classes_present(self):
        _, _, ds = self.make(counts=(120, 30, 30))
        assert 0 < ds.labels.sum() < len(ds.labels)

    def test_counts_validated(self):
        net = tight_ring()
        region = build_region(net, k=1)
        sampler = DemandSampler(net.demand, seed=0)
        with pytest.raises(ValueError):
            build_dataset(net, sampler, region, counts=(10, 0, 5))
        with pytest.raises(ValueError):
            ScreeningDataset(np.zeros((5, 2)), np.zeros(5), counts=(2, 2, 2))

    def test_demands_pair_with_injections(self):
        from nkscreen.grid import DcopfSolver

        net, _, ds = self.make(counts=(20, 5, 5))
        assert ds.d.shape == ds.x.shape
        for x, d in zip(ds.x[:10], ds.d[:10]):
            res = DcopfSolver(net).solve(d)
            assert np.allclose(res.p - d, x, atol=1e-9)

    def test_meta_records_provenance(self):
        net, _, ds = self.make(seed=9)
        assert ds.meta["seed"] == 9
        assert ds.meta["network"] == net.name
        assert ds.meta["rel_std"] == 0.15

    def test_standardized_requires_transform(self):
        _, _, ds = self.make()
        with pytest.raises(ValueError):
            ds.standardized()

    def test_train_statistics_and_relabeling(self):
        net, region, ds = self.make(counts=(160, 40, 40), seed=11)
        reduced = drop_constant_dims(region, ds.x)
        Xr = reduced.project(ds.x)
        mu = Xr[ds.train].mean(axis=0)
        sigma = Xr[ds.train].std(axis=0)
        boxed = with_box(reduced, ds.x)
        std_region = standardize(boxed, mu, sigma)
        ds.attach_transform(std_region)

        Z = ds.standardized()
        assert np.abs(Z[ds.train].mean(axis=0)).max() < 1e-6
        assert np.abs(Z[ds.train].std(axis=0) - 1.0).max() < 1e-6
        # relabeling in standardized coordinates reproduces the stored labels
        relabel = (~std_region.membership(ds.x)).astype(np.uint8)
        assert np.array_equal(relabel, ds.labels)
        # and the standardized rhs keeps the origin interior
        assert np.all(std_region.b > 0)

    def test_standardized_checks_width_and_keeps_rows(self):
        _, region, ds = self.make()
        reduced = with_box(drop_constant_dims(region, ds.x), ds.x)
        Xr = reduced.project(ds.x)
        std_region = standardize(reduced, Xr[ds.train].mean(axis=0),
                                 Xr[ds.train].std(axis=0))
        ds.attach_transform(std_region)
        Z = ds.standardized()
        assert np.array_equal(std_region.project(ds.x), Z)
        x = ds.x[7]
        one = ds.standardized(x)
        assert one.shape == (1, len(ds.dim_map))
        assert one.tobytes() == Z[7].tobytes()
        n = ds.x.shape[1]
        for bad in (np.append(x, 123.0), x[:-1],
                    np.hstack([ds.x[:3], np.ones((3, 1))]), ds.x[None]):
            with pytest.raises(ValueError, match=f"expected points of {n} dims"):
                ds.standardized(bad)
            with pytest.raises(ValueError, match=f"expected points of {n} dims"):
                std_region.project(bad)

    def test_save_load_roundtrip(self, tmp_path):
        net, region, ds = self.make()
        reduced = with_box(drop_constant_dims(region, ds.x), ds.x)
        Xr = reduced.project(ds.x)
        std_region = standardize(reduced, Xr[ds.train].mean(axis=0),
                                 Xr[ds.train].std(axis=0))
        ds.attach_transform(std_region)
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.x, ds.x)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.d, ds.d)
        assert back.counts == ds.counts
        assert np.array_equal(back.mu, ds.mu)
        assert np.array_equal(back.sigma, ds.sigma)
        assert np.array_equal(back.dim_map, ds.dim_map)
        assert back.meta == ds.meta

    def test_save_load_without_transform(self, tmp_path):
        _, _, ds = self.make(counts=(20, 5, 5))
        path = tmp_path / "raw.npz"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.mu is None
        assert np.array_equal(back.x, ds.x)
