"""Demand sampling, DC-OPF solving, and screening-dataset assembly.

Demands are drawn from a correlated Gaussian centered at the nominal load
profile.  Each demand instance is dispatched with DC-OPF; the resulting net
injection p - d is the classifier input, labeled infeasible when it violates
any row of the reference contingency region.  Demand draws whose DC-OPF is
infeasible are dropped and redrawn (with an oversampling cap), so the
dataset contains exactly the requested number of train / validation / test
instances, in sampling order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .artifacts import savez_deterministic

from .grid import DcopfSolver, Network
from .lp import LpStatus
from .region import ContingencyRegion


@dataclass
class DemandSampler:
    """Correlated Gaussian demand model d ~ N(nominal, cov).

    The covariance is a seeded random SPD matrix rescaled so every marginal
    standard deviation equals rel_std * |nominal| componentwise; buses with
    zero nominal demand stay exactly at zero.
    """

    nominal: np.ndarray
    rel_std: float = 0.15
    seed: int = 0
    support: np.ndarray = field(init=False)
    cov: np.ndarray = field(init=False)       # over support buses only
    _chol: np.ndarray = field(init=False)

    def __post_init__(self):
        self.nominal = np.asarray(self.nominal, dtype=float)
        if self.rel_std < 0:
            raise ValueError("rel_std must be nonnegative")
        self.support = np.nonzero(self.nominal != 0.0)[0]
        k = len(self.support)
        if k == 0:
            raise ValueError("nominal demand is identically zero")
        rng = np.random.default_rng(self.seed)
        gauss = rng.normal(size=(k, k))
        Q, _ = np.linalg.qr(gauss)
        u = rng.uniform(0.5, 1.5, size=k)
        M = (Q * u) @ Q.T
        target = self.rel_std * np.abs(self.nominal[self.support])
        scale = target / np.sqrt(np.diag(M))
        self.cov = M * np.outer(scale, scale)
        self.cov = 0.5 * (self.cov + self.cov.T)
        if self.rel_std > 0:
            eig = np.linalg.eigvalsh(self.cov)
            if eig.min() <= 0:
                raise ValueError("covariance lost positive definiteness")
            self._chol = np.linalg.cholesky(self.cov)
        else:
            self._chol = np.zeros((k, k))


def sample_demands(sampler: DemandSampler, count, stream=0):
    """Draw count demand vectors; deterministic in (seed, stream)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng([sampler.seed, stream])
    z = rng.standard_normal(size=(count, len(sampler.support)))
    D = np.tile(sampler.nominal, (count, 1))
    D[:, sampler.support] += z @ sampler._chol.T
    return D


def sample_injections(net: Network, sampler: DemandSampler, count,
                      max_oversample=10, return_demands=False, counters=None):
    """Net injections p - d from DC-OPF dispatch of sampled demands.

    The demands come from streams 0, 1, 2, ... of ``sample_demands``.
    Infeasible demand draws are skipped and replaced by further draws; gives
    up past max_oversample * count total draws.  A dict passed as counters
    receives the DC-OPF solver's ``counters()``: the draws, the hits and
    misses of its table of optimal bases, and the simplex engine's four
    counters (of the misses' re-solves).
    """
    solver = DcopfSolver(net)
    X = np.empty((count, net.n))
    D = np.empty((count, net.n))
    got = drawn = stream = 0
    while got < count:
        if drawn >= max_oversample * count:
            raise RuntimeError(
                f"exceeded {max_oversample}x oversampling: only {got} of "
                f"{count} demand draws had feasible dispatch")
        batch = min(count - got + 64, max_oversample * count - drawn)
        demands = sample_demands(sampler, batch, stream=stream)
        stream += 1
        drawn += batch
        for d in demands:
            res = solver.solve(d)
            if res.status is not LpStatus.OPTIMAL:
                continue
            X[got] = res.injection
            D[got] = d
            got += 1
            if got == count:
                break
    if counters is not None:
        counters.update(solver.counters())
    return (X, D) if return_demands else X


def label_injections(region: ContingencyRegion, X_full):
    """1 = infeasible (violates some region row), 0 = feasible.

    The one definition of "secure": a sweep of every row, a block of points
    at a time (``region.margins``).  A point with a NaN coordinate has a NaN
    margin and is labelled 1.

    numpy multiplies a single point as a matrix-vector product, which
    rounds other than a row of a matrix product: a point labelled alone
    can get margins that differ in the last bits from its margins inside a
    batch, and so another label when a margin is within rounding of 0.
    """
    return (~region.membership(X_full)).astype(np.uint8)


@dataclass
class ScreeningDataset:
    """Injections with labels and a fixed train/val/test split.

    x holds raw full-dimensional injections in sampling order; the split is
    (train, val, test) = consecutive blocks of the given counts.  mu/sigma/
    dim_map describe the standardized reduced coordinates used by the
    classifier and mirror the region artifact that produced the labels.
    """

    x: np.ndarray
    labels: np.ndarray
    counts: tuple
    d: np.ndarray | None = None       # demand behind each injection
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None
    dim_map: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.x) != sum(self.counts):
            raise ValueError("split counts do not sum to the sample count")
        if len(self.labels) != len(self.x):
            raise ValueError("labels length mismatch")
        if self.d is not None and self.d.shape != self.x.shape:
            raise ValueError("demands must pair with injections")

    def _block(self, i):
        start = sum(self.counts[:i])
        return slice(start, start + self.counts[i])

    @property
    def train(self):
        return self._block(0)

    @property
    def val(self):
        return self._block(1)

    @property
    def test(self):
        return self._block(2)

    def standardized(self, X=None):
        """Map raw injections into classifier coordinates."""
        if self.mu is None:
            raise ValueError("dataset carries no standardization")
        X = self.x if X is None else np.atleast_2d(np.asarray(X, dtype=float))
        return (X[:, self.dim_map] - self.mu) / self.sigma

    def attach_transform(self, region: ContingencyRegion):
        """Record the region's reduced standardized coordinate system."""
        self.mu = region.mu.copy()
        self.sigma = region.sigma.copy()
        self.dim_map = region.dim_map.copy()
        return self


def build_dataset(net: Network, sampler: DemandSampler,
                  region: ContingencyRegion,
                  counts=(10000, 2000, 2000), counters=None,
                  stage_seconds=None) -> ScreeningDataset:
    """Sample, dispatch, and label a complete dataset against a region.

    The region must be in full original coordinates (labels are defined
    against the unreduced constraint set).  ``counters`` is passed to
    ``sample_injections``; a dict passed as ``stage_seconds`` receives the
    wall-clock seconds of the sampling and dispatch ("sample") and of the
    labelling ("label").
    """
    counts = tuple(int(c) for c in counts)
    if any(c < 1 for c in counts):
        raise ValueError("all split counts must be >= 1")
    t0 = time.perf_counter()
    X, D = sample_injections(net, sampler, sum(counts), return_demands=True,
                             counters=counters)
    t1 = time.perf_counter()
    y = label_injections(region, X)
    if stage_seconds is not None:
        stage_seconds.update(sample=t1 - t0, label=time.perf_counter() - t1)
    return ScreeningDataset(
        x=X, labels=y, counts=counts, d=D,
        meta={
            "seed": sampler.seed,
            "rel_std": sampler.rel_std,
            "network": net.name,
        },
    )


def save_dataset(ds: ScreeningDataset, path):
    arrays = {
        "x": ds.x,
        "labels": ds.labels,
        "counts": np.array(ds.counts),
        "meta_json": np.array(json.dumps(ds.meta)),
    }
    if ds.d is not None:
        arrays["d"] = ds.d
    if ds.mu is not None:
        arrays["mu"] = ds.mu
        arrays["sigma"] = ds.sigma
        arrays["dim_map"] = ds.dim_map
    savez_deterministic(path, **arrays)


def load_dataset(path) -> ScreeningDataset:
    with np.load(path, allow_pickle=False) as z:
        ds = ScreeningDataset(
            x=z["x"],
            labels=z["labels"],
            counts=tuple(int(c) for c in z["counts"]),
            meta=json.loads(str(z["meta_json"])),
        )
        if "d" in z:
            ds.d = z["d"]
        if "mu" in z:
            ds.mu = z["mu"]
            ds.sigma = z["sigma"]
            ds.dim_map = z["dim_map"]
    return ds
