"""Comparison baselines for the convex screening classifier.

Two reference points: a standard (sign-unconstrained) ReLU network trained
with the same optimizer, schedule, and selection protocol, and the row
sweep that checks every region row.  The standard network shows what
certification buys (it can and does produce false negatives).  The sweep,
``screen_batch``, is the one that labels the dataset, so it is both the
ground truth and the runtime baseline of ``nkscreen screen``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import label_injections
from .icnn import FlatParams, IcnnGrads
from .region import ContingencyRegion
from .training import (
    Adam,
    EpochRecord,
    TrainingConfig,
    TrainingRecord,
    classification_rates,
    bce_with_grad,
)


class DimensionMismatch(ValueError):
    """Screening input width differs from the region's."""


@dataclass
class MlpParams(FlatParams):
    """Standard feed-forward ReLU network weights.

    Same depth and width budget as the convex classifier but with
    unconstrained signs and no input passthrough blocks; the empty D
    property gives the shared optimizer the same layout of one vector.
    """

    W: list   # [(w, n), (w, w) ..., (1, w)]
    b: list   # [(w,), ..., (1,)]

    @property
    def D(self):
        return []

    @property
    def depth(self):
        return len(self.W) - 1

    @property
    def width(self):
        return self.W[0].shape[0]

    @property
    def n_inputs(self):
        return self.W[0].shape[1]

    def copy(self):
        return MlpParams(W=[w.copy() for w in self.W],
                         b=[bb.copy() for bb in self.b])

    def validate(self):
        if len(self.W) != len(self.b) or len(self.W) < 2:
            raise ValueError("need matching weight/bias lists, depth >= 1")
        w = self.width
        for i, (wi, bi) in enumerate(zip(self.W, self.b)):
            last = i == len(self.W) - 1
            rows = 1 if last else w
            cols = self.n_inputs if i == 0 else w
            if wi.shape != (rows, cols):
                raise ValueError(f"layer {i} weights have shape {wi.shape}, "
                                 f"expected {(rows, cols)}")
            if bi.shape != (rows,):
                raise ValueError(f"layer {i} bias has shape {bi.shape}")
        return self


def init_mlp(n_inputs, depth, width, seed=0):
    """Uniform fan-in initialization, same recipe as the convex network."""
    if depth < 1 or width < 1 or n_inputs < 1:
        raise ValueError("depth, width, and n_inputs must be positive")
    rng = np.random.default_rng(seed)
    W, b = [], []
    for i in range(depth + 1):
        rows = 1 if i == depth else width
        cols = n_inputs if i == 0 else width
        bound = 1.0 / np.sqrt(cols)
        W.append(rng.uniform(-bound, bound, size=(rows, cols)))
        b.append(rng.uniform(-bound, bound, size=rows))
    return MlpParams(W=W, b=b).validate()


def mlp_forward(params: MlpParams, X, want_cache=False):
    """Decision values f(x); positive means predicted infeasible."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.n_inputs:
        raise ValueError(f"expected {params.n_inputs} inputs, got {X.shape[1]}")
    pre, acts = [], []
    h = X
    for i in range(params.depth):
        p = h @ params.W[i].T + params.b[i]
        h = np.maximum(p, 0.0)
        pre.append(p)
        acts.append(h)
    out = h @ params.W[-1].T + params.b[-1]
    out = out[:, 0]
    if want_cache:
        return out, (X, pre, acts)
    return out


def mlp_backward(params: MlpParams, X, upstream=None):
    """Parameter gradients of sum_i upstream_i * f(x_i)."""
    out, (X, pre, acts) = mlp_forward(params, X, want_cache=True)
    n = len(X)
    u = np.ones(n) if upstream is None else np.asarray(upstream, dtype=float)
    grads = IcnnGrads.zeros_like(params)
    k = params.depth
    grads.W[k][0] = u @ acts[k - 1]
    grads.b[k][0] = u.sum()
    delta = u[:, None] * params.W[k]        # d f / d h_k per sample
    for i in range(k - 1, -1, -1):
        delta = delta * (pre[i] > 0.0)
        below = X if i == 0 else acts[i - 1]
        grads.W[i] += delta.T @ below
        grads.b[i] += delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.W[i]
    return grads


def mlp_epoch(params, X, y, config, opt, lr, rng):
    """One full pass of mini-batch steps; no projection, no scaling."""
    n = len(X)
    order = rng.permutation(n)
    wy, omy = config.positive_class_weight * y, 1.0 - y
    total = 0.0
    for start in range(0, n, config.batch_size):
        idx = order[start:start + config.batch_size]
        Xb = X[idx]
        f = mlp_forward(params, Xb)
        losses, dloss = bce_with_grad(f, wy[idx], omy[idx])
        total += float(losses.sum())
        grads = mlp_backward(params, Xb, upstream=dloss / len(idx))
        opt.step(params, grads, lr)
    return total / n


def train_mlp(X_train, y_train, X_val, y_val, config: TrainingConfig):
    """Train the plain network under the same budget and schedule.

    Every epoch is a standard full pass (the warm/scaling split does not
    apply without a region), so the budget is warm_epochs + scaling_epochs
    passes.  Selection prefers the lowest validation FPR among zero-FNR
    epochs, like the convex run; with no zero-FNR epoch (the usual case,
    and the point of the comparison) it falls back to the lowest FNR + FPR.
    """
    config.validate()
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    X_val = np.asarray(X_val, dtype=float)
    y_val = np.asarray(y_val, dtype=float)
    params = init_mlp(X_train.shape[1], config.depth, config.width,
                      seed=config.seed)

    rng = np.random.default_rng(config.seed)
    opt = Adam(params)
    record = TrainingRecord()
    best_eligible = None   # (fpr, epoch, copy)
    best_any = None        # (fnr + fpr, fpr, epoch, copy)
    for epoch in range(config.warm_epochs + config.scaling_epochs):
        lr = config.lr_at(epoch)
        loss = mlp_epoch(params, X_train, y_train, config, opt, lr, rng)
        fpr, fnr = classification_rates(mlp_forward(params, X_val) > 0.0,
                                        y_val)
        rec = EpochRecord(epoch, "mlp", lr, loss, float("nan"), -1, fpr, fnr)
        record.epochs.append(rec)
        if fnr == 0.0 and (best_eligible is None or fpr < best_eligible[0]):
            best_eligible = (fpr, epoch, params.copy())
        key = (fnr + fpr, fpr)
        if best_any is None or key < best_any[:2]:
            best_any = (*key, epoch, params.copy())

    if best_eligible is not None:
        _, epoch, chosen = best_eligible
    else:
        _, _, epoch, chosen = best_any
    record.best_epoch = epoch
    return chosen, record


def screen_batch(region: ContingencyRegion, X, early_exit=False):
    """Row-sweep labels (1 = infeasible) for a batch of injections.

    The width check, then ``label_injections``: one sweep of every region
    row through ``region.margins``, a block of points at a time.  A point
    with a NaN coordinate is infeasible.  ``early_exit`` is kept for the
    benchmark's call shape and must be False.
    """
    if early_exit:
        raise ValueError("the early-exit sweep is gone; use early_exit=False")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != region.n_full:
        raise DimensionMismatch(
            f"injections have {X.shape[1]} dims, region expects {region.n_full}")
    return label_injections(region, X)
