"""Training loop for the certified-reliable convex classifier.

Two phases share one global epoch clock, optimizer, and learning-rate
schedule:

  * warm-start epochs: plain mini-batch passes on the unscaled classifier
    output, giving the network a sensible shape before scaling begins;
  * scaling epochs: each epoch first computes the exact reliability scaling
    r* of the current network against the reference region, then takes a
    full shuffled pass of mini-batch steps on the loss of the scaled model
    f(r* x), holding r* at that value for the pass.  The gradient includes
    the path through r* (envelope derivative), so training adapts the shape
    of the predicted set rather than fighting the rescaling.

Both phases count an epoch as one pass over the training data.  Inter-layer
weights are clipped to the nonnegative orthant after every optimizer step,
keeping the classifier convex throughout.  Each scaling epoch scores the
weights its rescale was computed for (those from before its pass) at that
exact r*; model selection picks the epoch with the lowest validation false
positive rate among those with zero validation false negatives.  The winner
is re-scaled with a full exact sweep and certified before being returned.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import expit

from .icnn import (
    IcnnGrads, IcnnParams, ScaledClassifier, backward, forward, init_params,
    project_convex,
)
from .oracle import ScalingOracle, certify, r_gradient


class CertificationFailed(RuntimeError):
    """The scaled classifier could not be proven a subset of the region."""


@dataclass
class TrainingConfig:
    depth: int = 3
    width: int = 50
    warm_epochs: int = 500
    scaling_epochs: int = 9500
    batch_size: int = 128
    positive_class_weight: float = 1.0
    learning_rate: float = 1e-2
    decay_epochs: tuple = (1500, 8500)
    decay_factor: float = 0.1
    seed: int = 0

    def validate(self):
        if self.warm_epochs < 0:
            raise ValueError("warm_epochs must be >= 0")
        if self.scaling_epochs < 1:
            raise ValueError("scaling_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.positive_class_weight <= 0:
            raise ValueError("positive_class_weight must be positive")
        if self.learning_rate < 0 or self.decay_factor <= 0:
            raise ValueError("bad learning-rate schedule")
        if self.depth < 1 or self.width < 1:
            raise ValueError("bad architecture")
        return self

    def lr_at(self, epoch):
        """Step schedule on the global epoch clock (decays count from 0)."""
        lr = self.learning_rate
        for d in self.decay_epochs:
            if epoch >= d:
                lr *= self.decay_factor
        return lr


def weighted_bce(f, y, pos_weight=1.0):
    """Per-sample stable binary cross entropy on logits, label 1 weighted.

    loss = -[w y log sigma(f) + (1 - y) log(1 - sigma(f))]; positive labels
    mark infeasible points, so pos_weight > 1 punishes missed violations.
    """
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    softplus_neg = np.logaddexp(0.0, -f)   # -log sigma(f)
    softplus_pos = np.logaddexp(0.0, f)    # -log(1 - sigma(f))
    return pos_weight * y * softplus_neg + (1.0 - y) * softplus_pos


def weighted_bce_grad(f, y, pos_weight=1.0):
    """d loss / d f, same shape as f."""
    f = np.asarray(f, dtype=float)
    y = np.asarray(y, dtype=float)
    return (1.0 - y) * expit(f) - pos_weight * y * expit(-f)


class Adam:
    """Bias-corrected Adam on the classifier parameter lists."""

    def __init__(self, params: IcnnParams, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = IcnnGrads.zeros_like(params)
        self.v = IcnnGrads.zeros_like(params)

    def step(self, params: IcnnParams, grads: IcnnGrads, lr):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params.W + params.D + params.b,
                              grads.W + grads.D + grads.b,
                              self.m.W + self.m.D + self.m.b,
                              self.v.W + self.v.D + self.v.b):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


@dataclass
class EpochRecord:
    epoch: int
    phase: str          # "warm" or "scale"
    lr: float
    loss: float
    r: float
    row: int
    val_fpr: float
    val_fnr: float


@dataclass
class TrainingRecord:
    epochs: list = field(default_factory=list)
    best_epoch: int | None = None

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(
                EpochRecord.__dataclass_fields__))
            writer.writeheader()
            for rec in self.epochs:
                writer.writerow(asdict(rec))


def classification_rates(params: IcnnParams, X, y, r=1.0):
    """(fpr, fnr) of the scaled classifier; empty classes count as zero."""
    if len(X) == 0:
        return 0.0, 0.0
    pred_infeasible = forward(params, r * np.asarray(X)) > 0.0
    y = np.asarray(y).astype(bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    fp = int(np.sum(pred_infeasible & ~y))
    fn = int(np.sum(~pred_infeasible & y))
    fpr = fp / n_neg if n_neg else 0.0
    fnr = fn / n_pos if n_pos else 0.0
    return fpr, fnr


def _minibatch_pass(params, X, y, config, opt, lr, rng, batch_grad):
    """Mini-batch steps over all of (X, y), shuffled by rng if one is given.

    batch_grad(Xb, yb) returns (summed loss, gradient of the mean loss);
    every step is followed by the convexity projection.  Returns the mean
    loss over the pass.
    """
    n = len(X)
    order = rng.permutation(n) if rng is not None else np.arange(n)
    total = 0.0
    for start in range(0, n, config.batch_size):
        idx = order[start:start + config.batch_size]
        loss, grads = batch_grad(X[idx], y[idx])
        total += loss
        opt.step(params, grads, lr)
        project_convex(params)
    return total / n


def warm_epoch(params, X, y, config, opt, lr, rng):
    """One full pass of mini-batch steps on the unscaled classifier."""
    w = config.positive_class_weight

    def batch_grad(Xb, yb):
        f = forward(params, Xb)
        up = weighted_bce_grad(f, yb, w) / len(Xb)
        grads, _ = backward(params, Xb, upstream=up)
        return float(weighted_bce(f, yb, w).sum()), grads

    return _minibatch_pass(params, X, y, config, opt, lr, rng, batch_grad)


def scaled_batch_gradient(params, Xb, yb, scale, b, pos_weight):
    """Loss and total gradient of the scaled model on one mini-batch.

    Two paths: the direct parameter dependence of f(r x_i), and the
    dependence through r itself, whose envelope derivative is weighted by
    sum_i dL_i * (grad_x f(r x_i) . x_i).
    """
    Xs = scale.r * Xb
    f = forward(params, Xs)
    loss = float(weighted_bce(f, yb, pos_weight).mean())
    up = weighted_bce_grad(f, yb, pos_weight) / len(Xb)
    grads, dx = backward(params, Xs, upstream=up)
    coeff = float(np.sum(dx * Xb))
    grads.add(r_gradient(params, scale, b), alpha=coeff)
    return loss, grads


def scaling_epoch(params, X, y, oracle: ScalingOracle, config, opt, lr,
                  rng=None):
    """Exact rescale, then one full pass of mini-batch steps on the
    scaled-model loss at that scale.

    The pass is shuffled by rng (in data order without one).  Returns the
    mean loss over the pass and the scale of the weights as they were
    before it.
    """
    scale = oracle.rescale(params)

    def batch_grad(Xb, yb):
        loss, grads = scaled_batch_gradient(params, Xb, yb, scale, oracle.b,
                                            config.positive_class_weight)
        return loss * len(Xb), grads

    loss = _minibatch_pass(params, X, y, config, opt, lr, rng, batch_grad)
    return loss, scale


def train(A, b, X_train, y_train, X_val, y_val, config: TrainingConfig,
          params=None, box_lower=None, box_upper=None, callback=None):
    """Full training run; returns (ScaledClassifier, TrainingRecord).

    The returned classifier carries the exact full-sweep scaling of the
    selected epoch's parameters and has been certified against (A, b);
    standardization metadata is the caller's to attach.
    """
    config.validate()
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    X_val = np.asarray(X_val, dtype=float)
    y_val = np.asarray(y_val, dtype=float)
    if params is None:
        if box_lower is None or box_upper is None:
            raise ValueError("need box bounds (or initial params)")
        params = init_params(A.shape[1], config.depth, config.width,
                             box_lower, box_upper, seed=config.seed)
    params.validate()

    rng = np.random.default_rng(config.seed)
    opt = Adam(params)
    record = TrainingRecord()
    oracle = ScalingOracle(params, A, b)

    best = None  # (fpr, epoch, params copy, r)
    for epoch in range(config.warm_epochs + config.scaling_epochs):
        lr = config.lr_at(epoch)
        if epoch < config.warm_epochs:
            loss = warm_epoch(params, X_train, y_train, config, opt, lr, rng)
            fpr, fnr = classification_rates(params, X_val, y_val)
            rec = EpochRecord(epoch, "warm", lr, loss, float("nan"), -1,
                              fpr, fnr)
        else:
            # the candidate is the model the rescale measured: the weights
            # from before the pass, at their exact r
            candidate = params.copy()
            loss, scale = scaling_epoch(params, X_train, y_train, oracle,
                                        config, opt, lr, rng)
            fpr, fnr = classification_rates(candidate, X_val, y_val,
                                            r=scale.r)
            rec = EpochRecord(epoch, "scale", lr, loss, scale.r, scale.row,
                              fpr, fnr)
            if fnr == 0.0 and (best is None or fpr < best[0]):
                best = (fpr, epoch, candidate, scale.r)
        record.epochs.append(rec)
        if callback is not None:
            callback(rec)

    if best is None:
        # no scaling epoch reached zero validation misses (possible only if
        # validation labels disagree with the region); fall back to the least
        # bad epoch by (fnr, fpr)
        scored = [(r.val_fnr, r.val_fpr, r.epoch) for r in record.epochs
                  if r.phase == "scale"]
        scored.sort()
        target = scored[0][2]
        raise RuntimeError(
            f"no scaling epoch achieved zero validation FNR "
            f"(best was epoch {target}); region and labels disagree")

    fpr, best_epoch, best_params, _ = best
    record.best_epoch = best_epoch
    final_scale = oracle.rescale(best_params, exact=True)
    report = certify(best_params, A, b, r=final_scale.r, solver=oracle.solver)
    if not report.reliable:
        raise CertificationFailed(
            f"final certification failed: {report.verdict}")
    clf = ScaledClassifier(
        params=best_params, r=final_scale.r,
        v=np.zeros(A.shape[1]),
        meta={
            "best_epoch": best_epoch,
            "val_fpr": fpr,
            "r": final_scale.r,
            "binding_row": final_scale.row,
            "config": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in asdict(config).items()},
        },
    )
    return clf, record
