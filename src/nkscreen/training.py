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
is re-scaled with a full exact sweep and certified before being returned;
the certification uses the rescale's solver, which re-prices each row from
the optimal basis the sweep left for it, so it takes no pivots.

Every rescale sweeps all region rows on one solver that keeps each row's
optimal basis from the rescale before.  The first rescale solves each row
from the basis the row before left; later ones start each row from its own
basis, so once the weights settle a rescale takes few pivots, and their
rows, like the final certification's, are solved as stacked batches.  The
solver's work (``SublevelSolver.counters()``) is recorded in
``TrainingRecord.solver`` for the first rescale and for everything after
it; it holds counts only, so a training's outputs stay byte-reproducible.

A mini-batch step does each piece of numpy work once.  It evaluates the
network and its box term in one ``forward(..., want_cache=True)``, hands
that pass to ``backward``, which writes into the views of the optimizer's
one gradient vector, and adds the r-gradient scaled by its coefficient
into that vector.  Adam and the convexity projection then act on the one
parameter vector (``IcnnParams.flat``).  Every floating-point operation
and its order are those of a step taken array by array, so the trained
bytes do not depend on the layout.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import expit

from .icnn import (
    IcnnGrads, ScaledClassifier, backward, forward, init_params,
    project_convex,
)
from .oracle import EmptyPredictedSet, ScalingOracle, certify, r_gradient


class CertificationFailed(RuntimeError):
    """The scaled classifier could not be proven a subset of the region."""


class TrainingCollapsed(RuntimeError):
    """A rescale found the predicted set empty before any scaling epoch
    could be selected."""


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


def bce_with_grad(f, wy, omy):
    """Per-sample weighted binary cross entropy on logits, and its
    derivative in f, from the label factors wy = w y and omy = 1 - y.

    loss = -[w y log sigma(f) + (1 - y) log(1 - sigma(f))]; positive labels
    mark infeasible points, so w > 1 punishes missed violations.  A training
    pass computes the factors once and gathers them per batch.
    """
    nf = -f
    loss = wy * np.logaddexp(0.0, nf) + omy * np.logaddexp(0.0, f)
    return loss, omy * expit(f) - wy * expit(nf)


def weighted_bce(f, y, pos_weight=1.0):
    """Per-sample stable binary cross entropy on logits, label 1 weighted."""
    y = np.asarray(y, dtype=float)
    return bce_with_grad(np.asarray(f, dtype=float), pos_weight * y,
                         1.0 - y)[0]


def weighted_bce_grad(f, y, pos_weight=1.0):
    """d loss / d f, same shape as f."""
    y = np.asarray(y, dtype=float)
    return bce_with_grad(np.asarray(f, dtype=float), pos_weight * y,
                         1.0 - y)[1]


class Adam:
    """Bias-corrected Adam (Kingma & Ba, ICLR 2015) on ``params.flat``.

    m, v and the gradient ``grads`` are one vector each, laid out like the
    parameters, so a step is the same elementwise operations on every
    entry, applied once to the whole vector.  Training steps fill ``grads``
    in place and pass it to ``step``.
    """

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.grads = IcnnGrads.zeros_like(params)
        self.m = np.zeros_like(self.grads.vec)
        self.v = np.zeros_like(self.grads.vec)

    def step(self, params, grads: IcnnGrads, lr):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        p, g, m, v = params.flat, grads.vec, self.m, self.v
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
    # support-LP solver counters: {"first_rescale": ..., "later": ...}, the
    # later ones covering every rescale after the first and the final
    # certification
    solver: dict = field(default_factory=dict)
    # the scaling epoch whose rescale found the predicted set empty, which
    # ended training early; None when every epoch ran
    stopped_epoch: int | None = None

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(
                EpochRecord.__dataclass_fields__))
            writer.writeheader()
            for rec in self.epochs:
                writer.writerow(asdict(rec))


def classification_rates(pred_infeasible, y):
    """(fpr, fnr) of predictions against labels, both True = insecure;
    empty classes count as zero."""
    y = np.asarray(y).astype(bool)
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    fp = int(np.sum(pred_infeasible & ~y))
    fn = int(np.sum(~pred_infeasible & y))
    fpr = fp / n_neg if n_neg else 0.0
    fnr = fn / n_pos if n_pos else 0.0
    return fpr, fnr


def _minibatch_pass(params, X, y, config, opt, lr, rng, batch_loss):
    """Mini-batch steps over all of (X, y), shuffled by rng if one is given.

    The label factors w y and 1 - y of the loss are computed once for the
    pass and gathered per batch.  batch_loss(Xb, wy, omy, grads) fills
    grads (the optimizer's) with the gradient of the batch's mean loss and
    returns its summed loss; every step is followed by the convexity
    projection.  Returns the mean loss over the pass.
    """
    n = len(X)
    order = rng.permutation(n) if rng is not None else np.arange(n)
    y = np.asarray(y, dtype=float)
    wy, omy = config.positive_class_weight * y, 1.0 - y
    total = 0.0
    for start in range(0, n, config.batch_size):
        idx = order[start:start + config.batch_size]
        total += batch_loss(X[idx], wy[idx], omy[idx], opt.grads)
        opt.step(params, opt.grads, lr)
        project_convex(params)
    return total / n


def warm_epoch(params, X, y, config, opt, lr, rng):
    """One full pass of mini-batch steps on the unscaled classifier."""

    def batch_loss(Xb, wy, omy, grads):
        f, fp = forward(params, Xb, want_cache=True)
        loss, dloss = bce_with_grad(f, wy, omy)
        backward(params, fp, upstream=dloss / len(Xb), out=grads,
                 want_dx=False)
        return float(loss.sum())

    return _minibatch_pass(params, X, y, config, opt, lr, rng, batch_loss)


def _scaled_step(params, Xb, wy, omy, scale, b, grads, r_grads):
    """Mean loss of the scaled model on one mini-batch, and its total
    gradient into grads; r_grads is room for the r-gradient."""
    Xs = scale.r * Xb
    f, fp = forward(params, Xs, want_cache=True)
    loss, dloss = bce_with_grad(f, wy, omy)
    _, dx = backward(params, fp, upstream=dloss / len(Xb), out=grads)
    coeff = float(np.sum(dx * Xb))
    grads.vec += coeff * r_gradient(params, scale, b, out=r_grads).vec
    return float(loss.mean())


def scaled_batch_gradient(params, Xb, yb, scale, b, pos_weight):
    """Loss and total gradient of the scaled model on one mini-batch.

    Two paths: the direct parameter dependence of f(r x_i), and the
    dependence through r itself, whose envelope derivative is weighted by
    sum_i dL_i * (grad_x f(r x_i) . x_i).
    """
    yb = np.asarray(yb, dtype=float)
    grads = IcnnGrads.zeros_like(params)
    loss = _scaled_step(params, Xb, pos_weight * yb, 1.0 - yb, scale, b,
                        grads, IcnnGrads.zeros_like(params))
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
    r_grads = IcnnGrads.zeros_like(params)

    def batch_loss(Xb, wy, omy, grads):
        return _scaled_step(params, Xb, wy, omy, scale, oracle.b, grads,
                            r_grads) * len(Xb)

    loss = _minibatch_pass(params, X, y, config, opt, lr, rng, batch_loss)
    return loss, scale


def train(A, b, X_train, y_train, X_val, y_val, config: TrainingConfig,
          params=None, box_lower=None, box_upper=None):
    """Full training run; returns (ScaledClassifier, TrainingRecord).

    The returned classifier carries the exact full-sweep scaling of the
    selected epoch's parameters and has been certified against (A, b);
    standardization metadata is the caller's to attach.

    A rescale that finds the predicted set empty ends training at that
    epoch (``record.stopped_epoch``): the best scaling epoch before it is
    selected, rescaled and certified as usual.  With none selectable,
    TrainingCollapsed is raised.
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
            fpr, fnr = classification_rates(forward(params, X_val) > 0.0,
                                            y_val)
            rec = EpochRecord(epoch, "warm", lr, loss, float("nan"), -1,
                              fpr, fnr)
        else:
            # the candidate is the model the rescale measured: the weights
            # from before the pass, at their exact r
            candidate = params.copy()
            try:
                loss, scale = scaling_epoch(params, X_train, y_train, oracle,
                                            config, opt, lr, rng)
            except EmptyPredictedSet:
                # no r scales an empty set, so no later epoch can run
                record.stopped_epoch = epoch
                break
            if epoch == config.warm_epochs:
                first = oracle.solver.counters()
            fpr, fnr = classification_rates(
                forward(candidate, scale.r * X_val) > 0.0, y_val)
            rec = EpochRecord(epoch, "scale", lr, loss, scale.r, scale.row,
                              fpr, fnr)
            if fnr == 0.0 and (best is None or fpr < best[0]):
                best = (fpr, epoch, candidate, scale.r)
        record.epochs.append(rec)

    if best is None and record.stopped_epoch is not None:
        raise TrainingCollapsed(
            f"the predicted set is empty at epoch {record.stopped_epoch}, "
            "and no scaling epoch before it had zero validation misses")
    if best is None:
        # no scaling epoch reached zero validation misses (possible only if
        # validation labels disagree with the region); the error names the
        # least bad epoch by (fnr, fpr)
        scored = [(r.val_fnr, r.val_fpr, r.epoch) for r in record.epochs
                  if r.phase == "scale"]
        scored.sort()
        target = scored[0][2]
        raise RuntimeError(
            f"no scaling epoch achieved zero validation FNR "
            f"(best was epoch {target}); region and labels disagree")

    fpr, best_epoch, best_params, _ = best
    record.best_epoch = best_epoch
    final_scale = oracle.rescale(best_params)
    report = certify(best_params, A, b, r=final_scale.r, solver=oracle.solver)
    total = oracle.solver.counters()
    record.solver = {"first_rescale": first,
                     "later": {k: total[k] - first[k] for k in total}}
    if not report.reliable:
        raise CertificationFailed(
            f"final certification failed: {report.verdict}")
    clf = ScaledClassifier(
        params=best_params, r=final_scale.r,
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
