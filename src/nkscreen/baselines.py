"""Comparison baselines for the convex screening classifier.

Two reference points: the classifier's network trained without its
convexity projection and its certified rescale, and the row sweep that
checks every region row.  With its W left signed the input-convex network
is a standard ReLU network with input skip connections (Amos, Xu & Kolter,
ICML 2017), so the unconstrained run, under the same optimizer, schedule
and selection protocol, shows what certification buys: it can and does
produce false negatives.  The sweep, ``screen_batch``, is the one that
labels the dataset, so it is both the ground truth and the runtime
baseline of ``nkscreen screen``.
"""

from __future__ import annotations

import numpy as np

from .datagen import label_injections
from .icnn import backward, forward, init_params
from .region import ContingencyRegion
from .training import (
    Adam,
    EpochRecord,
    TrainingConfig,
    TrainingRecord,
    classification_rates,
    bce_with_grad,
)


def train_unconstrained(X_train, y_train, X_val, y_val, config: TrainingConfig,
                        box_lower, box_upper):
    """Train the classifier's network with W left signed, under the same
    budget and schedule; returns (IcnnParams, TrainingRecord).

    The network starts as ``init_params`` in the box.  Every epoch is one
    shuffled pass of mini-batch steps on the unscaled output with no
    projection (the warm/scaling split does not apply without a region),
    so the budget is warm_epochs + scaling_epochs passes.  Selection prefers
    the lowest validation FPR among zero-FNR epochs, like the convex run;
    with no zero-FNR epoch (the usual case, and the point of the
    comparison) it falls back to the lowest FNR + FPR.
    """
    config.validate()
    X_train = np.asarray(X_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    X_val = np.asarray(X_val, dtype=float)
    y_val = np.asarray(y_val, dtype=float)
    params = init_params(X_train.shape[1], config.depth, config.width,
                         box_lower, box_upper, seed=config.seed)

    rng = np.random.default_rng(config.seed)
    opt = Adam(params)
    wy, omy = config.positive_class_weight * y_train, 1.0 - y_train
    n = len(X_train)
    record = TrainingRecord()
    best_eligible = None   # (fpr, epoch, copy)
    best_any = None        # (fnr + fpr, fpr, epoch, copy)
    for epoch in range(config.warm_epochs + config.scaling_epochs):
        lr = config.lr_at(epoch)
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            f, fp = forward(params, X_train[idx], want_cache=True)
            losses, dloss = bce_with_grad(f, wy[idx], omy[idx])
            total += float(losses.sum())
            backward(params, fp, upstream=dloss / len(idx), out=opt.grads,
                     want_dx=False)
            opt.step(params, opt.grads, lr)
        fpr, fnr = classification_rates(forward(params, X_val) > 0.0, y_val)
        rec = EpochRecord(epoch, "unconstrained", lr, total / n,
                          float("nan"), -1, fpr, fnr)
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

    ``label_injections``: one sweep of every region row through
    ``region.margins``, a block of points at a time.  A point with a NaN
    coordinate is infeasible; one of the wrong width raises ValueError.
    ``early_exit`` is kept for the benchmark's call shape and must be False.
    """
    if early_exit:
        raise ValueError("the early-exit sweep is gone; use early_exit=False")
    return label_injections(region, X)
